// Per-operator runtime stats backing EXPLAIN ANALYZE.
//
// A PlanProfile owns one OperatorProfile node per physical operator,
// mirroring the plan tree. The executor creates the nodes while lowering
// and hands each operator a raw pointer via PhysicalOperator::set_profile;
// the operator's non-virtual Open/Next/Close wrappers write into it (one
// steady_clock read pair per call, nothing when no profile is attached).
//
// Profile writes are single-threaded by construction: only the consumer
// thread that drives the operator tree calls Open/Next/Close, so the fields
// are plain (non-atomic) and TSan-clean. Worker-side comparison work is
// visible in the ER-stage stats, metrics and trace spans instead.

#ifndef QUERYER_OBS_OPERATOR_PROFILE_H_
#define QUERYER_OBS_OPERATOR_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace queryer {

/// Coarse operator class, used to fold profile self-times into the
/// ExecStats scan/filter/join/project breakdown. Dedup-ish categories are
/// deliberately NOT folded there — their time already lands in the ER-stage
/// seconds and would be double-counted.
enum class OperatorCategory {
  kScan,
  kFilter,
  kGroupFilter,
  kProject,
  kJoin,
  kDedup,
  kDedupJoin,
  kGroup,
  kOther,
};

/// \brief Runtime record for one operator in one session. Lives in the
/// PlanProfile (owned by the cursor), so it survives Close() exactly like
/// ExecStats does.
struct OperatorProfile {
  using Clock = std::chrono::steady_clock;

  std::string label;  // e.g. "TableScan(people)" — from LogicalPlan.
  OperatorCategory category = OperatorCategory::kOther;

  std::uint64_t opens = 0;
  std::uint64_t batches = 0;  // Next calls that returned a (possibly empty) batch.
  std::uint64_t rows = 0;     // Selected rows emitted across all batches.
  double open_seconds = 0;    // Time inside Open (pipeline-breaker work).
  double total_seconds = 0;   // Open + all Next + Close, inclusive of children.

  // Wall-clock envelope of the operator's activity, for trace spans.
  Clock::time_point first_activity{};
  Clock::time_point last_activity{};

  std::vector<std::unique_ptr<OperatorProfile>> children;

  /// Inclusive time minus the children's inclusive time: what this operator
  /// spent itself. Clamped at zero (clock jitter on tiny plans).
  double self_seconds() const;
};

/// \brief The profile tree for one session's plan.
class PlanProfile {
 public:
  /// Adds a node under `parent` (nullptr = make it the root) and returns a
  /// pointer stable for the PlanProfile's lifetime.
  OperatorProfile* NewNode(OperatorProfile* parent, std::string label,
                           OperatorCategory category);

  OperatorProfile* root() const { return root_.get(); }

  /// The annotated plan, e.g.:
  ///   Deduplicate  (rows=87 batches=1 self=12.3ms open=12.1ms)
  ///     TableScan(p)  (rows=100 batches=1 self=0.2ms)
  std::string ToString() const;

 private:
  std::unique_ptr<OperatorProfile> root_;
};

}  // namespace queryer

#endif  // QUERYER_OBS_OPERATOR_PROFILE_H_
