// The batch iterator interface all physical operators implement. The paper's
// pipelining architecture (Sec. 7.2.2) is kept, but the unit of flow between
// operators is a RowBatch instead of a single Row: one virtual call moves up
// to EngineOptions::batch_size tuples (MonetDB/X100-style vectorization), so
// the per-tuple interpretation overhead of the classic Volcano protocol is
// amortized over the batch.
//
// Rows below the emit boundary are entity references (see row_batch.h).
// The blocking operators — HashJoin's build side, GroupFilter, DedupJoin,
// Group-Entities — buffer their input as ReferenceRows (entity ids and
// group keys, no strings) through DrainReferences. Only Project and
// Group-Entities emit owned rows.

#ifndef QUERYER_EXEC_OPERATOR_H_
#define QUERYER_EXEC_OPERATOR_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/row_batch.h"
#include "obs/operator_profile.h"

namespace queryer {

/// \brief Pull-based physical operator.
///
/// Protocol: Open() once, Next() until it returns false, Close() once.
/// Next() clears and refills the caller's batch with up to
/// `batch->capacity()` rows. A true return with an EMPTY batch is legal mid
/// stream (e.g. a fully filtered batch) — callers keep pulling until Next
/// returns false, which definitively ends the stream. Callers reuse one
/// RowBatch across all Next calls so the row storage is recycled.
/// `output_columns()` is valid after construction and lists qualified
/// column names ("alias.column") of the produced rows.
///
/// Non-virtual interface: subclasses implement OpenImpl/NextImpl/CloseImpl;
/// the public Open/Next/Close wrappers record rows, batches, and cumulative
/// time into the attached OperatorProfile (one steady_clock read pair per
/// call) and are pass-throughs when no profile is attached. Profiles are
/// written only from the consumer thread that drives the operator tree.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  Status Open() {
    if (profile_ == nullptr) return OpenImpl();
    const auto begin = OperatorProfile::Clock::now();
    if (profile_->opens++ == 0) profile_->first_activity = begin;
    Status status = OpenImpl();
    const auto end = OperatorProfile::Clock::now();
    const double dt = std::chrono::duration<double>(end - begin).count();
    profile_->open_seconds += dt;
    profile_->total_seconds += dt;
    profile_->last_activity = end;
    return status;
  }

  /// Refills `batch`; returns false at end of stream.
  Result<bool> Next(RowBatch* batch) {
    if (profile_ == nullptr) return NextImpl(batch);
    const auto begin = OperatorProfile::Clock::now();
    Result<bool> result = NextImpl(batch);
    const auto end = OperatorProfile::Clock::now();
    profile_->total_seconds += std::chrono::duration<double>(end - begin).count();
    if (result.ok() && *result) {
      ++profile_->batches;
      profile_->rows += batch->size();
    }
    profile_->last_activity = end;
    return result;
  }

  void Close() {
    if (profile_ == nullptr) {
      CloseImpl();
      return;
    }
    const auto begin = OperatorProfile::Clock::now();
    CloseImpl();
    const auto end = OperatorProfile::Clock::now();
    profile_->total_seconds += std::chrono::duration<double>(end - begin).count();
    profile_->last_activity = end;
  }

  /// Attaches the profile node this operator reports into (set by the
  /// executor at lowering time; null = no profiling, zero overhead).
  void set_profile(OperatorProfile* profile) { profile_ = profile; }
  OperatorProfile* profile() const { return profile_; }

  const std::vector<std::string>& output_columns() const {
    return output_columns_;
  }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(RowBatch* batch) = 0;
  virtual void CloseImpl() = 0;

  std::vector<std::string> output_columns_;

 private:
  OperatorProfile* profile_ = nullptr;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// \brief Reference rows buffered by a blocking operator: one lineage, and
/// per row its entity ids and group key. Nothing is materialized.
struct ReferenceRows {
  Lineage lineage;
  std::vector<EntityId> ids;  // lineage.num_tables() per row.
  std::vector<std::uint64_t> group_keys;

  std::size_t size() const { return group_keys.size(); }
  const EntityId* row(std::size_t r) const {
    return ids.data() + r * lineage.num_tables();
  }
  void Append(const EntityId* row_ids, std::uint64_t group_key) {
    ids.insert(ids.end(), row_ids, row_ids + lineage.num_tables());
    group_keys.push_back(group_key);
  }

  /// Next() body of the buffering operators: clears `batch` and appends
  /// rows from *position on until it fills, advancing *position. Returns
  /// false once the rows are exhausted.
  bool EmitInto(std::size_t* position, RowBatch* batch) const;
};

/// \brief A counting sort: items 0..n-1 bucketed by `bucket_of[item]`, each
/// bucket in item order — bucket b is items[start[b], start[b + 1]). Items
/// whose id is `num_buckets` or more are left out.
struct Buckets {
  Buckets() = default;
  Buckets(const std::vector<std::uint32_t>& bucket_of, std::size_t num_buckets);

  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> items;
};

/// \brief Drains `op` (Open / Next* / Close) into `out`, pulling batches of
/// `batch_size` rows. Fails with ExecutionError on owned (projected) rows,
/// which reference no entity.
Status DrainReferences(PhysicalOperator* op, std::size_t batch_size,
                       ReferenceRows* out);

}  // namespace queryer

#endif  // QUERYER_EXEC_OPERATOR_H_
