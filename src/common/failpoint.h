// Failpoints: named fault-injection sites compiled into the engine always.
//
// A failpoint is a named place in the code where a test (or an operator via
// the QUERYER_FAILPOINTS environment variable) can inject a failure without
// recompiling: an error Status, a thrown exception, or a delay. Sites are
// planted on every cross-thread failure boundary — thread-pool task entry,
// comparison-execution chunks, Link Index publishing,
// coordinator claim/release, admission, cursor Open/Next — so the engine's
// failure paths (claim abandonment, slot release, first-error-wins
// propagation) can be exercised deterministically instead of waiting for
// hardware to misbehave.
//
// Disarmed cost is one relaxed atomic load and a predictable branch per
// evaluation (the registry lookup is a function-local static, resolved
// once per call site), so sites stay compiled in for release builds.
//
// Arming, per test:
//
//   Failpoints::Global().Arm("er.comparison_chunk", "error");
//   Failpoints::Global().Arm("li.publish", "throw(p=0.25,seed=42)");
//   Failpoints::Global().Arm("cursor.open", "error(every=3)");
//   Failpoints::Global().Arm("cursor.next", "delay(15)");   // milliseconds
//   Failpoints::Global().Arm("engine.admission", "error(once)");
//   ...
//   Failpoints::Global().DisarmAll();
//
// or externally: QUERYER_FAILPOINTS="li.publish=throw(p=0.5,seed=7);cursor.next=delay(10)".
//
// Spec grammar: <mode>[(<args>)] where mode is `error`, `throw`, or
// `delay(<ms>)`, and args is a comma-separated mix of `p=<0..1>`,
// `seed=<n>`, `every=<n>` (trigger every Nth eligible evaluation), and
// `once` (disarm after the first trigger). The probability gate uses a
// per-site mt19937_64 seeded from `seed` (default 0), so a seeded schedule
// replays identically.
//
// Every actual trigger increments the per-site counter
// `queryer_failpoint_triggered_total_<site>` ('.' -> '_') in the global
// metrics registry.

#ifndef QUERYER_COMMON_FAILPOINT_H_
#define QUERYER_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"

namespace queryer {

class Counter;

/// \brief Thrown by a site armed in `throw` mode (and by `error` mode at
/// FireOrThrow sites, where the surrounding code propagates exceptions).
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& what) : std::runtime_error(what) {}
};

/// \brief One named injection site. Obtained from Failpoints::Global();
/// never constructed directly. All members are thread-safe: armed() is a
/// relaxed load, the trigger gates (probability, every-N, once) run under
/// a per-site mutex on the armed slow path only.
class Failpoint {
 public:
  /// True when a spec is armed — the only cost a disarmed site pays.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Evaluates the armed spec: returns a non-OK Status in `error` mode,
  /// throws FailpointError in `throw` mode, sleeps then returns OK in
  /// `delay` mode. Returns OK without side effects when the trigger gates
  /// (p / every / once) decide this evaluation does not fire.
  Status Fire();

  /// Like Fire, but `error` mode also throws FailpointError — for sites
  /// inside code that reports failure by exception (Link Index publishing,
  /// coordinator transactions).
  void FireOrThrow();

  /// Like Fire, but only `delay` triggers; `error`/`throw` specs are
  /// counted yet otherwise ignored — for sites that must not fail
  /// (thread-pool task entry, coordinator release).
  void FireInert();

  const std::string& name() const { return name_; }

  enum class Mode { kError, kThrow, kDelay };
  /// A parsed arming spec (see the grammar in the file comment).
  struct Spec {
    Mode mode = Mode::kError;
    double delay_ms = 0;
    double probability = 1.0;  // 1.0 = unconditional.
    std::uint64_t every = 0;   // 0 = no every-N gate.
    bool once = false;
    std::uint64_t seed = 0;
  };

 private:
  friend class Failpoints;
  explicit Failpoint(std::string name);

  void Arm(const Spec& spec);
  void Disarm();
  /// Runs the gates under mu_; true means this evaluation triggers, and
  /// `snapshot` receives the spec the gates decided under — acting on a
  /// re-read of spec_ instead would let a concurrent Arm swap in a new
  /// mode between the gate decision and the injected action.
  bool ShouldTrigger(Spec* snapshot);
  /// The triggered action shared by Fire/FireOrThrow: delay sleeps and
  /// returns OK; error/throw return the injected Status.
  Status Triggered(const Spec& spec);

  const std::string name_;
  Counter* triggered_;  // queryer_failpoint_triggered_total_<site>.

  std::atomic<bool> armed_{false};
  std::mutex mu_;
  Spec spec_;                    // Guarded by mu_.
  std::uint64_t evaluations_ = 0;  // Eligible evaluations since Arm.
  std::mt19937_64 rng_;          // Guarded by mu_; seeded at Arm.
};

/// \brief Process-wide registry of failpoints, keyed by site name. Sites
/// are created on first use (Get from the QUERYER_FAILPOINT macros) or on
/// first Arm, and live for the process.
class Failpoints {
 public:
  /// The process-wide registry. First call parses QUERYER_FAILPOINTS.
  static Failpoints& Global();

  /// The site named `site`, created disarmed if new. Pointer stable for
  /// the process lifetime.
  Failpoint* Get(const std::string& site);

  /// Arms `site` with `spec` (see the grammar above). Replaces any
  /// previous arming. Returns InvalidArgument on a malformed spec.
  Status Arm(const std::string& site, const std::string& spec);

  /// Disarms `site` (no-op when unknown or already disarmed).
  void Disarm(const std::string& site);
  /// Disarms every site — test teardown.
  void DisarmAll();

  /// Names of currently armed sites, sorted.
  std::vector<std::string> ArmedSites();

  /// Parses "site=spec;site=spec" (the QUERYER_FAILPOINTS format), arming
  /// each entry. Malformed entries are reported on stderr and skipped —
  /// an operator's typo must not take the process down. Public so tests
  /// can drive the env path without re-execing.
  void ArmFromEnv(const char* env);

 private:
  Failpoints();

  std::mutex mu_;
  // Stable node addresses: Get hands out raw pointers.
  std::map<std::string, std::unique_ptr<Failpoint>> sites_;
};

}  // namespace queryer

/// Evaluates the site; on an injected `error` the enclosing function (which
/// must return Status or Result<T>) returns it. `throw` propagates as a
/// FailpointError exception, `delay` just sleeps.
#define QUERYER_FAILPOINT(site)                                     \
  do {                                                              \
    static ::queryer::Failpoint* _queryer_fp =                      \
        ::queryer::Failpoints::Global().Get(site);                  \
    if (_queryer_fp->armed()) {                                     \
      ::queryer::Status _queryer_fp_st = _queryer_fp->Fire();       \
      if (!_queryer_fp_st.ok()) return _queryer_fp_st;              \
    }                                                               \
  } while (false)

/// For exception-reporting contexts: `error` and `throw` both throw
/// FailpointError, `delay` sleeps.
#define QUERYER_FAILPOINT_THROW(site)                               \
  do {                                                              \
    static ::queryer::Failpoint* _queryer_fp =                      \
        ::queryer::Failpoints::Global().Get(site);                  \
    if (_queryer_fp->armed()) _queryer_fp->FireOrThrow();           \
  } while (false)

/// For must-not-fail contexts: only `delay` has an effect.
#define QUERYER_FAILPOINT_INERT(site)                               \
  do {                                                              \
    static ::queryer::Failpoint* _queryer_fp =                      \
        ::queryer::Failpoints::Global().Get(site);                  \
    if (_queryer_fp->armed()) _queryer_fp->FireInert();             \
  } while (false)

#endif  // QUERYER_COMMON_FAILPOINT_H_
