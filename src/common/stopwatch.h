// Wall-clock stopwatch used by ExecStats and the bench harnesses.

#ifndef QUERYER_COMMON_STOPWATCH_H_
#define QUERYER_COMMON_STOPWATCH_H_

#include <chrono>

namespace queryer {

/// \brief Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace queryer

#endif  // QUERYER_COMMON_STOPWATCH_H_
