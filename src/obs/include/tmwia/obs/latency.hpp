// WallTimer: the sanctioned wall-clock stopwatch for request-latency
// measurement.
//
// Wall time is an observability concern, so the clock lives in src/obs:
// the wall-clock lint rule confines <chrono> clock reads to this
// subsystem (and the bench harnesses), and everything else — the serve
// request handlers in particular — measures elapsed time through this
// facade. Latency readings feed MetricsRegistry histograms, which are
// exempt from the byte-determinism contract the algorithm metrics obey:
// a latency distribution is honest about being a property of the run,
// not of the seed.
#pragma once

#include <chrono>
#include <cstdint>

namespace tmwia::obs {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Microseconds since construction.
  [[nodiscard]] std::uint64_t elapsed_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tmwia::obs
