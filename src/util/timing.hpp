// Minimal wall-clock probes: best-of-N milliseconds of a callable for
// examples and tools — the usual defense against scheduler noise when
// printing a single comparison line — and the elapsed-µs reading the
// executors put on PlanEvent::wall_us.
#pragma once

#include <algorithm>
#include <chrono>

namespace bruck {

/// Microseconds elapsed since `start` on the steady clock.
inline double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

template <typename F>
double best_of_ms(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace bruck
