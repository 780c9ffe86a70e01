// Spin → yield → sleep escalation shared by the wait loops of the port
// engine and the shm fabric: the common case (a peer mid-push) resolves in
// nanoseconds, but a rank genuinely ahead of its peers must not burn a core
// for the whole drain deadline.
#pragma once

#include <chrono>
#include <thread>

namespace bruck::mps {

class Backoff {
 public:
  /// One wait step: a CPU pause for the first steps, then sched_yield, and
  /// past that a 50 µs sleep.
  void pause() {
    if (++waits_ < kYieldAfter) {
      relax();
    } else if (waits_ < kSleepAfter) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// One wait step that never sleeps: a CPU pause, then sched_yield.  For
  /// spins bounded by their own time budget, which park by other means.
  void spin() {
    if (++waits_ < kYieldAfter) {
      relax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { waits_ = 0; }

 private:
  static constexpr int kYieldAfter = 64;
  static constexpr int kSleepAfter = 256;

  static void relax() {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
  }

  int waits_ = 0;
};

}  // namespace bruck::mps
