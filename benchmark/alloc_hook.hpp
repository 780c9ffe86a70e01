// Heap-allocation counting for the traced run.
//
// alloc_hook.cpp replaces the global operator new in the bench_report
// binary only (the library and its tests are untouched).  Each
// thread counts its own allocations, and only while that thread has armed
// counting: rank threads (thread fabric) and rank processes (shm, socket)
// arm for the traced timed phase and read their own totals back, so the
// launcher's allocations never mix in.
#pragma once

#include <cstdint>

namespace bench {

struct AllocCounts {
  std::uint64_t count = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Zero this thread's counters and start counting.
void arm_alloc_counting();

/// Stop counting on this thread and return what was counted since arming.
AllocCounts disarm_alloc_counting();

}  // namespace bench
