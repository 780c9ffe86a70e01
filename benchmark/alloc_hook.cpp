// Replacement global operator new for bench_report (see alloc_hook.hpp).
// Only the two forms every other one funnels into are replaced: libstdc++'s
// array and nothrow forms call operator new(size_t) or its aligned twin,
// and its default operator delete calls free(), which matches the
// malloc/aligned_alloc used here.  The only addition is the per-thread
// count taken while armed.  The counters are constant-initialized
// thread_locals, so touching them from inside operator new never allocates.
#include "alloc_hook.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local bool t_armed = false;
thread_local bench::AllocCounts t_counts;

void note(std::size_t bytes) {
  if (t_armed) {
    ++t_counts.count;
    t_counts.bytes += bytes;
  }
}

void* allocate(std::size_t bytes) {
  note(bytes);
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (void* p = std::malloc(bytes)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t bytes, std::align_val_t align) {
  note(bytes);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a whole multiple of the alignment.
  const std::size_t rounded = bytes == 0 ? a : (bytes + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

namespace bench {

void arm_alloc_counting() {
  t_counts = AllocCounts{};
  t_armed = true;
}

AllocCounts disarm_alloc_counting() {
  t_armed = false;
  return t_counts;
}

}  // namespace bench

void* operator new(std::size_t bytes) { return allocate(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return allocate_aligned(bytes, align);
}
