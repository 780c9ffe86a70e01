#include "mps/shm_comm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <new>
#include <sstream>
#include <utility>

#include "mps/backoff.hpp"
#include "util/assert.hpp"

namespace bruck::mps {

namespace {

constexpr std::uint64_t kShmMagic = 0x6272'7563'6b73'686dULL;  // "bruckshm"

constexpr std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

}  // namespace

// ---------------------------------------------------------------------------
// ShmSegment

ShmSegment ShmSegment::create_anonymous(std::size_t bytes) {
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  BRUCK_REQUIRE_MSG(mem != MAP_FAILED, "mmap(MAP_SHARED|MAP_ANONYMOUS) failed");
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  return seg;
}

ShmSegment ShmSegment::create_named(const std::string& name, std::size_t bytes) {
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  BRUCK_REQUIRE_MSG(fd >= 0, "shm_open(O_CREAT|O_EXCL) failed for " + name);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    BRUCK_REQUIRE_MSG(false, "ftruncate failed for shm segment " + name);
  }
  void* mem =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    BRUCK_REQUIRE_MSG(false, "mmap failed for shm segment " + name);
  }
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  seg.unlink_name_ = name;
  return seg;
}

ShmSegment ShmSegment::open_named(const std::string& name, std::size_t bytes) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
  BRUCK_REQUIRE_MSG(fd >= 0, "shm_open failed for " + name);
  void* mem =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  BRUCK_REQUIRE_MSG(mem != MAP_FAILED, "mmap failed for shm segment " + name);
  ShmSegment seg;
  seg.mem_ = mem;
  seg.bytes_ = bytes;
  return seg;
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : mem_(std::exchange(other.mem_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      unlink_name_(std::exchange(other.unlink_name_, {})) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    this->~ShmSegment();
    new (this) ShmSegment(std::move(other));
  }
  return *this;
}

ShmSegment::~ShmSegment() {
  if (mem_ != nullptr) ::munmap(mem_, bytes_);
  if (!unlink_name_.empty()) ::shm_unlink(unlink_name_.c_str());
}

// ---------------------------------------------------------------------------
// ShmComm

/// The shared control block at the front of a fabric region.  Everything a
/// rank needs to attach travels here, so openers pass only (region, rank).
struct ShmComm::Control {
  std::uint64_t magic;
  std::int64_t n;
  std::int32_t k;
  std::uint32_t record_trace;
  std::uint64_t ring_capacity;  ///< data bytes per ring (power of two)
  std::uint64_t ring_stride;    ///< 64-byte-aligned region bytes per ring
  std::int64_t recv_timeout_ms;
  alignas(64) std::atomic<std::uint64_t> barrier_arrived;
  alignas(64) std::atomic<std::uint64_t> barrier_generation;
  alignas(64) std::atomic<std::uint32_t> abort_flag;
};

std::size_t ShmComm::control_area_bytes() { return align64(sizeof(Control)); }

std::byte* ShmComm::ring_base(std::byte* region, const Control* c,
                              std::int64_t rank) {
  return region + control_area_bytes() +
         static_cast<std::size_t>(rank) * c->ring_stride;
}

std::size_t ShmComm::region_bytes(const ShmFabricOptions& options) {
  const std::size_t cap = MpscByteRing::round_up_capacity(options.ring_bytes);
  const std::size_t stride = align64(MpscByteRing::region_bytes(cap));
  return control_area_bytes() +
         static_cast<std::size_t>(options.n) * stride;
}

void ShmComm::init_region(void* region, const ShmFabricOptions& options) {
  BRUCK_REQUIRE(options.n >= 1);
  BRUCK_REQUIRE(options.k >= 1);
  BRUCK_REQUIRE_MSG(reinterpret_cast<std::uintptr_t>(region) % 64 == 0,
                    "shm fabric region must be 64-byte aligned");
  const std::size_t cap = MpscByteRing::round_up_capacity(options.ring_bytes);
  const std::size_t stride = align64(MpscByteRing::region_bytes(cap));
  auto* base = static_cast<std::byte*>(region);
  std::memset(base, 0, control_area_bytes());
  auto* c = new (base) Control;
  c->n = options.n;
  c->k = options.k;
  c->record_trace = options.record_trace ? 1 : 0;
  c->ring_capacity = cap;
  c->ring_stride = stride;
  c->recv_timeout_ms = options.recv_timeout.count();
  c->barrier_arrived.store(0, std::memory_order_relaxed);
  c->barrier_generation.store(0, std::memory_order_relaxed);
  c->abort_flag.store(0, std::memory_order_relaxed);
  for (std::int64_t r = 0; r < options.n; ++r) {
    (void)MpscByteRing::create(ring_base(base, c, r), cap);
  }
  // Published last: a named-segment opener spins on the magic before
  // touching anything else in the region.
  reinterpret_cast<std::atomic<std::uint64_t>*>(&c->magic)->store(
      kShmMagic, std::memory_order_release);
}

void ShmComm::abort_region(void* region) {
  auto* c = static_cast<Control*>(region);
  c->abort_flag.store(1, std::memory_order_release);
}

ShmComm::Control* ShmComm::control() const {
  return reinterpret_cast<Control*>(region_);
}

ShmComm::ShmComm(void* region, std::int64_t rank)
    : WirePortEngine([&] {
        // Wait for the initializer to publish the region (named-segment
        // openers may attach while init_region is still running).
        auto* c = static_cast<Control*>(region);
        const DrainDeadline deadline(std::chrono::milliseconds(10000));
        Backoff backoff;
        while (reinterpret_cast<std::atomic<std::uint64_t>*>(&c->magic)->load(
                   std::memory_order_acquire) != kShmMagic) {
          BRUCK_REQUIRE_MSG(!deadline.expired(),
                            "shm fabric region was never initialized");
          backoff.pause();
        }
        return c->n;
      }()),
      region_(static_cast<std::byte*>(region)),
      rank_(rank) {
  Control* c = control();
  n_ = c->n;
  k_ = c->k;
  record_trace_ = c->record_trace != 0;
  recv_timeout_ = std::chrono::milliseconds(c->recv_timeout_ms);
  BRUCK_REQUIRE(rank_ >= 0 && rank_ < n_);
  inbound_ = MpscByteRing::open(ring_base(region_, c, rank_));
  // Early arrivals and backpressure drains come out of the inbound ring;
  // twice its capacity (at least 1 MiB) covers what peers running a round
  // or two ahead leave in the stash.
  reserve_stash(std::max(2 * inbound_.capacity(), std::size_t{1} << 20));
  peer_ring_.reserve(static_cast<std::size_t>(n_));
  for (std::int64_t r = 0; r < n_; ++r) {
    peer_ring_.push_back(MpscByteRing::open(ring_base(region_, c, r)));
  }
}

void ShmComm::check_abort() const {
  BRUCK_REQUIRE_MSG(
      control()->abort_flag.load(std::memory_order_acquire) == 0,
      "shm fabric aborted: a peer rank exited abnormally");
}

void ShmComm::wire_push(const WireHeader& h,
                        std::span<const std::byte> payload) {
  RingFrame frame;
  frame.src = h.src;
  frame.seq = h.seq;
  frame.tag = h.tag;
  frame.round = h.round;
  MpscByteRing& ring = peer_ring_[static_cast<std::size_t>(h.dst)];
  if (ring.try_push(frame, payload)) return;
  // Backpressure: the destination ring is full.  Drain our own inbound ring
  // while waiting — two ranks pushing into each other's full rings must not
  // deadlock — and give the whole retry loop one deadline.
  ++full_ring_waits_;
  const DrainDeadline deadline(recv_timeout_);
  Backoff backoff;
  for (;;) {
    check_abort();
    bool drained = false;
    RingFrame in;
    std::span<const std::byte> bytes;
    while (inbound_.try_peek(in, bytes)) {
      defer_wire(WireHeader{in.src, rank_, in.seq, in.tag, in.round}, bytes);
      inbound_.consume();
      drained = true;
    }
    if (ring.try_push(frame, payload)) return;
    if (deadline.expired()) {
      std::ostringstream os;
      os << "rank " << rank_ << ": shm fabric send to rank " << h.dst
         << " (tag " << h.tag << ", round " << h.round
         << ") timed out after " << deadline.budget().count()
         << " ms: destination ring stayed full past the receive deadline "
            "(peer stuck?)";
      throw ContractViolation(os.str());
    }
    if (drained) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

bool ShmComm::take_one() {
  RingFrame frame;
  std::span<const std::byte> payload;
  if (!inbound_.try_peek(frame, payload)) return false;
  // The engine copies the record straight out of the ring into its landing
  // span; only then is the record zeroed and freed.
  on_wire(WireHeader{frame.src, rank_, frame.seq, frame.tag, frame.round},
          payload);
  inbound_.consume();
  return true;
}

bool ShmComm::wire_poll(std::span<const std::int64_t> waiting_srcs,
                        std::chrono::milliseconds timeout) {
  // Single inbound channel: the filter is unused (the engine stashes
  // messages from sources it is not yet waiting for).
  (void)waiting_srcs;
  if (take_one()) return true;
  if (timeout.count() == 0) return false;
  const DrainDeadline deadline(timeout);
  Backoff backoff;
  for (;;) {
    check_abort();
    if (take_one()) return true;
    if (deadline.expired()) return false;
    backoff.pause();
  }
}

void ShmComm::record_send_event(int round, std::int64_t dst,
                                std::int64_t bytes, int tag) {
  if (record_trace_) sink_.record_send(round, dst, bytes, tag);
}

void ShmComm::record_plan_event(const PlanEvent& event) {
  if (record_trace_) sink_.record_plan(event);
}

void ShmComm::barrier() {
  Control* c = control();
  const std::uint64_t generation =
      c->barrier_generation.load(std::memory_order_acquire);
  const std::uint64_t arrived =
      c->barrier_arrived.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<std::uint64_t>(n_)) {
    // Last arriver: reset the counter for the next generation, then release
    // everyone.  Waiters acquire the generation bump, which orders the
    // reset before any of their next-barrier arrivals.
    c->barrier_arrived.store(0, std::memory_order_relaxed);
    c->barrier_generation.fetch_add(1, std::memory_order_release);
    return;
  }
  const DrainDeadline deadline(recv_timeout_);
  Backoff backoff;
  while (c->barrier_generation.load(std::memory_order_acquire) == generation) {
    check_abort();
    BRUCK_REQUIRE_MSG(!deadline.expired(),
                      "shm fabric barrier timed out waiting for peers");
    backoff.pause();
  }
}

}  // namespace bruck::mps
