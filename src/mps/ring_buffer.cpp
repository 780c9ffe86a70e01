#include "mps/ring_buffer.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"

namespace bruck::mps {

namespace {

constexpr std::size_t kRecordAlign = 8;

constexpr std::size_t align_up(std::size_t v) {
  return (v + (kRecordAlign - 1)) & ~(kRecordAlign - 1);
}

}  // namespace

std::size_t MpscByteRing::region_bytes(std::size_t capacity) {
  BRUCK_REQUIRE_MSG(std::has_single_bit(capacity),
                    "ring capacity must be a power of two");
  return sizeof(Control) + capacity;
}

std::size_t MpscByteRing::round_up_capacity(std::size_t wanted) {
  const std::size_t floor = 4096;
  return std::bit_ceil(wanted < floor ? floor : wanted);
}

MpscByteRing MpscByteRing::create(void* region, std::size_t capacity) {
  BRUCK_REQUIRE_MSG(std::has_single_bit(capacity),
                    "ring capacity must be a power of two");
  BRUCK_REQUIRE_MSG(reinterpret_cast<std::uintptr_t>(region) % 64 == 0,
                    "ring region must be 64-byte aligned");
  // Zero everything first: the empty-vs-unpublished discipline relies on
  // free space reading as zero commit words.
  std::memset(region, 0, region_bytes(capacity));
  MpscByteRing ring;
  ring.ctl_ = new (region) Control;
  ring.ctl_->capacity = capacity;
  ring.ctl_->tail.store(0, std::memory_order_relaxed);
  ring.ctl_->head.store(0, std::memory_order_relaxed);
  ring.ctl_->pending_payload.store(0, std::memory_order_relaxed);
  ring.data_ = static_cast<std::byte*>(region) + sizeof(Control);
  ring.capacity_ = capacity;
  // The magic is published last: attach-side open() spins on it when racing
  // a named-segment creator.
  reinterpret_cast<std::atomic<std::uint64_t>*>(&ring.ctl_->magic)
      ->store(kMagic, std::memory_order_release);
  return ring;
}

MpscByteRing MpscByteRing::open(void* region) {
  MpscByteRing ring;
  ring.ctl_ = static_cast<Control*>(region);
  const std::uint64_t magic =
      reinterpret_cast<std::atomic<std::uint64_t>*>(&ring.ctl_->magic)
          ->load(std::memory_order_acquire);
  BRUCK_REQUIRE_MSG(magic == kMagic, "ring region not initialized");
  ring.data_ = static_cast<std::byte*>(region) + sizeof(Control);
  ring.capacity_ = static_cast<std::size_t>(ring.ctl_->capacity);
  return ring;
}

std::size_t MpscByteRing::max_payload_bytes() const {
  // A record must leave room for itself plus a worst-case pad on one lap.
  return capacity_ / 2 - sizeof(RecordHeader);
}

bool MpscByteRing::try_push(const RingFrame& frame,
                            std::span<const std::byte> payload) {
  const std::size_t total =
      align_up(sizeof(RecordHeader) + payload.size());
  BRUCK_REQUIRE_MSG(
      payload.size() <= max_payload_bytes(),
      "wire segment larger than the shm ring (raise BRUCK_SHM_RING_BYTES)");
  std::uint64_t t = ctl_->tail.load(std::memory_order_relaxed);
  std::uint64_t pad = 0;
  for (;;) {
    const std::uint64_t pos = t & (capacity_ - 1);
    const std::uint64_t to_end = capacity_ - pos;
    pad = to_end < total ? to_end : 0;
    const std::uint64_t head = ctl_->head.load(std::memory_order_acquire);
    if (t + pad + total - head > capacity_) return false;  // full
    if (ctl_->tail.compare_exchange_weak(t, t + pad + total,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
      break;
    }
    // t was reloaded by the failed CAS; recompute pad/space.
  }
  const std::uint64_t pos = t & (capacity_ - 1);
  if (pad != 0) {
    // Publish the tail-gap pad record; the real record starts at offset 0.
    // The pad region beyond its commit word is already zero (consumer
    // zeroes on free), so nothing else to write.
    header_at(pos)->commit.store(static_cast<std::uint32_t>(pad) | kPadFlag,
                                 std::memory_order_release);
  }
  const std::uint64_t slot = pad != 0 ? 0 : pos;
  RecordHeader* h = header_at(slot);
  h->payload_bytes = static_cast<std::uint32_t>(payload.size());
  h->src = frame.src;
  h->seq = frame.seq;
  h->tag = frame.tag;
  h->round = frame.round;
  if (!payload.empty()) {
    std::memcpy(data_ + slot + sizeof(RecordHeader), payload.data(),
                payload.size());
  }
  ctl_->pending_payload.fetch_add(payload.size(), std::memory_order_relaxed);
  h->commit.store(static_cast<std::uint32_t>(total),
                  std::memory_order_release);
  return true;
}

bool MpscByteRing::try_peek(RingFrame& frame,
                            std::span<const std::byte>& payload) {
  for (;;) {
    const std::uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    if (head == ctl_->tail.load(std::memory_order_acquire)) return false;
    const std::uint64_t slot = head & (capacity_ - 1);
    RecordHeader* h = header_at(slot);
    const std::uint32_t commit = h->commit.load(std::memory_order_acquire);
    if (commit == 0) return false;  // oldest record still being written
    const std::uint64_t total = commit & ~kPadFlag;
    if ((commit & kPadFlag) != 0) {
      // Tail-gap pad: zero it and advance to the next lap.
      std::memset(data_ + slot, 0, static_cast<std::size_t>(total));
      ctl_->head.store(head + total, std::memory_order_release);
      continue;
    }
    frame.src = h->src;
    frame.seq = h->seq;
    frame.tag = h->tag;
    frame.round = h->round;
    payload = std::span<const std::byte>(data_ + slot + sizeof(RecordHeader),
                                         h->payload_bytes);
    peek_head_ = head;
    peek_total_ = total;
    peek_payload_ = h->payload_bytes;
    return true;
  }
}

void MpscByteRing::consume() {
  BRUCK_REQUIRE_MSG(peek_total_ != 0, "consume() without a peeked record");
  ctl_->pending_payload.fetch_sub(peek_payload_, std::memory_order_relaxed);
  // Zero before freeing: the next lap's producers must find zero commit
  // words anywhere in the region they reserve.
  std::memset(data_ + (peek_head_ & (capacity_ - 1)), 0,
              static_cast<std::size_t>(peek_total_));
  ctl_->head.store(peek_head_ + peek_total_, std::memory_order_release);
  peek_total_ = 0;
}

bool MpscByteRing::try_pop(Message& out) {
  RingFrame frame;
  std::span<const std::byte> payload;
  if (!try_peek(frame, payload)) return false;
  out.src = frame.src;
  out.seq = frame.seq;
  out.tag = frame.tag;
  out.round = frame.round;
  out.payload.assign(payload.begin(), payload.end());
  consume();
  return true;
}

std::size_t MpscByteRing::pending_bytes() const {
  return static_cast<std::size_t>(
      ctl_->pending_payload.load(std::memory_order_relaxed));
}

}  // namespace bruck::mps
