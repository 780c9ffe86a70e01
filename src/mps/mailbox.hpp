// Buffered per-destination mailbox.  Sends never block (the paper's model
// has no flow control below the round structure); receives block until the
// next message from the requested source arrives, with a timeout so that a
// deadlocked algorithm fails loudly instead of hanging the test binary.
//
// The nonblocking port engine completes receives in arrival order, so the
// mailbox also supports popping from *any* of a set of sources — both a
// nonblocking probe and a blocking wait.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "mps/message.hpp"

namespace bruck::mps {

/// FIFO of messages over one reused vector: after warm-up, push and pop
/// move messages without allocating (std::deque allocates and frees a node
/// every few elements).
class MessageFifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }

  void push(Message&& m) { items_.push_back(std::move(m)); }

  /// Remove and return the oldest message.  Precondition: !empty().
  Message pop() {
    Message m = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();  // keeps the capacity
      head_ = 0;
    } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
      // A queue that never fully drains still compacts.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return m;
  }

  [[nodiscard]] std::span<const Message> pending() const {
    return std::span<const Message>(items_).subspan(head_);
  }

 private:
  std::vector<Message> items_;
  std::size_t head_ = 0;
};

/// Thread safety: every method is internally synchronized on one mutex per
/// mailbox; `push` is wait-free with respect to receivers (sends never
/// block).  An atomic count of queued messages lets `try_pop_any` on an
/// empty mailbox return without taking the mutex its senders need, so a
/// receiver spinning on the probe does not slow them down.  Trace: the
/// mailbox records nothing — trace events are the sender's post-time
/// responsibility.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message (called from the sender's thread).  The message is
  /// moved in; payload buffers are never copied inside the mailbox.
  void push(Message m);

  /// Pop the oldest pending message from `src`; blocks up to `timeout`.
  /// Throws bruck::ContractViolation on timeout — a deadlock diagnostic,
  /// not a recoverable condition.
  [[nodiscard]] Message pop_from(std::int64_t src,
                                 std::chrono::milliseconds timeout);

  /// Pop the oldest pending message from whichever of `srcs` has one,
  /// without blocking.  Sources are probed in the given order (per-source
  /// FIFO is always preserved).  Empty optional if none has a message.
  [[nodiscard]] std::optional<Message> try_pop_any(
      std::span<const std::int64_t> srcs);

  /// Blocking try_pop_any: waits up to `timeout` for a message from any of
  /// `srcs`.  Empty optional on timeout (the caller owns the diagnostic —
  /// it knows which logical receives are outstanding).
  [[nodiscard]] std::optional<Message> pop_any(
      std::span<const std::int64_t> srcs, std::chrono::milliseconds timeout);

  /// Number of queued messages over all sources.
  [[nodiscard]] std::size_t pending() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Total payload bytes queued over all sources (diagnostics: how much
  /// data is buffered in-flight toward this rank).
  [[nodiscard]] std::size_t pending_bytes() const;

 private:
  /// Pop the oldest message among `srcs`, assuming mu_ is held.
  std::optional<Message> pop_any_locked(std::span<const std::int64_t> srcs);
  /// Pop the oldest message of `q` (mu_ held).
  Message pop_locked(MessageFifo& q);
  /// The queue of `src`, or null when nothing was ever pushed from it
  /// (mu_ held).
  [[nodiscard]] MessageFifo* queue(std::int64_t src);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Per-source FIFOs indexed by source rank, grown on first push.
  std::vector<MessageFifo> queues_;
  /// Messages queued over all sources; written only under mu_.
  std::atomic<std::size_t> queued_{0};
};

}  // namespace bruck::mps
