#include "mps/mailbox.hpp"

#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace bruck::mps {

MessageFifo* Mailbox::queue(std::int64_t src) {
  if (src < 0 || src >= static_cast<std::int64_t>(queues_.size())) {
    return nullptr;
  }
  return &queues_[static_cast<std::size_t>(src)];
}

void Mailbox::push(Message m) {
  BRUCK_REQUIRE(m.src >= 0);
  {
    const std::scoped_lock lock(mu_);
    if (m.src >= static_cast<std::int64_t>(queues_.size())) {
      queues_.resize(static_cast<std::size_t>(m.src) + 1);
    }
    queues_[static_cast<std::size_t>(m.src)].push(std::move(m));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

Message Mailbox::pop_locked(MessageFifo& q) {
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return q.pop();
}

Message Mailbox::pop_from(std::int64_t src, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  const bool ok = cv_.wait_for(lock, timeout, [&] {
    const MessageFifo* q = queue(src);
    return q != nullptr && !q->empty();
  });
  if (!ok) {
    std::ostringstream os;
    os << "mailbox receive from rank " << src << " timed out after "
       << timeout.count() << " ms (deadlock or mismatched exchange?)";
    throw ContractViolation(os.str());
  }
  return pop_locked(*queue(src));
}

std::optional<Message> Mailbox::pop_any_locked(
    std::span<const std::int64_t> srcs) {
  for (const std::int64_t src : srcs) {
    MessageFifo* q = queue(src);
    if (q != nullptr && !q->empty()) return pop_locked(*q);
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::try_pop_any(
    std::span<const std::int64_t> srcs) {
  // Relaxed is enough: a push this load misses is simply not here yet (the
  // probe may miss a concurrent push), and a nonzero count sends us to the
  // mutex, which orders everything the pop reads.
  if (queued_.load(std::memory_order_relaxed) == 0) return std::nullopt;
  const std::scoped_lock lock(mu_);
  return pop_any_locked(srcs);
}

std::optional<Message> Mailbox::pop_any(std::span<const std::int64_t> srcs,
                                        std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  std::optional<Message> m = pop_any_locked(srcs);
  if (m.has_value()) return m;
  (void)cv_.wait_for(lock, timeout, [&] {
    m = pop_any_locked(srcs);
    return m.has_value();
  });
  return m;
}

std::size_t Mailbox::pending_bytes() const {
  const std::scoped_lock lock(mu_);
  std::size_t total = 0;
  for (const MessageFifo& q : queues_) {
    for (const Message& m : q.pending()) total += m.size_bytes();
  }
  return total;
}

}  // namespace bruck::mps
