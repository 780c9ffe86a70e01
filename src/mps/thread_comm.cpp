#include "mps/thread_comm.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "util/assert.hpp"

namespace bruck::mps {

std::optional<std::chrono::milliseconds> parse_recv_timeout_ms(
    const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;  // junk / trailing junk
  if (errno == ERANGE) return std::nullopt;  // overflowed, silently saturated
  if (v <= 0 || v > kMaxRecvTimeoutMs) return std::nullopt;
  return std::chrono::milliseconds(v);
}

std::chrono::milliseconds default_recv_timeout() {
  constexpr std::chrono::milliseconds kDefault{30000};
  const char* env = std::getenv("BRUCK_RECV_TIMEOUT_MS");
  if (env == nullptr) return kDefault;
  if (const auto parsed = parse_recv_timeout_ms(env)) return *parsed;
  // Warn once per process: a misconfigured timeout silently changes hang
  // behavior, but repeating the warning per fabric would drown test output.
  static std::once_flag warned;
  const long long default_ms = kDefault.count();
  std::call_once(warned, [env, default_ms] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_RECV_TIMEOUT_MS=\"%s\" "
                 "(want a positive integer <= %lld ms); using %lld ms\n",
                 env, kMaxRecvTimeoutMs, default_ms);
  });
  return kDefault;
}

Fabric::Fabric(const FabricOptions& options)
    : options_(options),
      trace_(options.n, options.k),
      barrier_(static_cast<std::ptrdiff_t>(options.n)) {
  BRUCK_REQUIRE(options_.n >= 1);
  BRUCK_REQUIRE(options_.k >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(options_.n));
  for (std::int64_t i = 0; i < options_.n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& Fabric::mailbox(std::int64_t rank) {
  BRUCK_REQUIRE(rank >= 0 && rank < options_.n);
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void Fabric::arrive_at_barrier() { barrier_.arrive_and_wait(); }

void Fabric::drop_from_barrier() { barrier_.arrive_and_drop(); }

ThreadComm::ThreadComm(Fabric& fabric, std::int64_t rank)
    : WirePortEngine(fabric.n()), fabric_(&fabric), rank_(rank) {
  BRUCK_REQUIRE(rank >= 0 && rank < fabric.n());
}

namespace {

/// Spare deposit buffers kept per rank: enough for every segment in flight
/// of a few concurrent collectives, while one burst cannot pin memory
/// forever.
constexpr std::size_t kMaxSpareBuffers = 64;

}  // namespace

void ThreadComm::wire_push(const WireHeader& h,
                           std::span<const std::byte> payload) {
  Message m;
  static_cast<WireHeader&>(m) = h;
  if (!spare_.empty()) {
    m.payload = std::move(spare_.back());
    spare_.pop_back();
  }
  m.payload.assign(payload.begin(), payload.end());
  fabric_->mailbox(h.dst).push(std::move(m));
}

bool ThreadComm::wire_poll(std::span<const std::int64_t> waiting_srcs,
                           std::chrono::milliseconds timeout) {
  Mailbox& box = fabric_->mailbox(rank_);
  std::optional<Message> m = timeout.count() == 0
                                 ? box.try_pop_any(waiting_srcs)
                                 : box.pop_any(waiting_srcs, timeout);
  if (!m.has_value()) return false;
  on_wire(*m, m->view());
  if (spare_.size() < kMaxSpareBuffers) {
    spare_.push_back(std::move(m->payload));
  }
  return true;
}

void ThreadComm::record_send_event(int round, std::int64_t dst,
                                   std::int64_t bytes, int tag) {
  if (fabric_->options().record_trace) {
    fabric_->trace().sink(rank_).record_send(round, dst, bytes, tag);
  }
}

void ThreadComm::barrier() { fabric_->arrive_at_barrier(); }

void ThreadComm::record_plan_event(const PlanEvent& event) {
  if (fabric_->options().record_trace) {
    fabric_->trace().sink(rank_).record_plan(event);
  }
}

}  // namespace bruck::mps
