// TimedComm: the traced run's view into the port-engine layer.
//
// A decorator over any mps::Communicator.  It forwards every virtual to the
// wrapped communicator unchanged and adds the duration of each port-engine
// call (and each send's bytes and wire segments) to a running tally.
// PlanEvents reported by the collective executors are tallied on their way
// through record_plan_event and then forwarded, so the fabric's own trace
// still receives them.
//
// Forwarding native_port_engine() matters: a wrapper that reported false
// would silently drop the progress engine to its serial tag-0 FIFO, and the
// traced run would measure a different program (bench_report --self-check
// asserts ProgressStats::serial_fallback stays 0 through the wrapper).
//
// Same single-thread contract as the communicator it wraps.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mps/communicator.hpp"
#include "mps/port_engine.hpp"

namespace bench {

/// The port-engine entry points TimedComm times.
enum class PortCall : std::uint8_t {
  kPostSend,  ///< post_send (both overloads)
  kPostRecv,  ///< post_recv, post_recv_buffer, take_payload
  kWait,      ///< wait_recv, wait_any_recv(_within), wait_all_recvs
  kPoll,      ///< test_recv, poll_any_recv
  kOther,     ///< exchange, barrier
};
inline constexpr std::size_t kPortCallKinds = 5;

/// Everything TimedComm saw since the last take().
struct CommTally {
  std::array<std::int64_t, kPortCallKinds> port_ns{};
  std::int64_t sends = 0;
  std::int64_t send_bytes = 0;
  std::int64_t segments = 0;  ///< effective wire segments over all sends
  std::int64_t plan_rounds = 0;
  std::int64_t bytes_reduced = 0;
  double plan_wall_us = 0.0;

  [[nodiscard]] std::int64_t port_total_ns() const {
    std::int64_t total = 0;
    for (const std::int64_t ns : port_ns) total += ns;
    return total;
  }
};

class TimedComm final : public bruck::mps::Communicator {
 public:
  using PortHandle = bruck::mps::PortHandle;

  explicit TimedComm(bruck::mps::Communicator& inner) : inner_(inner) {}

  /// Hand over the tally and start a fresh one.
  CommTally take() { return std::exchange(tally_, CommTally{}); }

  [[nodiscard]] std::int64_t rank() const override { return inner_.rank(); }
  [[nodiscard]] std::int64_t size() const override { return inner_.size(); }
  [[nodiscard]] int ports() const override { return inner_.ports(); }

  void post_send(int round, std::int64_t dst, std::span<const std::byte> data,
                 int segments = 1, int tag = 0) override {
    const std::int64_t t0 = now_ns();
    const auto bytes = static_cast<std::int64_t>(data.size());
    inner_.post_send(round, dst, data, segments, tag);
    record(PortCall::kPostSend, t0, bytes,
           bruck::mps::effective_wire_segments(bytes, segments));
  }
  void post_send(int round, std::int64_t dst, std::vector<std::byte>&& data,
                 int segments = 1, int tag = 0) override {
    const std::int64_t t0 = now_ns();
    const auto bytes = static_cast<std::int64_t>(data.size());
    inner_.post_send(round, dst, std::move(data), segments, tag);
    record(PortCall::kPostSend, t0, bytes,
           bruck::mps::effective_wire_segments(bytes, segments));
  }
  PortHandle post_recv(int round, std::int64_t src, std::span<std::byte> data,
                       int segments = 1, int tag = 0) override {
    const std::int64_t t0 = now_ns();
    const PortHandle h = inner_.post_recv(round, src, data, segments, tag);
    record(PortCall::kPostRecv, t0);
    return h;
  }
  PortHandle post_recv_buffer(int round, std::int64_t src, std::int64_t bytes,
                              int segments = 1, int tag = 0) override {
    const std::int64_t t0 = now_ns();
    const PortHandle h =
        inner_.post_recv_buffer(round, src, bytes, segments, tag);
    record(PortCall::kPostRecv, t0);
    return h;
  }
  std::vector<std::byte> take_payload(PortHandle h) override {
    const std::int64_t t0 = now_ns();
    std::vector<std::byte> payload = inner_.take_payload(h);
    record(PortCall::kPostRecv, t0);
    return payload;
  }
  bool test_recv(PortHandle h) override {
    const std::int64_t t0 = now_ns();
    const bool done = inner_.test_recv(h);
    record(PortCall::kPoll, t0);
    return done;
  }
  void wait_recv(PortHandle h) override {
    const std::int64_t t0 = now_ns();
    inner_.wait_recv(h);
    record(PortCall::kWait, t0);
  }
  PortHandle wait_any_recv() override {
    const std::int64_t t0 = now_ns();
    const PortHandle h = inner_.wait_any_recv();
    record(PortCall::kWait, t0);
    return h;
  }
  PortHandle wait_any_recv_within(
      const bruck::mps::DrainDeadline& deadline) override {
    const std::int64_t t0 = now_ns();
    const PortHandle h = inner_.wait_any_recv_within(deadline);
    record(PortCall::kWait, t0);
    return h;
  }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return inner_.recv_timeout();
  }
  void wait_all_recvs() override {
    const std::int64_t t0 = now_ns();
    inner_.wait_all_recvs();
    record(PortCall::kWait, t0);
  }
  std::optional<PortHandle> poll_any_recv() override {
    const std::int64_t t0 = now_ns();
    const std::optional<PortHandle> h = inner_.poll_any_recv();
    record(PortCall::kPoll, t0);
    return h;
  }
  [[nodiscard]] int allocate_collective_tag() override {
    return inner_.allocate_collective_tag();
  }
  void release_tag(int tag) override { inner_.release_tag(tag); }
  [[nodiscard]] bool native_port_engine() const override {
    return inner_.native_port_engine();
  }
  void exchange(int round, std::span<const bruck::mps::SendSpec> sends,
                std::span<const bruck::mps::RecvSpec> recvs) override {
    const std::int64_t t0 = now_ns();
    inner_.exchange(round, sends, recvs);
    record(PortCall::kOther, t0);
  }
  void barrier() override {
    const std::int64_t t0 = now_ns();
    inner_.barrier();
    record(PortCall::kOther, t0);
  }
  void record_plan_event(const bruck::mps::PlanEvent& event) override {
    tally_.plan_rounds += event.rounds;
    tally_.bytes_reduced += event.bytes_reduced;
    tally_.plan_wall_us += event.wall_us;
    inner_.record_plan_event(event);
  }

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  /// Add the call that started at `t0` to the tally; `bytes` and `segments`
  /// describe a post_send.
  void record(PortCall call, std::int64_t t0, std::int64_t bytes = 0,
              int segments = 0) {
    tally_.port_ns[static_cast<std::size_t>(call)] += now_ns() - t0;
    if (call == PortCall::kPostSend) {
      ++tally_.sends;
      tally_.send_bytes += bytes;
      tally_.segments += segments;
    }
  }

  bruck::mps::Communicator& inner_;
  CommTally tally_;
};

}  // namespace bench
