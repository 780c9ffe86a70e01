// The port engine's wait policy: a rank thread bound to one CPU spins on
// the fabric's nonblocking probe before it parks, an unbound one parks at
// once, and a wait that times out names every pending receive's source,
// tag and round.  Also: the shm backpressure timeout's diagnostic, and a
// mailbox stress of senders against the lock-free empty check of the
// thread fabric's probe.
#include <gtest/gtest.h>

#include <sched.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mps/mailbox.hpp"
#include "mps/port_engine.hpp"
#include "mps/shm_comm.hpp"
#include "util/assert.hpp"

namespace bruck::mps {
namespace {

using namespace std::chrono_literals;

/// Rank 0 of a two-rank fabric whose only traffic is one 8-byte segment
/// from rank 1.  wire_poll counts probes (timeout 0) and parks (timeout >
/// 0); the segment arrives on the `deliver_after_probes`-th probe, or on a
/// park when `deliver_on_park` is set.  A park with nothing to deliver
/// sleeps out its timeout, as a fabric's blocking wait would.
class CountingEngine final : public WirePortEngine {
 public:
  struct Script {
    int deliver_after_probes = 0;  ///< 0: probes never deliver
    bool deliver_on_park = false;
    int tag = 0;
    int round = 0;
  };

  CountingEngine(const Script& script, std::chrono::milliseconds timeout)
      : WirePortEngine(2), script_(script), timeout_(timeout) {}

  [[nodiscard]] std::int64_t rank() const override { return 0; }
  [[nodiscard]] std::int64_t size() const override { return 2; }
  [[nodiscard]] int ports() const override { return 1; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const override {
    return timeout_;
  }
  void barrier() override {}

  int probes = 0;
  int parks = 0;

 protected:
  void wire_push(const WireHeader& /*h*/,
                 std::span<const std::byte> /*payload*/) override {}

  bool wire_poll(std::span<const std::int64_t> /*waiting_srcs*/,
                 std::chrono::milliseconds timeout) override {
    if (timeout.count() == 0) {
      ++probes;
      return probes == script_.deliver_after_probes && deliver();
    }
    ++parks;
    if (script_.deliver_on_park) return deliver();
    std::this_thread::sleep_for(timeout);
    return false;
  }

  void record_send_event(int /*round*/, std::int64_t /*dst*/,
                         std::int64_t /*bytes*/, int /*tag*/) override {}

 private:
  bool deliver() {
    if (delivered_) return false;
    delivered_ = true;
    const std::byte payload[8] = {};
    on_wire(WireHeader{1, 0, 0, script_.tag, script_.round}, payload);
    return true;
  }

  Script script_;
  std::chrono::milliseconds timeout_;
  bool delivered_ = false;
};

cpu_set_t current_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  BRUCK_ENSURE(::sched_getaffinity(0, sizeof(mask), &mask) == 0);
  return mask;
}

/// Binds the calling thread to the CPU it is running on (no migration) and
/// restores its previous mask on destruction.
class ScopedBindToCurrentCpu {
 public:
  ScopedBindToCurrentCpu() : saved_(current_mask()) {
    const int cpu = ::sched_getcpu();
    BRUCK_ENSURE(cpu >= 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    BRUCK_ENSURE(::sched_setaffinity(0, sizeof(one), &one) == 0);
  }
  ~ScopedBindToCurrentCpu() {
    ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedBindToCurrentCpu(const ScopedBindToCurrentCpu&) = delete;
  ScopedBindToCurrentCpu& operator=(const ScopedBindToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
};

TEST(PortWait, BoundWaitCompletesDuringTheSpinWithoutParking) {
  const cpu_set_t before = current_mask();
  constexpr int kProbes = 8;
  // A spin that is preempted past its budget legitimately parks; a few
  // attempts keep a loaded host from failing the test.
  int probes = 0;
  int parks = -1;
  for (int attempt = 0; attempt < 3 && parks != 0; ++attempt) {
    const ScopedBindToCurrentCpu bound;
    CountingEngine::Script script;
    script.deliver_after_probes = kProbes;
    script.deliver_on_park = true;
    CountingEngine engine(script, 10000ms);
    std::vector<std::byte> in(8);
    engine.wait_recv(engine.post_recv(0, 1, in));
    probes = engine.probes;
    parks = engine.parks;
  }
  EXPECT_EQ(parks, 0);
  EXPECT_EQ(probes, kProbes);
  const cpu_set_t after = current_mask();
  EXPECT_TRUE(CPU_EQUAL(&before, &after)) << "affinity mask not restored";
}

TEST(PortWait, UnboundWaitParksAtOnceWithoutProbing) {
  const cpu_set_t mask = current_mask();
  if (CPU_COUNT(&mask) < 2) {
    std::printf("only one CPU allowed: an unbound thread cannot be set up\n");
    return;
  }
  CountingEngine::Script script;
  script.deliver_after_probes = 1;
  script.deliver_on_park = true;
  CountingEngine engine(script, 10000ms);
  std::vector<std::byte> in(8);
  engine.wait_recv(engine.post_recv(0, 1, in));
  EXPECT_EQ(engine.probes, 0);
  EXPECT_EQ(engine.parks, 1);
}

TEST(PortWait, BoundWaitWithNoTrafficParksOnceThenNamesTheReceive) {
  const ScopedBindToCurrentCpu bound;
  constexpr auto kBudget = 100ms;
  CountingEngine::Script script;
  script.tag = 7;
  script.round = 3;
  CountingEngine engine(script, kBudget);
  std::vector<std::byte> in(8);
  const PortHandle h = engine.post_recv(3, 1, in, 1, 7);
  const auto start = std::chrono::steady_clock::now();
  std::string what;
  try {
    engine.wait_recv(h);
  } catch (const ContractViolation& e) {
    what = e.what();
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(what.empty()) << "the wait did not time out";
  EXPECT_GT(engine.probes, 0) << "a bound wait spins before it parks";
  EXPECT_EQ(engine.parks, 1);
  EXPECT_GE(elapsed_ms, (kBudget - 1ms).count());
  EXPECT_LT(elapsed_ms, (kBudget + 1000ms).count());
  EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("(src 1, tag 7, round 3)"), std::string::npos) << what;
}

TEST(PortWait, ShmBackpressureTimeoutNamesDestinationTagAndRound) {
  // Rank 1 never drains its 4 KiB inbound ring, so rank 0's sends fill it
  // and the next one waits out the deadline.
  ShmFabricOptions options;
  options.n = 2;
  options.ring_bytes = 4096;
  options.record_trace = false;
  options.recv_timeout = 100ms;
  ShmSegment region =
      ShmSegment::create_anonymous(ShmComm::region_bytes(options));
  ShmComm::init_region(region.data(), options);
  ShmComm comm(region.data(), 0);
  const std::vector<std::byte> payload(512);
  std::string what;
  int round = 0;
  try {
    for (; round < 64; ++round) comm.post_send(round, 1, payload, 1, 5);
  } catch (const ContractViolation& e) {
    what = e.what();
  }
  ASSERT_FALSE(what.empty()) << "a full ring never timed out";
  EXPECT_GT(comm.full_ring_waits(), 0u);
  EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("to rank 1 (tag 5, round " + std::to_string(round) +
                      ")"),
            std::string::npos)
      << what;
}

TEST(PortWait, MailboxPushRacesLockFreeEmptyProbe) {
  // Three senders push against one receiver that only probes: every message
  // arrives once, in per-source order, and the count ends at zero.
  constexpr int kSenders = 3;
  constexpr std::int64_t kPerSender = 4000;
  Mailbox box;
  std::vector<std::thread> senders;
  for (int s = 1; s <= kSenders; ++s) {
    senders.emplace_back([&box, s] {
      for (std::int64_t i = 0; i < kPerSender; ++i) {
        Message m;
        m.src = s;
        m.seq = i;
        m.payload.assign(8, static_cast<std::byte>(s));
        box.push(std::move(m));
      }
    });
  }
  const std::vector<std::int64_t> srcs = {1, 2, 3};
  std::vector<std::int64_t> next(kSenders + 1, 0);
  std::int64_t received = 0;
  bool in_order = true;
  // A probe that stopped seeing queued messages fails the test, not hangs it.
  const auto give_up = std::chrono::steady_clock::now() + 60s;
  while (received < kSenders * kPerSender &&
         std::chrono::steady_clock::now() < give_up) {
    std::optional<Message> m = box.try_pop_any(srcs);
    if (!m.has_value()) {
      std::this_thread::yield();
      continue;
    }
    in_order = in_order && m->seq == next[static_cast<std::size_t>(m->src)];
    ++next[static_cast<std::size_t>(m->src)];
    ++received;
  }
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(received, kSenders * kPerSender);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_FALSE(box.try_pop_any(srcs).has_value());
}

}  // namespace
}  // namespace bruck::mps
