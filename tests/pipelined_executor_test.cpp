// The plan executor over the nonblocking port engine, and the kReference
// oracle it is checked against.
//
// The executor must deliver the right payloads AND record exactly the trace
// the sched/ builder specifies — wire segmentation and out-of-order receive
// completion must be invisible above the transport.  Covered here: messages
// that really segment, the direct oracle behind ExecutionPath::kReference,
// the one receive budget per blocking call, idle-round tree-based
// baselines, the deferred engine fallback for wrapper communicators that
// only override exchange(), groups, segment tuning, and the
// drop_from_barrier exception-unwind path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "coll/verify.hpp"
#include "model/tuner.hpp"
#include "mps/group.hpp"
#include "mps/runtime.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck {
namespace {

using namespace std::chrono_literals;

using coll::AllgatherOptions;
using coll::AlltoallOptions;
using coll::ConcatAlgorithm;
using coll::ExecutionPath;
using coll::IndexAlgorithm;

// ---------------------------------------------------------------------------
// Segmentation: payloads verified, trace against the specification (the
// random sweeps over segment counts live in random_sweep_test).

TEST(PipelinedExecutor, LargeBlocksActuallySegmentOnTheWire) {
  // Small-b sweeps collapse to one wire segment under the executor's
  // model::kMinSegmentBytes floor; this configuration's messages (≥ 2
  // blocks of 16 KiB under radix 2) genuinely split, exercising segmented
  // landing, reassembly, and the one-logical-trace-event accounting.
  const std::int64_t n = 4;
  const int k = 2;
  const std::int64_t b = 16384;
  AlltoallOptions options;
  options.algorithm = IndexAlgorithm::kBruck;
  options.radix = 2;
  options.segments = 4;
  const testutil::CollRun run = testutil::run_index(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, b, options);
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule executed = run.trace->to_schedule();
  sched::Schedule built = sched::build_index_bruck(n, 2, k, b);
  executed.normalize();
  built.normalize();
  EXPECT_TRUE(executed == built);
  EXPECT_EQ(executed.metrics(), model::index_bruck_cost(n, 2, k, b));
}

// ---------------------------------------------------------------------------
// The kReference oracle follows no algorithm: whatever algorithm, radix or
// last round the options name, every family runs the same direct per-pair
// exchange of b-byte messages — index_direct's schedule — and delivers the
// right payloads.

TEST(ReferenceOracle, FollowsNoAlgorithm) {
  const std::int64_t b = 8;  // one i64 element per reduce-scatter block
  for (const std::int64_t n : {5, 8}) {
    for (const int k : {1, 2}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      sched::Schedule expected = sched::build_index_direct(n, k, b);
      expected.normalize();
      const model::CostMetrics direct = model::index_direct_cost(n, k, b);
      const auto expect_direct = [&](const mps::Trace& trace,
                                     const std::string& what) {
        sched::Schedule executed = trace.to_schedule();
        executed.normalize();
        EXPECT_TRUE(executed == expected) << what;
        EXPECT_EQ(trace.metrics(), direct) << what;
      };

      std::vector<AlltoallOptions> index_variants;
      for (const std::int64_t r : {2, 3}) {
        AlltoallOptions o;
        o.algorithm = IndexAlgorithm::kBruck;
        o.radix = r;
        index_variants.push_back(o);
      }
      for (const IndexAlgorithm a :
           {IndexAlgorithm::kDirect, IndexAlgorithm::kPairwise,
            IndexAlgorithm::kAuto}) {
        if (a == IndexAlgorithm::kPairwise && !is_pow2(n)) continue;
        AlltoallOptions o;
        o.algorithm = a;
        index_variants.push_back(o);
      }
      for (AlltoallOptions o : index_variants) {
        o.path = ExecutionPath::kReference;
        const std::string what =
            "alltoall " + coll::to_string(o.algorithm) + " r=" +
            std::to_string(o.radix);
        const testutil::CollRun run = testutil::run_index(
            n, k, b,
            [&](mps::Communicator& comm, std::span<const std::byte> send,
                std::span<std::byte> recv) {
              return coll::alltoall(comm, send, recv, b, o);
            });
        EXPECT_EQ(run.error, "") << what;
        expect_direct(*run.trace, what);
      }

      for (const ConcatAlgorithm a :
           {ConcatAlgorithm::kBruck, ConcatAlgorithm::kFolklore,
            ConcatAlgorithm::kRing, ConcatAlgorithm::kAuto}) {
        for (const model::ConcatLastRound s :
             {model::ConcatLastRound::kAuto,
              model::ConcatLastRound::kByteSplit,
              model::ConcatLastRound::kColumnGranular,
              model::ConcatLastRound::kTwoRound}) {
          AllgatherOptions o;
          o.algorithm = a;
          o.last_round = s;
          o.path = ExecutionPath::kReference;
          const std::string what = "allgather " + coll::to_string(a) +
                                   " last_round=" +
                                   std::to_string(static_cast<int>(s));
          const testutil::CollRun run = testutil::run_concat(
              n, k, b,
              [&](mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv) {
                return coll::allgather(comm, send, recv, b, o);
              });
          EXPECT_EQ(run.error, "") << what;
          expect_direct(*run.trace, what);
        }
      }

      for (const coll::ReduceAlgorithm a :
           {coll::ReduceAlgorithm::kBruck, coll::ReduceAlgorithm::kDirect,
            coll::ReduceAlgorithm::kPairwise, coll::ReduceAlgorithm::kAuto}) {
        if (a == coll::ReduceAlgorithm::kPairwise && !is_pow2(n)) continue;
        coll::ReduceScatterOptions o;
        o.algorithm = a;
        o.radix = 3;
        o.path = ExecutionPath::kReference;
        const std::string what = "reduce_scatter " + coll::to_string(a);
        // Rank i contributes i·100 + j + 1 to rank j.
        std::vector<std::int64_t> got(static_cast<std::size_t>(n), -1);
        const mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator&
                                                              comm) {
          std::vector<std::int64_t> send(static_cast<std::size_t>(n));
          for (std::int64_t j = 0; j < n; ++j) {
            send[static_cast<std::size_t>(j)] = comm.rank() * 100 + j + 1;
          }
          std::int64_t recv = 0;
          coll::reduce_scatter(
              comm, std::as_bytes(std::span(send)),
              std::as_writable_bytes(std::span(&recv, 1)), b,
              coll::ReduceOp::sum(coll::ReduceElem::kI64), o);
          got[static_cast<std::size_t>(comm.rank())] = recv;
        });
        for (std::int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(got[static_cast<std::size_t>(j)],
                    100 * n * (n - 1) / 2 + n * (j + 1))
              << what << " rank " << j;
        }
        expect_direct(*rr.trace, what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One receive budget per blocking call: a collective whose receives each
// arrive well within the budget, but which together take longer, must time
// out after about one budget instead of resetting the clock per receive.

TEST(PipelinedExecutor, BlockingCallSharesOneReceiveBudget) {
  const std::int64_t n = 5;  // direct exchange: 4 rounds, one receive each
  const std::int64_t b = 8;
  const auto budget = 500ms;
  const auto gap = 200ms;  // each receive arrives 0.4 budgets after the last
  mps::FabricOptions fabric;
  fabric.n = n;
  fabric.k = 1;
  fabric.recv_timeout = budget;
  std::string error;
  std::chrono::milliseconds elapsed{0};
  const auto t0 = std::chrono::steady_clock::now();
  mps::run_spmd(fabric, [&](mps::Communicator& comm) {
    if (comm.rank() != 0) {
      // A slow peer: rank 0 receives from rank n − j in round j − 1, so
      // rank p's message is the (n − p)-th to arrive.
      const std::int64_t j = n - comm.rank();
      std::this_thread::sleep_until(t0 + j * gap);
      const std::vector<std::byte> payload(static_cast<std::size_t>(b));
      comm.post_send(static_cast<int>(j - 1), 0, payload);
      return;
    }
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size());
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kDirect;
    try {
      coll::alltoall(comm, send, recv, b, options);
    } catch (const ContractViolation& e) {
      error = e.what();
    }
    elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
  });
  EXPECT_NE(error.find("timed out"), std::string::npos)
      << "the call outlived its budget: " << error;
  // About one budget (the deadline rounds to whole milliseconds), with
  // slack for a loaded machine but well short of a second budget.
  EXPECT_GE(elapsed, budget - 50ms);
  EXPECT_LT(elapsed, 2 * budget);
}

// ---------------------------------------------------------------------------
// Idle-round baselines: in folklore most ranks are idle in most rounds, and
// several rounds at leaf ranks carry a send with no receive.  The executor
// must thread the declared round indices through identically.

TEST(PipelinedExecutor, FolkloreIdleRoundsKeepRoundAccounting) {
  for (const std::int64_t n : {5, 8, 13}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    AllgatherOptions options;
    options.algorithm = ConcatAlgorithm::kFolklore;
    options.path = ExecutionPath::kPipelined;
    options.segments = 2;
    const testutil::CollRun run = testutil::run_concat(
        n, 1, 8,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, 8, options);
        });
    ASSERT_EQ(run.error, "");
    EXPECT_EQ(run.trace->metrics(),
              model::concat_folklore_cost(n, 8));
  }
}

// ---------------------------------------------------------------------------
// Wrapper communicators: a subclass that only overrides exchange() (the
// pre-port-engine extension point) must still work under the executor via
// the deferred fallback engine.

class PassthroughComm final : public mps::Communicator {
 public:
  explicit PassthroughComm(Communicator& inner) : inner_(&inner) {}
  [[nodiscard]] std::int64_t rank() const override { return inner_->rank(); }
  [[nodiscard]] std::int64_t size() const override { return inner_->size(); }
  [[nodiscard]] int ports() const override { return inner_->ports(); }
  void barrier() override { inner_->barrier(); }
  void record_plan_event(const mps::PlanEvent& e) override {
    inner_->record_plan_event(e);
  }
  void exchange(int round, std::span<const mps::SendSpec> sends,
                std::span<const mps::RecvSpec> recvs) override {
    ++exchanges_;
    inner_->exchange(round, sends, recvs);
  }
  [[nodiscard]] int exchanges() const { return exchanges_; }

 private:
  Communicator* inner_;
  int exchanges_ = 0;
};

TEST(PipelinedExecutor, DeferredFallbackDrivesExchangeOnlyWrappers) {
  const std::int64_t n = 9;
  const std::int64_t b = 16;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::atomic<int> exchanges{0};
  mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    PassthroughComm wrapped(comm);
    std::vector<std::byte> send(static_cast<std::size_t>(n * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, n, comm.rank(), b, 99);
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 2;
    options.path = ExecutionPath::kPipelined;
    options.segments = 3;  // wrapper fabric: engine falls back symmetrically
    coll::alltoall(wrapped, send, recv, b, options);
    errors[static_cast<std::size_t>(comm.rank())] =
        coll::check_index_recv(recv, n, comm.rank(), b, 99);
    exchanges.fetch_add(wrapped.exchanges());
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
  EXPECT_GT(exchanges.load(), 0);  // the fallback really went through exchange
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
}

// ---------------------------------------------------------------------------
// Groups: the engine forwards through GroupComm with rank translation, so
// a collective inside a subset of the machine stays correct.

TEST(PipelinedExecutor, RunsInsideProcessGroups) {
  const std::int64_t n = 8;
  const std::int64_t b = 8;
  const std::vector<std::int64_t> members = {1, 3, 4, 6};
  std::vector<std::string> errors(members.size());
  mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t me = comm.rank();
    if (std::find(members.begin(), members.end(), me) == members.end()) return;
    mps::GroupComm group(comm, members);
    const std::int64_t gn = group.size();
    std::vector<std::byte> send(static_cast<std::size_t>(gn * b));
    std::vector<std::byte> recv(send.size(), std::byte{0xEE});
    coll::fill_index_send(send, gn, group.rank(), b, 7);
    AlltoallOptions options;
    options.algorithm = IndexAlgorithm::kBruck;
    options.radix = 2;
    options.path = ExecutionPath::kPipelined;
    options.segments = 2;
    coll::alltoall(group, send, recv, b, options);
    errors[static_cast<std::size_t>(group.rank())] =
        coll::check_index_recv(recv, gn, group.rank(), b, 7);
  });
  for (const std::string& e : errors) ASSERT_EQ(e, "");
}

// ---------------------------------------------------------------------------
// Exception unwind: a rank that dies mid-collective must drop from the
// barrier and surface its exception; survivors hit the engine's receive
// timeout instead of hanging.

TEST(PipelinedExecutor, RankFailureUnwindsWithoutHanging) {
  const std::int64_t n = 6;
  const std::int64_t b = 8;
  mps::FabricOptions fabric;
  fabric.n = n;
  fabric.k = 2;
  fabric.recv_timeout = 300ms;
  EXPECT_THROW(
      mps::run_spmd(fabric,
                    [&](mps::Communicator& comm) {
                      if (comm.rank() == 2) {
                        throw ContractViolation("rank 2 gives up");
                      }
                      std::vector<std::byte> send(
                          static_cast<std::size_t>(n * b), std::byte{1});
                      std::vector<std::byte> recv(send.size());
                      AlltoallOptions options;
                      options.algorithm = IndexAlgorithm::kBruck;
                      options.radix = 2;
                      options.path = ExecutionPath::kPipelined;
                      coll::alltoall(comm, send, recv, b, options);
                      comm.barrier();  // unreached: the collective times out
                    }),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// The segment tuner and its keying.

TEST(SegmentTuning, SmallMessagesStayUnsegmented) {
  const model::LinearModel m = model::ibm_sp1();
  EXPECT_EQ(model::pick_segment_count(m, 10, 64).segments, 1);
  EXPECT_EQ(model::pick_segment_count(m, 10, 4096).segments, 1);
}

TEST(SegmentTuning, LargeMessagesSplitAndRespectTheCap) {
  const model::LinearModel m = model::ibm_sp1();
  const model::SegmentChoice big = model::pick_segment_count(m, 4, 1 << 20);
  EXPECT_GT(big.segments, 1);
  EXPECT_LE(big.segments, 16);
  // The pick must actually be the modeled minimum over the candidate set.
  for (int s = 1; s <= 16; ++s) {
    EXPECT_LE(big.predicted_us,
              4 * model::pipelined_round_us(m, 1 << 20, s) + 1e-9);
  }
}

TEST(SegmentTuning, SegmentCountIsPartOfThePlanKey) {
  const coll::PlanKey one =
      coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2, 1);
  const coll::PlanKey four =
      coll::index_plan_key(IndexAlgorithm::kBruck, 8, 2, 2, 4);
  EXPECT_FALSE(one == four);
  coll::PlanCache cache;
  EXPECT_FALSE(cache.get_or_lower(one).cache_hit);
  EXPECT_FALSE(cache.get_or_lower(four).cache_hit);  // distinct entries
  EXPECT_TRUE(cache.get_or_lower(four).cache_hit);
  EXPECT_EQ(cache.get_or_lower(four).plan->segments(), 4);
}

// ---------------------------------------------------------------------------
// The BRUCK_RECV_TIMEOUT_MS environment override (sanitizer CI jobs run
// 10-20x slower; they raise the deadlock timeout without code changes).

TEST(RecvTimeoutEnv, OverridesTheFabricDefault) {
  // Restore the caller's value afterwards: the TSan CI job sets this for
  // the whole binary, and later tests must keep seeing it.
  const char* prior_raw = std::getenv("BRUCK_RECV_TIMEOUT_MS");
  const std::string prior = prior_raw ? prior_raw : "";

  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "123456", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 123456ms);
  EXPECT_EQ(mps::FabricOptions{}.recv_timeout, 123456ms);
  // Garbage and non-positive values fall back to the built-in default.
  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "not-a-number", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);
  ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", "-5", 1), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);
  ASSERT_EQ(unsetenv("BRUCK_RECV_TIMEOUT_MS"), 0);
  EXPECT_EQ(mps::default_recv_timeout(), 30000ms);

  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("BRUCK_RECV_TIMEOUT_MS", prior.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace bruck
