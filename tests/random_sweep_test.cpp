// Randomized property sweeps: beyond the hand-picked grids, draw random
// (n, r, k, b, segments) configurations from a fixed-seed generator and run
// the full three-way cross-check plus content verification on each: the
// executed plan's trace must equal the sched/ builder's schedule and the
// closed-form cost, whatever the wire segmentation and receive completion
// order.  Catches interactions the structured grids miss (odd n with odd
// radix and odd ports, blocks that are not multiples of anything, …).
#include <gtest/gtest.h>

#include "coll/api.hpp"
#include "model/costs.hpp"
#include "sched/builders_concat.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::ConcatAlgorithm;

/// The executed trace equals `built` round for round (the one-port
/// baselines build with k = 1 whatever the fabric's port count) and, for
/// nonzero blocks, the closed form.
void expect_specified(const testutil::CollRun& run, sched::Schedule built,
                      const model::CostMetrics& closed, std::int64_t b) {
  built.normalize();
  sched::Schedule executed = run.trace->to_schedule();
  executed.normalize();
  EXPECT_TRUE(executed.rounds() == built.rounds())
      << "executed trace diverges from the built schedule";
  if (b > 0) {
    EXPECT_EQ(executed.metrics(), closed);
  }
}

TEST(RandomSweep, IndexBruckConfigurations) {
  SplitMix64 rng(0xB10CC0DE);
  for (int trial = 0; trial < 80; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(31));
    const std::int64_t r =
        2 + static_cast<std::int64_t>(rng.next_below(
                static_cast<std::uint64_t>(std::max<std::int64_t>(1, n - 1))));
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(24));
    const int segments = 1 + static_cast<int>(rng.next_below(4));
    SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " k=" + std::to_string(k) + " b=" + std::to_string(b) +
                 " S=" + std::to_string(segments));

    coll::AlltoallOptions options =
        testutil::forced_index(coll::IndexAlgorithm::kBruck, r);
    options.segments = segments;
    const testutil::CollRun run = testutil::run_index(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::alltoall(comm, send, recv, b, options);
        },
        /*seed=*/rng.next());
    ASSERT_EQ(run.error, "");
    expect_specified(run, sched::build_index_bruck(n, r, k, b),
                     model::index_bruck_cost(n, r, k, b), b);
  }
}

TEST(RandomSweep, ConcatConfigurations) {
  SplitMix64 rng(0xCA7A106 + 1);
  const ConcatAlgorithm algorithms[] = {ConcatAlgorithm::kBruck,
                                        ConcatAlgorithm::kFolklore,
                                        ConcatAlgorithm::kRing};
  const model::ConcatLastRound strategies[] = {
      model::ConcatLastRound::kAuto, model::ConcatLastRound::kColumnGranular,
      model::ConcatLastRound::kTwoRound};
  for (int trial = 0; trial < 80; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(31));
    const int k = 1 + static_cast<int>(rng.next_below(5));
    const std::int64_t b = static_cast<std::int64_t>(rng.next_below(16));
    // kFolklore/kRing cover the idle-round tree/chain baselines: most ranks
    // sit out most rounds, and the executor must still count rounds exactly
    // as the builders do.
    const ConcatAlgorithm alg = algorithms[rng.next_below(3)];
    const model::ConcatLastRound strategy = strategies[rng.next_below(3)];
    const int segments = 1 + static_cast<int>(rng.next_below(4));
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " b=" + std::to_string(b) + " alg=" + coll::to_string(alg) +
                 " strat=" + std::to_string(static_cast<int>(strategy)) +
                 " S=" + std::to_string(segments));

    coll::AllgatherOptions options = testutil::forced_concat(alg, strategy);
    options.segments = segments;
    const testutil::CollRun run = testutil::run_concat(
        n, k, b,
        [&](mps::Communicator& comm, std::span<const std::byte> send,
            std::span<std::byte> recv) {
          return coll::allgather(comm, send, recv, b, options);
        },
        /*seed=*/rng.next());
    ASSERT_EQ(run.error, "");
    switch (alg) {
      case ConcatAlgorithm::kFolklore:
        expect_specified(run, sched::build_concat_folklore(n, b),
                         model::concat_folklore_cost(n, b), b);
        break;
      case ConcatAlgorithm::kRing:
        expect_specified(run, sched::build_concat_ring(n, b),
                         model::concat_ring_cost(n, b), b);
        break;
      default:
        expect_specified(run, sched::build_concat_bruck(n, k, b, strategy),
                         model::concat_bruck_cost(n, k, b, strategy), b);
        break;
    }
  }
}

TEST(RandomSweep, ComposedCollectivesShareOneFabric) {
  // Random chains: an index followed by a concat followed by an index on
  // the same communicator, rounds threaded through — everything must stay
  // correct and the merged trace valid.
  SplitMix64 rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t n = 3 + static_cast<std::int64_t>(rng.next_below(10));
    const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t r = 2 + static_cast<std::int64_t>(rng.next_below(
                                   static_cast<std::uint64_t>(n - 1)));
    const std::uint64_t seed = rng.next();
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      auto& err = errors[static_cast<std::size_t>(rank)];
      std::vector<std::byte> isend(static_cast<std::size_t>(n * b));
      std::vector<std::byte> irecv(isend.size());
      coll::fill_index_send(isend, n, rank, b, seed);
      coll::AlltoallOptions index;
      index.algorithm = coll::IndexAlgorithm::kBruck;
      index.radix = r;
      int round = coll::alltoall(comm, isend, irecv, b, index);
      err = coll::check_index_recv(irecv, n, rank, b, seed);
      if (!err.empty()) return;

      std::vector<std::byte> csend(static_cast<std::size_t>(b));
      std::vector<std::byte> crecv(static_cast<std::size_t>(n * b));
      coll::fill_concat_send(csend, rank, b, seed + 1);
      coll::AllgatherOptions concat;
      concat.algorithm = ConcatAlgorithm::kBruck;
      concat.start_round = round;
      round = coll::allgather(comm, csend, crecv, b, concat);
      err = coll::check_concat_recv(crecv, n, b, seed + 1);
      if (!err.empty()) return;

      coll::fill_index_send(isend, n, rank, b, seed + 2);
      index.radix = 2;
      index.start_round = round;
      coll::alltoall(comm, isend, irecv, b, index);
      err = coll::check_index_recv(irecv, n, rank, b, seed + 2);
    });
    for (const std::string& e : errors) {
      ASSERT_EQ(e, "") << "trial " << trial << " n=" << n;
    }
    ASSERT_EQ(rr.trace->to_schedule().validate(), "");
  }
}

}  // namespace
}  // namespace bruck
