// Three-way cross-check for the concatenation algorithms — the executed
// plan's trace == the independently built schedule == the closed-form cost
// metrics, with every delivered block verified — over every small geometry
// (n ≤ 12, k ≤ 4, every feasible last-round strategy) plus larger n, and
// execution-level verification of the Theorem 4.3 optimality claims.
#include <gtest/gtest.h>

#include <algorithm>

#include "coll/api.hpp"
#include "model/costs.hpp"
#include "model/lower_bounds.hpp"
#include "sched/builders_concat.hpp"
#include "test_util.hpp"
#include "util/math.hpp"

namespace bruck {
namespace {

using coll::ConcatAlgorithm;
using model::ConcatLastRound;

struct Case {
  ConcatAlgorithm algorithm;
  std::int64_t n;
  int k;
  std::int64_t b;
  ConcatLastRound strategy;  // Bruck only
};

std::string strategy_name(ConcatLastRound s) {
  switch (s) {
    case ConcatLastRound::kByteSplit: return "bytesplit";
    case ConcatLastRound::kColumnGranular: return "colgran";
    case ConcatLastRound::kTwoRound: return "tworound";
    case ConcatLastRound::kAuto: return "auto";
  }
  return "?";
}

std::string case_name(const Case& c) {
  std::string name = coll::to_string(c.algorithm) + "_n" +
                     std::to_string(c.n) + "_k" + std::to_string(c.k) + "_b" +
                     std::to_string(c.b);
  if (c.algorithm == ConcatAlgorithm::kBruck) {
    name += "_" + strategy_name(c.strategy);
  }
  return name;
}

/// Run the allgather facade with a forced algorithm on the thread fabric.
testutil::CollRun run_allgather(ConcatAlgorithm algorithm, std::int64_t n,
                                int k, std::int64_t b,
                                ConcatLastRound strategy) {
  const coll::AllgatherOptions options =
      testutil::forced_concat(algorithm, strategy);
  return testutil::run_concat(
      n, k, b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::allgather(comm, send, recv, b, options);
      });
}

class ConcatCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(ConcatCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const Case c = GetParam();
  const testutil::CollRun run =
      run_allgather(c.algorithm, c.n, c.k, c.b, c.strategy);
  ASSERT_EQ(run.error, "") << case_name(c);

  sched::Schedule built(c.n, c.k);
  model::CostMetrics closed;
  switch (c.algorithm) {
    case ConcatAlgorithm::kFolklore:
      built = sched::build_concat_folklore(c.n, c.b);
      closed = model::concat_folklore_cost(c.n, c.b);
      break;
    case ConcatAlgorithm::kRing:
      built = sched::build_concat_ring(c.n, c.b);
      closed = model::concat_ring_cost(c.n, c.b);
      break;
    default:
      built = sched::build_concat_bruck(c.n, c.k, c.b, c.strategy);
      closed = model::concat_bruck_cost(c.n, c.k, c.b, c.strategy);
      break;
  }
  built.normalize();
  // Rounds, not whole schedules: the one-port baselines build with k = 1
  // whatever the fabric's port count.
  const sched::Schedule executed = run.trace->to_schedule();
  EXPECT_TRUE(executed.rounds() == built.rounds())
      << "executed and built schedules differ for " << case_name(c);
  EXPECT_EQ(built.metrics(), closed) << case_name(c);
  EXPECT_EQ(executed.metrics(), closed) << case_name(c);
  EXPECT_EQ(run.rounds_used, closed.c1) << case_name(c);
}

std::vector<Case> grid() {
  std::vector<Case> cases;
  const auto add_bruck = [&](std::int64_t n, int k, std::int64_t b) {
    for (ConcatLastRound strategy :
         {ConcatLastRound::kAuto, ConcatLastRound::kColumnGranular,
          ConcatLastRound::kTwoRound}) {
      cases.push_back(Case{ConcatAlgorithm::kBruck, n, k, b, strategy});
    }
    if (model::concat_byte_split_feasible(n, k, b)) {
      cases.push_back(
          Case{ConcatAlgorithm::kBruck, n, k, b, ConcatLastRound::kByteSplit});
    }
  };
  const auto add_baselines = [&](std::int64_t n, int k, std::int64_t b) {
    cases.push_back(
        Case{ConcatAlgorithm::kFolklore, n, k, b, ConcatLastRound::kAuto});
    cases.push_back(
        Case{ConcatAlgorithm::kRing, n, k, b, ConcatLastRound::kAuto});
  };
  // Every small geometry.
  for (std::int64_t n = 1; n <= 12; ++n) {
    for (int k = 1; k <= 4; ++k) {
      for (std::int64_t b : {1, 3, 4}) add_bruck(n, k, b);
      for (std::int64_t b : {1, 6}) add_baselines(n, k, b);
    }
  }
  // Larger n.
  for (std::int64_t n : {13, 16, 17, 25, 27, 28, 32}) {
    for (int k = 1; k <= 4; ++k) {
      for (std::int64_t b : {1, 3, 4}) add_bruck(n, k, b);
    }
    add_baselines(n, 1, 6);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConcatCrossCheck, ::testing::ValuesIn(grid()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

// ---------------------------------------------------------------------------
// Theorem 4.3 at execution level: measured (not just predicted) C1 and C2
// meet the lower bounds wherever the paper claims optimality.

TEST(ConcatExecutedOptimality, MeetsBothLowerBoundsOutsideTheRange) {
  for (std::int64_t n = 2; n <= 30; ++n) {
    for (int k = 1; k <= 4; ++k) {
      for (std::int64_t b : {1, 2, 3}) {
        if (model::concat_paper_nonoptimal_range(n, k, b)) continue;
        const testutil::CollRun run = run_allgather(
            ConcatAlgorithm::kBruck, n, k, b, ConcatLastRound::kAuto);
        ASSERT_EQ(run.error, "");
        const model::CostMetrics m = run.trace->metrics();
        EXPECT_EQ(m.c1, model::concat_c1_lower_bound(n, k))
            << "n=" << n << " k=" << k << " b=" << b;
        EXPECT_EQ(m.c2, model::concat_c2_lower_bound(n, k, b))
            << "n=" << n << " k=" << k << " b=" << b;
      }
    }
  }
}

TEST(ConcatExecutedOptimality, Theorem41GrowthPhaseAccounting) {
  // Theorem 4.1: after the first d−1 rounds every node has received exactly
  // the n1 − 1 blocks preceding it, and the growth phase's C2 is the
  // optimal b(n1−1)/k.  Check both on the built schedule's round structure.
  for (std::int64_t n : {5, 9, 13, 17, 26, 27, 40, 64}) {
    for (int k : {1, 2, 3}) {
      const std::int64_t b = 4;
      const sched::Schedule s = sched::build_concat_bruck(
          n, k, b, ConcatLastRound::kColumnGranular);
      const int d = ceil_log(n, k + 1);
      const std::int64_t n1 = ipow(k + 1, d - 1);
      ASSERT_GE(static_cast<int>(s.round_count()), d - 1);
      std::vector<std::int64_t> received(static_cast<std::size_t>(n), 0);
      std::int64_t growth_c2 = 0;
      for (int i = 0; i + 1 < d; ++i) {
        std::int64_t round_max = 0;
        for (const sched::Transfer& t :
             s.rounds()[static_cast<std::size_t>(i)].transfers) {
          received[static_cast<std::size_t>(t.dst)] += t.bytes;
          round_max = std::max(round_max, t.bytes);
        }
        growth_c2 += round_max;
      }
      for (std::int64_t u = 0; u < n; ++u) {
        EXPECT_EQ(received[static_cast<std::size_t>(u)], b * (n1 - 1))
            << "node " << u << " n=" << n << " k=" << k;
      }
      EXPECT_EQ(growth_c2, b * (n1 - 1) / k)
          << "Theorem 4.1's optimal growth-phase volume; n=" << n
          << " k=" << k;
    }
  }
}

TEST(ConcatExecutedOptimality, BaselinesAreDominated) {
  // At k = 1, Bruck matches ring's C2 with exponentially fewer rounds and
  // matches folklore's round order with strictly less volume.
  for (std::int64_t n : {8, 16, 27, 32}) {
    const std::int64_t b = 4;
    const model::CostMetrics bruck = model::concat_bruck_cost(
        n, 1, b, ConcatLastRound::kAuto);
    const model::CostMetrics ring = model::concat_ring_cost(n, b);
    const model::CostMetrics folk = model::concat_folklore_cost(n, b);
    EXPECT_EQ(bruck.c2, ring.c2);
    EXPECT_LT(bruck.c1, ring.c1);
    EXPECT_LT(bruck.c1, folk.c1);
    EXPECT_LT(bruck.c2, folk.c2);
  }
}

}  // namespace
}  // namespace bruck
