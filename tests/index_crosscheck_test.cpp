// The three-way cross-check for the index algorithms: the executed plan's
// trace == the independently built schedule == the closed-form cost
// metrics, with every delivered block verified, over every small geometry
// (n ≤ 12, k ≤ 4, every radix) plus larger n.  This is the repo's primary
// anti-bug device (DESIGN.md §4).
#include <gtest/gtest.h>

#include "coll/api.hpp"
#include "model/costs.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"
#include "util/math.hpp"
#include "util/radix.hpp"

namespace bruck {
namespace {

using coll::IndexAlgorithm;

struct Case {
  IndexAlgorithm algorithm;
  std::int64_t n;
  std::int64_t radix;  // Bruck only
  int k;
  std::int64_t b;
};

std::string case_name(const Case& c) {
  return coll::to_string(c.algorithm) + "_n" + std::to_string(c.n) + "_r" +
         std::to_string(c.radix) + "_k" + std::to_string(c.k) + "_b" +
         std::to_string(c.b);
}

class IndexCrossCheck : public ::testing::TestWithParam<Case> {};

TEST_P(IndexCrossCheck, TraceEqualsScheduleEqualsClosedForm) {
  const Case c = GetParam();
  const coll::AlltoallOptions options =
      testutil::forced_index(c.algorithm, c.radix);
  const testutil::CollRun run = testutil::run_index(
      c.n, c.k, c.b,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, c.b, options);
      });
  ASSERT_EQ(run.error, "") << case_name(c);

  sched::Schedule built(c.n, c.k);
  model::CostMetrics closed;
  switch (c.algorithm) {
    case IndexAlgorithm::kDirect:
      built = sched::build_index_direct(c.n, c.k, c.b);
      closed = model::index_direct_cost(c.n, c.k, c.b);
      break;
    case IndexAlgorithm::kPairwise:
      built = sched::build_index_pairwise(c.n, c.k, c.b);
      closed = model::index_pairwise_cost(c.n, c.k, c.b);
      break;
    default:
      built = sched::build_index_bruck(c.n, c.radix, c.k, c.b);
      closed = model::index_bruck_cost(c.n, c.radix, c.k, c.b);
      break;
  }
  built.normalize();
  const sched::Schedule executed = run.trace->to_schedule();
  EXPECT_TRUE(executed == built)
      << "executed and built schedules differ for " << case_name(c);
  EXPECT_EQ(built.metrics(), closed) << case_name(c);
  EXPECT_EQ(executed.metrics(), closed) << case_name(c);
  // The reported round usage equals C1.
  EXPECT_EQ(run.rounds_used, closed.c1) << case_name(c);
}

std::vector<Case> grid() {
  std::vector<Case> cases;
  const auto add_direct_and_pairwise = [&](std::int64_t n, int k,
                                           std::int64_t b) {
    cases.push_back(Case{IndexAlgorithm::kDirect, n, 0, k, b});
    if (is_pow2(n)) {
      cases.push_back(Case{IndexAlgorithm::kPairwise, n, 0, k, b});
    }
  };
  // Every small geometry: every radix, direct, and pairwise where valid.
  for (std::int64_t n = 1; n <= 12; ++n) {
    for (int k = 1; k <= 4; ++k) {
      for (std::int64_t r = 2; r <= std::max<std::int64_t>(2, n); ++r) {
        cases.push_back(Case{IndexAlgorithm::kBruck, n, r, k, 3});
      }
      add_direct_and_pairwise(n, k, 3);
    }
  }
  // Larger n: the classic radices.
  for (std::int64_t n : {13, 16, 17, 27, 31, 32}) {
    for (int k : {1, 2, 4, 5}) {
      for (std::int64_t r : {std::int64_t{2}, std::int64_t{3},
                             std::int64_t{5}, n}) {
        cases.push_back(Case{IndexAlgorithm::kBruck, n, r, k, 3});
      }
      add_direct_and_pairwise(n, k, 2);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, IndexCrossCheck, ::testing::ValuesIn(grid()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

// ---------------------------------------------------------------------------
// Schedule-level claims of Section 3.2 that need no execution.

TEST(BuiltSchedules, BruckRadixTwoRoundCountIsOptimal) {
  for (std::int64_t n = 2; n <= 64; ++n) {
    const sched::Schedule s = sched::build_index_bruck(n, 2, 1, 1);
    EXPECT_EQ(static_cast<std::int64_t>(s.round_count()), ceil_log(n, 2));
    EXPECT_EQ(s.validate(), "");
  }
}

TEST(BuiltSchedules, MessageSizeNeverExceedsMaxCensusBlocks) {
  // Exact per-message cap is b·radix_max_census(n, r); the paper's looser
  // ⌈n/r⌉ holds whenever n is a power of r (see util/radix.hpp).
  for (std::int64_t n : {5, 12, 16, 27, 64}) {
    for (std::int64_t r : {std::int64_t{2}, std::int64_t{3}, std::int64_t{8}, n}) {
      if (r > n) continue;
      const std::int64_t b = 4;
      const sched::Schedule s = sched::build_index_bruck(n, r, 1, b);
      for (const auto& round : s.rounds()) {
        for (const auto& t : round.transfers) {
          EXPECT_LE(t.bytes, b * radix_max_census(n, r))
              << "n=" << n << " r=" << r;
        }
      }
      if (ipow(r, ceil_log(n, r)) == n) {
        EXPECT_LE(radix_max_census(n, r), ceil_div(n, r));
      }
    }
  }
}

TEST(BuiltSchedules, EveryRankSendsAndReceivesSameTotals) {
  // The index pattern is perfectly symmetric: every rank moves the same
  // number of bytes in and out.
  const sched::Schedule s = sched::build_index_bruck(13, 3, 2, 7);
  std::vector<std::int64_t> sent(13, 0), recv(13, 0);
  for (const auto& round : s.rounds()) {
    for (const auto& t : round.transfers) {
      sent[static_cast<std::size_t>(t.src)] += t.bytes;
      recv[static_cast<std::size_t>(t.dst)] += t.bytes;
    }
  }
  for (std::size_t i = 1; i < 13; ++i) {
    EXPECT_EQ(sent[i], sent[0]);
    EXPECT_EQ(recv[i], recv[0]);
  }
  EXPECT_EQ(sent[0], recv[0]);
}

TEST(BuiltSchedules, EmptyForDegenerateInputs) {
  EXPECT_EQ(sched::build_index_bruck(1, 2, 1, 4).round_count(), 0u);
  EXPECT_EQ(sched::build_index_bruck(5, 2, 1, 0).round_count(), 0u);
  EXPECT_EQ(sched::build_index_direct(1, 1, 4).round_count(), 0u);
  EXPECT_EQ(sched::build_index_pairwise(1, 1, 4).round_count(), 0u);
}

}  // namespace
}  // namespace bruck
