// End-to-end content correctness of the concatenation (allgather)
// algorithms: block-size edges and larger n than the concat_crosscheck_test
// grid (which verifies every n ≤ 12 payload and trace), the paper's
// non-optimal range, and cross-algorithm agreement.
#include <gtest/gtest.h>

#include "coll/api.hpp"
#include "model/costs.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"

namespace bruck {
namespace {

using coll::ConcatAlgorithm;
using model::ConcatLastRound;
using testutil::forced_concat;
using testutil::run_concat;

/// Run the allgather facade with a forced algorithm on the thread fabric.
testutil::CollRun run_allgather(std::int64_t n, int k, std::int64_t b,
                                const coll::AllgatherOptions& options) {
  return run_concat(n, k, b,
                    [&](mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv) {
                      return coll::allgather(comm, send, recv, b, options);
                    });
}

struct Case {
  ConcatAlgorithm algorithm;
  std::int64_t n;
  int k;
  std::int64_t b;
  ConcatLastRound strategy;
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
  return coll::to_string(c.algorithm) + "_n" + std::to_string(c.n) + "_k" +
         std::to_string(c.k) + "_b" + std::to_string(c.b) + "_" +
         strategy_name(c.strategy);
}

class ConcatSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ConcatSweep, EveryRankEndsWithTheFullConcatenation) {
  const Case c = GetParam();
  const testutil::CollRun run =
      run_allgather(c.n, c.k, c.b, forced_concat(c.algorithm, c.strategy));
  EXPECT_EQ(run.error, "") << case_name(c);
}

std::vector<Case> concat_cases() {
  std::vector<Case> cases;
  for (std::int64_t n : {15, 20, 26, 31, 33}) {
    for (int k : {1, 2, 3, 4}) {
      for (ConcatLastRound strategy :
           {ConcatLastRound::kAuto, ConcatLastRound::kColumnGranular,
            ConcatLastRound::kTwoRound}) {
        cases.push_back(Case{ConcatAlgorithm::kBruck, n, k, 3, strategy});
      }
      // Explicit byte-split wherever it is feasible.
      if (model::concat_byte_split_feasible(n, k, 3)) {
        cases.push_back(Case{ConcatAlgorithm::kBruck, n, k, 3,
                             ConcatLastRound::kByteSplit});
      }
    }
    cases.push_back(
        Case{ConcatAlgorithm::kFolklore, n, 1, 4, ConcatLastRound::kAuto});
    cases.push_back(
        Case{ConcatAlgorithm::kRing, n, 1, 4, ConcatLastRound::kAuto});
  }
  // Block-size edges, including b larger than anything the partition splits.
  for (std::int64_t b : {0, 1, 2, 5, 17, 33, 64}) {
    cases.push_back(
        Case{ConcatAlgorithm::kBruck, 10, 2, b, ConcatLastRound::kAuto});
    cases.push_back(
        Case{ConcatAlgorithm::kBruck, 7, 3, b, ConcatLastRound::kTwoRound});
    cases.push_back(Case{ConcatAlgorithm::kBruck, 5, 4, b,
                         ConcatLastRound::kColumnGranular});
    cases.push_back(
        Case{ConcatAlgorithm::kFolklore, 9, 1, b, ConcatLastRound::kAuto});
    cases.push_back(
        Case{ConcatAlgorithm::kRing, 6, 1, b, ConcatLastRound::kAuto});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConcatSweep,
                         ::testing::ValuesIn(concat_cases()),
                         [](const auto& pinfo) { return case_name(pinfo.param); });

// The paper's non-optimal range, executed: every strategy that claims
// feasibility must still deliver correct contents there.
TEST(ConcatBruck, NonoptimalRangeContentsCorrect) {
  int cases = 0;
  for (std::int64_t n = 2; n <= 40; ++n) {
    for (int k = 3; k <= 4; ++k) {
      const std::int64_t b = 3;
      if (!model::concat_paper_nonoptimal_range(n, k, b)) continue;
      ++cases;
      for (ConcatLastRound strategy :
           {ConcatLastRound::kAuto, ConcatLastRound::kColumnGranular,
            ConcatLastRound::kTwoRound}) {
        const testutil::CollRun run = run_allgather(
            n, k, b, forced_concat(ConcatAlgorithm::kBruck, strategy));
        EXPECT_EQ(run.error, "")
            << "n=" << n << " k=" << k << " " << strategy_name(strategy);
      }
    }
  }
  EXPECT_GT(cases, 3);
}

TEST(ConcatBruck, ByteSplitStrategyThrowsWhereInfeasible) {
  // n = 3, k = 3, b = 3 is infeasible for the byte-split partition.
  ASSERT_FALSE(model::concat_byte_split_feasible(3, 3, 3));
  EXPECT_THROW(run_allgather(3, 3, 3,
                             forced_concat(ConcatAlgorithm::kBruck,
                                    ConcatLastRound::kByteSplit)),
               ContractViolation);
}

TEST(ConcatProperty, AllAlgorithmsProduceIdenticalOutput) {
  for (std::int64_t n : {5, 9, 16}) {
    const std::int64_t b = 7;
    std::vector<int> mismatches(static_cast<std::size_t>(n), 0);
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send(static_cast<std::size_t>(b));
      coll::fill_concat_send(send, rank, b, 31);
      std::vector<std::byte> a(static_cast<std::size_t>(n * b));
      std::vector<std::byte> c(a.size());
      std::vector<std::byte> d(a.size());
      std::vector<std::byte> oracle(a.size());
      constexpr ConcatLastRound kAuto = ConcatLastRound::kAuto;
      int next = coll::allgather(comm, send, a, b,
                                 forced_concat(ConcatAlgorithm::kBruck));
      next = coll::allgather(
          comm, send, c, b,
          forced_concat(ConcatAlgorithm::kFolklore, kAuto, next));
      next = coll::allgather(comm, send, d, b,
                             forced_concat(ConcatAlgorithm::kRing, kAuto, next));
      coll::AllgatherOptions reference =
          forced_concat(ConcatAlgorithm::kAuto, kAuto, next);
      reference.path = coll::ExecutionPath::kReference;
      coll::allgather(comm, send, oracle, b, reference);
      if (a != c || a != d || a != oracle) {
        mismatches[static_cast<std::size_t>(rank)] = 1;
      }
    });
    for (int m : mismatches) EXPECT_EQ(m, 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace bruck
