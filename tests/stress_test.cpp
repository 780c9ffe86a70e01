// Heavier configurations: many ports, larger rank counts, k-port groups,
// and long collective chains — the configurations most likely to expose
// races or port-accounting slips in the substrate.
#include <gtest/gtest.h>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "mps/group.hpp"
#include "mps/runtime.hpp"
#include "sched/builders_index.hpp"
#include "test_util.hpp"

namespace bruck {
namespace {

using coll::IndexAlgorithm;
using testutil::forced_index;

TEST(Stress, ManyPortsIndex) {
  // k = 8 ports on 24 ranks: whole subphases collapse into single rounds.
  const testutil::CollRun run = testutil::run_index(
      24, 8, 16,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, 16,
                              forced_index(IndexAlgorithm::kBruck, 9));
      });
  ASSERT_EQ(run.error, "");
  sched::Schedule built = sched::build_index_bruck(24, 9, 8, 16);
  built.normalize();
  EXPECT_TRUE(run.trace->to_schedule() == built);
  EXPECT_EQ(run.rounds_used, model::index_bruck_cost(24, 9, 8, 16).c1);
}

TEST(Stress, PortsExceedPeers) {
  // k ≥ n−1: the direct exchange finishes in one round.
  const testutil::CollRun run = testutil::run_index(
      6, 8, 32,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, 32,
                              forced_index(IndexAlgorithm::kDirect));
      });
  ASSERT_EQ(run.error, "");
  EXPECT_EQ(run.trace->metrics().c1, 1);
}

TEST(Stress, FortyRanksLargeBlocks) {
  const testutil::CollRun run = testutil::run_index(
      40, 2, 512,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, 512,
                              forced_index(IndexAlgorithm::kBruck, 3));
      });
  ASSERT_EQ(run.error, "");
  EXPECT_EQ(run.trace->metrics(), model::index_bruck_cost(40, 3, 2, 512));
}

TEST(Stress, KPortGroupsSideBySide) {
  // Two 8-member groups on one 16-rank fabric, each running a k = 3 index
  // with different radices, simultaneously.
  const std::int64_t b = 8;
  std::vector<std::string> errors(16);
  mps::RunResult rr = mps::run_spmd(16, 3, [&](mps::Communicator& comm) {
    const std::int64_t me = comm.rank();
    std::vector<std::int64_t> members;
    for (std::int64_t r = me % 2; r < 16; r += 2) members.push_back(r);
    mps::GroupComm group(comm, members);
    const std::int64_t gn = group.size();
    const std::int64_t radix = me % 2 == 0 ? 4 : 8;
    std::vector<std::byte> send(static_cast<std::size_t>(gn * b));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, gn, group.rank(), b,
                          static_cast<std::uint64_t>(100 + me % 2));
    coll::alltoall(group, send, recv, b,
                   forced_index(IndexAlgorithm::kBruck, radix));
    errors[static_cast<std::size_t>(me)] = coll::check_index_recv(
        recv, gn, group.rank(), b, static_cast<std::uint64_t>(100 + me % 2));
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
}

TEST(Stress, LongCollectiveChain) {
  // Twenty collectives back to back on one fabric, alternating operations
  // and radices, rounds threaded throughout.
  const std::int64_t n = 10;
  const std::int64_t b = 8;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    auto& err = errors[static_cast<std::size_t>(rank)];
    int round = 0;
    for (int step = 0; step < 20 && err.empty(); ++step) {
      const auto seed = static_cast<std::uint64_t>(1000 + step);
      if (step % 2 == 0) {
        std::vector<std::byte> send(static_cast<std::size_t>(n * b));
        std::vector<std::byte> recv(send.size());
        coll::fill_index_send(send, n, rank, b, seed);
        round = coll::alltoall(
            comm, send, recv, b,
            forced_index(IndexAlgorithm::kBruck, 2 + (step % 3), round));
        err = coll::check_index_recv(recv, n, rank, b, seed);
      } else {
        std::vector<std::byte> send(static_cast<std::size_t>(b));
        std::vector<std::byte> recv(static_cast<std::size_t>(n * b));
        coll::fill_concat_send(send, rank, b, seed);
        coll::AllgatherOptions options;
        options.algorithm = coll::ConcatAlgorithm::kBruck;
        options.start_round = round;
        round = coll::allgather(comm, send, recv, b, options);
        err = coll::check_concat_recv(recv, n, b, seed);
      }
    }
  });
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_EQ(rr.trace->to_schedule().validate(), "");
  EXPECT_GT(rr.trace->event_count(), 100u);
}

TEST(Stress, AutoApiAtModeratelyLargeScale) {
  const testutil::CollRun run = testutil::run_index(
      32, 1, 200,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, 200);
      });
  EXPECT_EQ(run.error, "");
}

}  // namespace
}  // namespace bruck
