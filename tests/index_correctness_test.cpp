// End-to-end content correctness of the index (alltoall) algorithms on the
// threaded substrate: the local phases, block-size edges and larger n than
// the index_crosscheck_test grid (which verifies every n ≤ 12 payload and
// trace), and algebraic properties.
#include <gtest/gtest.h>

#include "coll/api.hpp"
#include "coll/blocks.hpp"
#include "test_util.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::IndexAlgorithm;
using testutil::forced_index;
using testutil::run_index;

// ---------------------------------------------------------------------------
// Local phases in isolation.

TEST(Blocks, RotateUpMatchesAppendixALines3And4) {
  // tmp slot x = out block (x + rank) mod n.
  const std::int64_t n = 5, b = 2;
  std::vector<std::byte> src(static_cast<std::size_t>(n * b));
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i);
  std::vector<std::byte> dst(src.size());
  coll::rotate_blocks_up(coll::ConstBlockSpan(src, n, b),
                         coll::BlockSpan(dst, n, b), 3);
  for (std::int64_t x = 0; x < n; ++x) {
    for (std::int64_t o = 0; o < b; ++o) {
      EXPECT_EQ(dst[static_cast<std::size_t>(x * b + o)],
                src[static_cast<std::size_t>(pos_mod(x + 3, n) * b + o)]);
    }
  }
}

TEST(Blocks, UnrotateByRankInvertsPhaseOneAfterFullRotation) {
  // If every slot s traveled distance s (what Phase 2 accomplishes), then
  // Phase 3 at rank d recovers: recv block i = value from source i.
  const std::int64_t n = 7, b = 3, rank = 4;
  // Build the post-phase-2 buffer at rank `rank`: slot s holds the block
  // that source (rank − s) addressed to `rank`.
  std::vector<std::byte> tmp(static_cast<std::size_t>(n * b));
  coll::BlockSpan tmp_blocks(tmp, n, b);
  for (std::int64_t s = 0; s < n; ++s) {
    fill_payload(tmp_blocks.block(s), 1, pos_mod(rank - s, n), rank);
  }
  std::vector<std::byte> out(tmp.size());
  coll::unrotate_by_rank(coll::ConstBlockSpan(tmp, n, b),
                         coll::BlockSpan(out, n, b), rank);
  coll::BlockSpan out_blocks(out, n, b);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t o = 0; o < b; ++o) {
      EXPECT_EQ(out_blocks.block(i)[static_cast<std::size_t>(o)],
                payload_byte(1, i, rank, static_cast<std::size_t>(o)));
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized end-to-end sweeps.

struct Case {
  IndexAlgorithm algorithm;
  std::int64_t n;
  std::int64_t radix;  // Bruck only
  int k;
  std::int64_t b;
};

class IndexSweep : public ::testing::TestWithParam<Case> {};

TEST_P(IndexSweep, DeliversEveryBlockToItsDestination) {
  const Case c = GetParam();
  const coll::AlltoallOptions options = forced_index(c.algorithm, c.radix);
  const testutil::CollRun run =
      run_index(c.n, c.k, c.b, [&](mps::Communicator& comm,
                                   std::span<const std::byte> send,
                                   std::span<std::byte> recv) {
        return coll::alltoall(comm, send, recv, c.b, options);
      });
  EXPECT_EQ(run.error, "");
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::int64_t n : {24, 25, 33}) {
    for (std::int64_t radix : {std::int64_t{2}, std::int64_t{4},
                               std::int64_t{7}, n}) {
      for (int k : {1, 3}) {
        out.push_back(Case{IndexAlgorithm::kBruck, n, radix, k, 4});
      }
    }
  }
  // Block-size edge cases on a fixed topology.
  for (std::int64_t b : {0, 1, 2, 9, 64}) {
    out.push_back(Case{IndexAlgorithm::kBruck, 6, 2, 1, b});
    out.push_back(Case{IndexAlgorithm::kBruck, 6, 3, 2, b});
    out.push_back(Case{IndexAlgorithm::kDirect, 9, 0, 2, b});
    out.push_back(Case{IndexAlgorithm::kPairwise, 8, 0, 3, b});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexSweep, ::testing::ValuesIn(cases()),
                         [](const auto& pinfo) {
                           const Case& c = pinfo.param;
                           return coll::to_string(c.algorithm) + "_n" +
                                  std::to_string(c.n) + "_r" +
                                  std::to_string(c.radix) + "_k" +
                                  std::to_string(c.k) + "_b" +
                                  std::to_string(c.b);
                         });

TEST(IndexPairwise, RejectsNonPowerOfTwo) {
  EXPECT_THROW(
      run_index(6, 1, 4,
                [&](mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv) {
                  return coll::alltoall(
                      comm, send, recv, 4,
                      forced_index(IndexAlgorithm::kPairwise));
                }),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Properties.

TEST(IndexProperty, AppliedTwiceIsIdentity) {
  // The index operation is an involution on the n×n block matrix:
  // (B[i,j] → B[j,i]) twice restores the original placement.
  for (std::int64_t n : {2, 5, 8, 12}) {
    const std::int64_t b = 6;
    const std::int64_t radix = std::min<std::int64_t>(3, n);
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, 1, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> original(static_cast<std::size_t>(n * b));
      coll::fill_index_send(original, n, rank, b, 99);
      std::vector<std::byte> once(original.size());
      std::vector<std::byte> twice(original.size());
      const int next =
          coll::alltoall(comm, original, once, b,
                         forced_index(IndexAlgorithm::kBruck, radix));
      coll::alltoall(comm, once, twice, b,
                     forced_index(IndexAlgorithm::kBruck, radix, next));
      if (twice != original) {
        errors[static_cast<std::size_t>(rank)] = "involution violated";
      }
    });
    for (const std::string& e : errors) EXPECT_EQ(e, "") << "n=" << n;
  }
}

TEST(IndexProperty, AllAlgorithmsProduceIdenticalOutput) {
  for (std::int64_t n : {4, 8, 16}) {
    const std::int64_t b = 5;
    std::vector<int> mismatches(static_cast<std::size_t>(n), 0);
    mps::run_spmd(n, 2, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send(static_cast<std::size_t>(n * b));
      coll::fill_index_send(send, n, rank, b, 5);
      std::vector<std::byte> a(send.size()), c(send.size()), d(send.size()),
          oracle(send.size());
      int next = coll::alltoall(comm, send, a, b,
                                forced_index(IndexAlgorithm::kBruck, 2));
      next = coll::alltoall(comm, send, c, b,
                            forced_index(IndexAlgorithm::kDirect, 0, next));
      next = coll::alltoall(comm, send, d, b,
                            forced_index(IndexAlgorithm::kPairwise, 0, next));
      coll::AlltoallOptions reference =
          forced_index(IndexAlgorithm::kAuto, 0, next);
      reference.path = coll::ExecutionPath::kReference;
      coll::alltoall(comm, send, oracle, b, reference);
      if (a != c || a != d || a != oracle) {
        mismatches[static_cast<std::size_t>(rank)] = 1;
      }
    });
    for (int m : mismatches) EXPECT_EQ(m, 0) << "n=" << n;
  }
}

TEST(IndexBruck, RejectsBadRadix) {
  EXPECT_THROW(
      run_index(4, 1, 4,
                [&](mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv) {
                  return coll::alltoall(
                      comm, send, recv, 4,
                      forced_index(IndexAlgorithm::kBruck, 1));
                }),
      ContractViolation);
  EXPECT_THROW(
      run_index(4, 1, 4,
                [&](mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv) {
                  return coll::alltoall(
                      comm, send, recv, 4,
                      forced_index(IndexAlgorithm::kBruck, 5));
                }),
      ContractViolation);
}

TEST(IndexBruck, StartRoundOffsetsTrace) {
  const testutil::CollRun run = run_index(
      4, 1, 2,
      [&](mps::Communicator& comm, std::span<const std::byte> send,
          std::span<std::byte> recv) {
        // Begin at round 3; the trace must still validate (rounds 0..2 would
        // be empty, so the algorithm must be the only round user).
        std::vector<std::byte> warm_out(1, std::byte{1});
        std::vector<std::byte> warm_in(1);
        const std::int64_t peer = comm.rank() ^ 1;
        comm.send_and_recv(0, warm_out, peer, warm_in, peer);
        comm.send_and_recv(1, warm_out, peer, warm_in, peer);
        comm.send_and_recv(2, warm_out, peer, warm_in, peer);
        return coll::alltoall(comm, send, recv, 2,
                              forced_index(IndexAlgorithm::kBruck, 2, 3));
      });
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.rounds_used, 3 + 2);  // 3 warm-up + ceil(log2 4) rounds
}

}  // namespace
}  // namespace bruck
