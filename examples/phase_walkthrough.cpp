// Reproduces the paper's walk-through figures on n = 5 processors:
//
//  * Fig. 1: memory-processor configurations before/after the index
//    operation,
//  * Fig. 2: the three phases of the index algorithm,
//  * Fig. 3: the Phase-2 subphases for the C1-optimal radix r = 2,
//  * Fig. 9: the one-port concatenation, round by round.
//
// Blocks carry the paper's "ij" labels (block j of processor i) as 2-byte
// payloads so the printed grids can be compared against the figures
// directly.
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "mps/runtime.hpp"
#include "util/assert.hpp"

namespace {

constexpr std::int64_t kN = 5;
constexpr std::int64_t kB = 2;  // payload "ij": two ASCII characters

using Grid = std::vector<std::vector<std::string>>;  // [rank][slot]

std::vector<std::byte> label_block(std::int64_t i, std::int64_t j) {
  return {static_cast<std::byte>('0' + i), static_cast<std::byte>('0' + j)};
}

std::string read_label(std::span<const std::byte> block) {
  std::string s;
  for (std::byte v : block) s += static_cast<char>(v);
  return s;
}

void print_grid(const std::string& title, const Grid& grid) {
  std::cout << title << '\n';
  std::cout << "        ";
  for (std::int64_t p = 0; p < kN; ++p) std::cout << " P" << p << " ";
  std::cout << '\n';
  for (std::int64_t slot = 0; slot < kN; ++slot) {
    std::cout << "  slot " << slot << ' ';
    for (std::int64_t p = 0; p < kN; ++p) {
      std::cout << ' ' << grid[static_cast<std::size_t>(p)]
                             [static_cast<std::size_t>(slot)] << ' ';
    }
    std::cout << '\n';
  }
  std::cout << '\n';
}

/// Collect each rank's buffer labels into a printable grid.
Grid snapshot(const std::vector<std::vector<std::byte>>& buffers) {
  Grid grid(kN, std::vector<std::string>(kN));
  for (std::int64_t p = 0; p < kN; ++p) {
    for (std::int64_t slot = 0; slot < kN; ++slot) {
      grid[static_cast<std::size_t>(p)][static_cast<std::size_t>(slot)] =
          read_label(std::span<const std::byte>(
              buffers[static_cast<std::size_t>(p)].data() + slot * kB,
              static_cast<std::size_t>(kB)));
    }
  }
  return grid;
}

}  // namespace

int main() {
  std::cout << "== Figures 1-3: the index operation on five processors ==\n\n";

  // Initial configuration (left side of Fig. 1): B[i, j] at processor i,
  // slot j.
  std::vector<std::vector<std::byte>> send(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    for (std::int64_t j = 0; j < kN; ++j) {
      const auto block = label_block(i, j);
      send[static_cast<std::size_t>(i)].insert(
          send[static_cast<std::size_t>(i)].end(), block.begin(), block.end());
    }
  }
  print_grid("Fig. 1 (before): block j of processor i = \"ij\"",
             snapshot(send));

  // Run the index operation with r = 2 (the Fig. 3 configuration) and show
  // the final transposed configuration (right side of Fig. 1).
  std::vector<std::vector<std::byte>> recv(
      kN, std::vector<std::byte>(static_cast<std::size_t>(kN * kB)));
  bruck::coll::AlltoallOptions radix2;
  radix2.algorithm = bruck::coll::IndexAlgorithm::kBruck;
  radix2.radix = 2;
  bruck::mps::run_spmd(kN, 1, [&](bruck::mps::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    bruck::coll::alltoall(comm, send[rank], recv[rank], kB, radix2);
  });
  print_grid("Fig. 1 (after): processor i holds B[0,i] .. B[4,i]",
             snapshot(recv));
  for (std::int64_t p = 0; p < kN; ++p) {
    for (std::int64_t s = 0; s < kN; ++s) {
      const std::string expect = std::string(1, static_cast<char>('0' + s)) +
                                 static_cast<char>('0' + p);
      BRUCK_REQUIRE_MSG(
          read_label(std::span<const std::byte>(
              recv[static_cast<std::size_t>(p)].data() + s * kB,
              static_cast<std::size_t>(kB))) == expect,
          "figure-1 final configuration mismatch");
    }
  }

  // Fig. 2's Phase 1, shown locally: rotate processor i's column i steps up.
  std::vector<std::vector<std::byte>> phase1(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    auto& buf = phase1[static_cast<std::size_t>(i)];
    buf.resize(static_cast<std::size_t>(kN * kB));
    for (std::int64_t slot = 0; slot < kN; ++slot) {
      const auto block = label_block(i, (slot + i) % kN);
      std::copy(block.begin(), block.end(), buf.begin() + slot * kB);
    }
  }
  print_grid("Fig. 2 Phase 1: column i rotated i steps upwards",
             snapshot(phase1));

  std::cout << "Fig. 3 note: with r = 2 the slot-id digits are binary, so\n"
               "Phase 2 runs ceil(log2 5) = 3 subphases; subphase x rotates\n"
               "the blocks whose bit x is set by 2^x processors.\n\n";

  std::cout << "== Figure 9: one-port concatenation on five processors ==\n\n";
  // Show each round's window growth for rank 0 (windows are translations at
  // the other ranks).
  std::vector<std::vector<std::byte>> cat_recv(
      kN, std::vector<std::byte>(static_cast<std::size_t>(kN)));
  bruck::mps::run_spmd(kN, 1, [&](bruck::mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    const std::vector<std::byte> mine{static_cast<std::byte>('A' + rank)};
    bruck::coll::AllgatherOptions circulant;
    circulant.algorithm = bruck::coll::ConcatAlgorithm::kBruck;
    bruck::coll::allgather(comm, mine,
                           cat_recv[static_cast<std::size_t>(rank)], 1,
                           circulant);
  });
  std::cout << "round 0: each node sends its window of 1 block to rank-1\n";
  std::cout << "round 1: windows of 2 blocks to rank-2\n";
  std::cout << "round 2: the last n2 = 1 block completes the concatenation\n\n";
  std::cout << "final buffers (every processor must read ABCDE):\n";
  for (std::int64_t p = 0; p < kN; ++p) {
    std::cout << "  P" << p << ": ";
    for (std::byte v : cat_recv[static_cast<std::size_t>(p)]) {
      std::cout << static_cast<char>(v);
    }
    std::cout << '\n';
    BRUCK_REQUIRE(read_label(cat_recv[static_cast<std::size_t>(p)]) ==
                  "ABCDE");
  }
  std::cout << "\nwalkthrough verified against the paper's figures\n";
  return 0;
}
