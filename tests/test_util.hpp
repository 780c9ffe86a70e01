// Shared helpers for the test suite: run a collective on the threaded
// substrate with deterministic payloads and collect content errors, the
// executed trace, and per-rank round usage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "mps/runtime.hpp"

namespace bruck::testutil {

/// Facade options forcing one index algorithm (and radix, for Bruck), flat
/// whatever BRUCK_HIER says.
inline coll::AlltoallOptions forced_index(coll::IndexAlgorithm algorithm,
                                          std::int64_t radix = 0,
                                          int start_round = 0) {
  coll::AlltoallOptions options;
  options.algorithm = algorithm;
  options.radix = radix;
  options.start_round = start_round;
  options.hier = coll::HierMode::kOff;
  return options;
}

/// Facade options forcing one concat algorithm (and last round, for
/// Bruck), flat whatever BRUCK_HIER says.
inline coll::AllgatherOptions forced_concat(
    coll::ConcatAlgorithm algorithm,
    model::ConcatLastRound strategy = model::ConcatLastRound::kAuto,
    int start_round = 0) {
  coll::AllgatherOptions options;
  options.algorithm = algorithm;
  options.last_round = strategy;
  options.start_round = start_round;
  options.hier = coll::HierMode::kOff;
  return options;
}

/// Per-rank body of an index-style collective: (comm, send, recv) → rounds
/// used (next free round index).
using IndexCall = std::function<int(mps::Communicator&,
                                    std::span<const std::byte>,
                                    std::span<std::byte>)>;

/// Per-rank body of a concat-style collective (send is one block).
using ConcatCall = std::function<int(mps::Communicator&,
                                     std::span<const std::byte>,
                                     std::span<std::byte>)>;

struct CollRun {
  std::shared_ptr<mps::Trace> trace;
  /// First payload-verification failure across ranks ("" if all good).
  std::string error;
  /// Rounds used (identical across ranks or `error` is set).
  int rounds_used = 0;
};

inline CollRun run_index(std::int64_t n, int k, std::int64_t block_bytes,
                         const IndexCall& call, std::uint64_t seed = 42) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes),
                                std::byte{0xEE});
    coll::fill_index_send(send, n, rank, block_bytes, seed);
    rounds[static_cast<std::size_t>(rank)] = call(comm, send, recv);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, block_bytes, seed);
  });
  CollRun out;
  out.trace = rr.trace;
  out.rounds_used = rounds.empty() ? 0 : rounds[0];
  for (std::int64_t r = 0; r < n; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty() && out.error.empty()) {
      out.error = errors[static_cast<std::size_t>(r)];
    }
    if (rounds[static_cast<std::size_t>(r)] != out.rounds_used &&
        out.error.empty()) {
      out.error = "ranks disagree on rounds used";
    }
  }
  return out;
}

inline CollRun run_concat(std::int64_t n, int k, std::int64_t block_bytes,
                          const ConcatCall& call, std::uint64_t seed = 42) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<int> rounds(static_cast<std::size_t>(n), -1);
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes),
                                std::byte{0xEE});
    coll::fill_concat_send(send, rank, block_bytes, seed);
    rounds[static_cast<std::size_t>(rank)] = call(comm, send, recv);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_concat_recv(recv, n, block_bytes, seed);
  });
  CollRun out;
  out.trace = rr.trace;
  out.rounds_used = rounds.empty() ? 0 : rounds[0];
  for (std::int64_t r = 0; r < n; ++r) {
    if (!errors[static_cast<std::size_t>(r)].empty() && out.error.empty()) {
      out.error = errors[static_cast<std::size_t>(r)];
    }
    if (rounds[static_cast<std::size_t>(r)] != out.rounds_used &&
        out.error.empty()) {
      out.error = "ranks disagree on rounds used";
    }
  }
  return out;
}

}  // namespace bruck::testutil
