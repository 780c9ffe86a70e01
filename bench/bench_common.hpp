// Shared plumbing for the figure/table benches: run an index or concat
// configuration through the facade with the algorithm forced, on the
// threaded substrate at the paper's scale (n = 64), verify every delivered
// block, return the *measured* trace metrics, and cross-check them against
// the closed-form costs so a bench can never silently report formula
// values that the implementation does not achieve.
#pragma once

#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "model/costs.hpp"
#include "mps/runtime.hpp"
#include "util/assert.hpp"

namespace bruck::bench {

/// The trace metrics of one verified run, checked against `closed`.
inline model::CostMetrics checked_metrics(
    const mps::RunResult& rr, const std::vector<std::string>& errors,
    const model::CostMetrics& closed) {
  for (const std::string& e : errors) {
    BRUCK_ENSURE_MSG(e.empty(), "bench payload verification failed: " + e);
  }
  const model::CostMetrics measured = rr.trace->metrics();
  BRUCK_ENSURE_MSG(measured == closed,
                   "measured metrics diverged from the closed form");
  return measured;
}

/// Execute the Bruck index algorithm with `radix` on the fabric.
inline model::CostMetrics measure_index_bruck(std::int64_t n, int k,
                                              std::int64_t block_bytes,
                                              std::int64_t radix) {
  coll::AlltoallOptions options;
  options.algorithm = coll::IndexAlgorithm::kBruck;
  options.radix = radix;
  options.hier = coll::HierMode::kOff;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  const mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(n * block_bytes));
    std::vector<std::byte> recv(send.size());
    coll::fill_index_send(send, n, rank, block_bytes, 7);
    coll::alltoall(comm, send, recv, block_bytes, options);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_index_recv(recv, n, rank, block_bytes, 7);
  });
  return checked_metrics(rr, errors,
                         model::index_bruck_cost(n, radix, k, block_bytes));
}

/// Execute a concatenation algorithm (`strategy` steers Bruck's last round;
/// folklore and ring use one port whatever k is).
inline model::CostMetrics measure_concat(
    std::int64_t n, int k, std::int64_t block_bytes,
    coll::ConcatAlgorithm algorithm,
    model::ConcatLastRound strategy = model::ConcatLastRound::kAuto) {
  coll::AllgatherOptions options;
  options.algorithm = algorithm;
  options.last_round = strategy;
  options.hier = coll::HierMode::kOff;
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  const mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(block_bytes));
    std::vector<std::byte> recv(static_cast<std::size_t>(n * block_bytes));
    coll::fill_concat_send(send, rank, block_bytes, 7);
    coll::allgather(comm, send, recv, block_bytes, options);
    errors[static_cast<std::size_t>(rank)] =
        coll::check_concat_recv(recv, n, block_bytes, 7);
  });
  const model::CostMetrics closed =
      algorithm == coll::ConcatAlgorithm::kFolklore
          ? model::concat_folklore_cost(n, block_bytes)
      : algorithm == coll::ConcatAlgorithm::kRing
          ? model::concat_ring_cost(n, block_bytes)
          : model::concat_bruck_cost(n, k, block_bytes, strategy);
  return checked_metrics(rr, errors, closed);
}

}  // namespace bruck::bench
