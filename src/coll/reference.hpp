// The cross-check oracle behind `ExecutionPath::kReference`: one direct
// per-pair exchange for every collective family, following no algorithm.
//
// Rank r exchanges with its ring-distance-j peers, j = 1 … n−1, k distances
// per round: in the round holding distance j it sends its payload for rank
// r + j and receives the payload of rank r − j (mod n).  Every entry point
// below is a thin choice of those payloads over one shared core, so the
// facade's oracle ignores `algorithm`, `radix` and `last_round` and shares
// no code with the plan engine: a compiled path and the oracle agreeing
// bitwise is an independent check, not a tautology.
//
// All calls block until this rank's receives have landed (each round runs
// through Communicator::exchange, so wrappers that override only exchange
// run the oracle too).  Thread safety: SPMD, one call per rank thread with
// rank-local buffers.  Trace: one send event per nonzero message at its
// round; zero-byte payloads never touch the fabric, but their rounds are
// still counted.  Each call returns the next free round index, always
// start_round + ⌈(n−1)/k⌉.
#pragma once

#include <cstdint>
#include <span>

#include "coll/reduction.hpp"
#include "mps/communicator.hpp"

namespace bruck::coll {

/// Index operation (alltoall): `send` holds n blocks of block_bytes (block j
/// for rank j), `recv` receives n blocks (block i from rank i).
int alltoall_reference(mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, std::int64_t block_bytes,
                       int start_round);

/// Concatenation (allgather): `send` is this rank's block, `recv` receives
/// the n blocks in rank order.
int allgather_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        int start_round);

/// Irregular alltoall.  `counts` is the full n×n matrix (counts[i*n + j] =
/// bytes rank i sends to rank j, identical on every rank);
/// `send_displs`/`recv_displs` give each block's byte offset in the
/// caller's buffers (n entries each, non-overlapping blocks).
int alltoallv_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv,
                        std::span<const std::int64_t> counts,
                        std::span<const std::int64_t> send_displs,
                        std::span<const std::int64_t> recv_displs,
                        int start_round);

/// Irregular allgather.  `send` is this rank's block (counts[rank] bytes);
/// `recv` holds block i at recv_displs[i] with counts[i] bytes.
int allgatherv_reference(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::int64_t> counts,
                         std::span<const std::int64_t> recv_displs,
                         int start_round);

/// Reduce-scatter: `send` holds n blocks (block j is this rank's
/// contribution to rank j), `recv` one block — this rank's own contribution
/// ⊕-combined with every other rank's, in ascending ring distance.
int reduce_scatter_reference(mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv,
                             std::int64_t block_bytes, const ReduceOp& op,
                             int start_round);

/// Allreduce: `recv` = ⊕ over all ranks of their `send` (same byte length
/// everywhere, a multiple of op.elem_bytes()).  Allgathers the full
/// vectors, then combines locally in rank order, so every rank applies the
/// identical association ((B0 ⊕ B1) ⊕ B2) ⊕ …
int allreduce_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const ReduceOp& op,
                        int start_round);

}  // namespace bruck::coll
