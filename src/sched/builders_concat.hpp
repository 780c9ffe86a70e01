// Data-free derivations of the concatenation algorithms' patterns: the
// paper-facing specification every executed plan's trace is tested
// against (see builders_index.hpp for the cross-check rationale).
//
// The concatenation operation (all-to-all broadcast / MPI_Allgather) of
// Section 4 runs on the circulant graph G(n, S) with
// S_i = {(k+1)^i·j : 1 ≤ j ≤ k}.  Writing d = ⌈log_{k+1} n⌉,
// n1 = (k+1)^{d−1} and n2 = n − n1:
//
//   Rounds 0 … d−2 ("full rounds", Section 4.1): each node sends its whole
//   current window of cur = (k+1)^i consecutive blocks to the k nodes at
//   offsets −j·cur, and receives the k windows that extend its own, growing
//   the window by a factor of k+1 per round.  Following Appendix B, node u
//   sends to u − s, so after round i node u holds B[u], B[u+1], …,
//   B[u + (k+1)^{i+1} − 1] (mod n).
//
//   Last round (Section 4.2): the remaining n2 blocks are scheduled by a
//   table partition (topo/partition.hpp).  Area A_m with leftmost column
//   L_m ships on its own port with offset s_m = n1 + L_m: node u sends to
//   u − s_m, for every cell (column c, byte rows [r0, r1)), the bytes
//   [r0, r1) of its window block c − L_m; the receiver scatters them into
//   window slot n1 + c.  The strategy picks between the paper's byte-split
//   partition (optimal C1 and C2 where feasible) and the two fallbacks of
//   the paper's Remark (column-granular: optimal C1; two-round: optimal
//   C2).
//
// Measures match model::concat_bruck_cost exactly.
#pragma once

#include <cstdint>

#include "model/costs.hpp"
#include "sched/schedule.hpp"

namespace bruck::sched {

/// Section 4 circulant concatenation on n ranks, k ports, b-byte blocks,
/// with the given last-round strategy (kAuto resolves through
/// model::resolve_concat_last_round, exactly as the facade does).
[[nodiscard]] Schedule build_concat_bruck(std::int64_t n, int k,
                                          std::int64_t block_bytes,
                                          model::ConcatLastRound strategy);

/// Folklore binomial gather to rank 0 + broadcast of the result back down
/// the same tree (one port): suboptimal in both measures, C1 = 2⌈log2 n⌉.
[[nodiscard]] Schedule build_concat_folklore(std::int64_t n,
                                             std::int64_t block_bytes);

/// Ring allgather (one port): each round forwards the block received the
/// round before — C2-optimal at k = 1 with the worst C1 = n−1.
[[nodiscard]] Schedule build_concat_ring(std::int64_t n,
                                         std::int64_t block_bytes);

}  // namespace bruck::sched
