// Data-free derivations of the index algorithms' communication patterns:
// the paper-facing specification every executed plan's trace is tested
// against.
//
// These builders intentionally do NOT share code with the plan lowerings
// in coll/ beyond the radix helpers: they re-derive each pattern from the
// paper's description so that "executed trace == built schedule" is a
// meaningful cross-check and not a tautology.
//
// The index operation (all-to-all personalized communication /
// MPI_Alltoall) is the class of algorithms of Section 3.  Among n
// processors, processor i starts with n blocks B[i,0..n) of b bytes and
// ends with blocks B[0..n, i].  The algorithm is parameterized by a radix
// r ∈ [2, n]:
//
//   Phase 1 (local):  rotate the n blocks i positions upwards, so the block
//                     destined for rank (i + s) mod n sits in slot s.
//   Phase 2 (comm):   w = ⌈log_r n⌉ subphases, one per radix-r digit of the
//                     remaining rotation distance.  In subphase x, step z
//                     sends every block whose digit x equals z a distance of
//                     z·r^x: all such blocks are packed into one message to
//                     rank (i + z·r^x) mod n.  With k ports, up to k steps
//                     of a subphase run in one round (Section 3.4).
//   Phase 3 (local):  re-index slot s (which traveled distance s from rank
//                     (i − s) mod n) into output block (i − s) mod n.
//
// Measures: C1 = Σ_x ⌈(h_x−1)/k⌉ ≤ ⌈(r−1)/k⌉·⌈log_r n⌉ rounds, where h_x
// is subphase x's digit height, and C2 = Σ over rounds of the largest
// packed message — at most b·radix_max_census(n, r) bytes each (Section
// 3.2 quotes b·⌈n/r⌉, exact when n is a power of r) — exactly the values
// model::index_bruck_cost computes.  r = 2 gives the C1-optimal special
// case (⌈log2 n⌉ rounds at k = 1); r = n gives the C2-optimal special
// case (b(n−1) bytes, n−1 rounds), the measures of direct exchange.
#pragma once

#include <cstdint>

#include "sched/schedule.hpp"

namespace bruck::sched {

/// Section 3 index algorithm with radix r on n ranks, k ports, b-byte
/// blocks.  Returns the empty schedule when n == 1 or b == 0 (no bytes ever
/// enter the fabric), matching the executed trace.
[[nodiscard]] Schedule build_index_bruck(std::int64_t n, std::int64_t r, int k,
                                         std::int64_t block_bytes);

/// Direct exchange: step j pairs i → (i+j) mod n, k steps per round.  Every
/// block travels straight from source to destination: exactly b(n−1) bytes
/// per rank, no forwarding, at C1 = ⌈(n−1)/k⌉ rounds.
[[nodiscard]] Schedule build_index_direct(std::int64_t n, int k,
                                          std::int64_t block_bytes);

/// XOR pairwise exchange (n a power of two): step j pairs i ↔ i xor j —
/// the classic hypercube-flavoured complete exchange, with direct
/// exchange's measures but a symmetric partner structure.
[[nodiscard]] Schedule build_index_pairwise(std::int64_t n, int k,
                                            std::int64_t block_bytes);

}  // namespace bruck::sched
