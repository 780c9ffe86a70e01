// Variable-extent pack/unpack: gather byte runs of a buffer into a
// contiguous message and scatter a received message back into the same
// runs.  The plan executor packs every non-contiguous message through these
// (Appendix A's pack/unpack by radix digit is the special case of an index
// Bruck message whose extents are the digit's member blocks), and the
// strided `coll::Layout` datatypes resolve their cells into them (a
// layout-mapped cell is just a ByteExtent walk over user memory).
//
// All routines here are pure local memory movement: they never block, never
// touch the fabric, and record nothing in the trace.  They are safe to call
// concurrently on disjoint buffers.
#pragma once

#include <cstdint>
#include <span>

namespace bruck::coll {

/// One byte run of a variable-extent cell map: `bytes` bytes at byte
/// `offset` of some buffer.  Zero-length extents are legal and skipped.
struct ByteExtent {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

/// Gather the extents of `src` back-to-back into `out` (which must hold at
/// least the summed extent bytes).  Returns the bytes packed.  Never
/// blocks; no trace side effects.
std::int64_t gather_extents(std::span<const std::byte> src,
                            std::span<const ByteExtent> extents,
                            std::span<std::byte> out);

/// Inverse of gather_extents: scatter `in` back-to-back into the extents of
/// `dst`.  Returns the bytes scattered.  Never blocks; no trace side
/// effects.
std::int64_t scatter_extents(std::span<std::byte> dst,
                             std::span<const ByteExtent> extents,
                             std::span<const std::byte> in);

}  // namespace bruck::coll
