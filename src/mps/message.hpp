// The wire unit of the multiport message-passing substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bruck::mps {

/// Metadata of one wire segment.  The port engine hands segments to a
/// fabric as (header, byte view) pairs, so a send never materializes an
/// owned message unless the fabric itself must queue the bytes.
struct WireHeader {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  /// Per-(src, dst, tag) sequence number assigned by the sender; receivers
  /// check it to assert FIFO channel order was preserved within the tag
  /// namespace.  Segmented payloads consume one sequence number per segment.
  std::int64_t seq = 0;
  /// Port-namespace tag (0 = the default/blocking namespace).  Concurrent
  /// collectives on one communicator each run in their own tag, so their
  /// wire segments can never alias: matching, sequencing, and the per-round
  /// port budget are all tag-scoped.
  int tag = 0;
  /// Global communication-round index supplied by the algorithm; carried for
  /// trace/bookkeeping only (matching is FIFO per channel).
  int round = 0;
};

/// A wire segment with owned bytes: the thread fabric's mailbox deposit
/// (its payload vectors are recycled, so a warm fabric queues without
/// allocating).
struct Message : WireHeader {
  std::vector<std::byte> payload;

  [[nodiscard]] std::span<const std::byte> view() const { return payload; }
  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

}  // namespace bruck::mps
