#include "coll/pack.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace bruck::coll {

std::int64_t gather_extents(std::span<const std::byte> src,
                            std::span<const ByteExtent> extents,
                            std::span<std::byte> out) {
  std::int64_t pos = 0;
  for (const ByteExtent& e : extents) {
    BRUCK_REQUIRE(e.offset >= 0 && e.bytes >= 0);
    BRUCK_REQUIRE(static_cast<std::int64_t>(src.size()) >= e.offset + e.bytes);
    BRUCK_REQUIRE(static_cast<std::int64_t>(out.size()) >= pos + e.bytes);
    if (e.bytes > 0) {
      std::memcpy(out.data() + pos, src.data() + e.offset,
                  static_cast<std::size_t>(e.bytes));
    }
    pos += e.bytes;
  }
  return pos;
}

std::int64_t scatter_extents(std::span<std::byte> dst,
                             std::span<const ByteExtent> extents,
                             std::span<const std::byte> in) {
  std::int64_t pos = 0;
  for (const ByteExtent& e : extents) {
    BRUCK_REQUIRE(e.offset >= 0 && e.bytes >= 0);
    BRUCK_REQUIRE(static_cast<std::int64_t>(dst.size()) >= e.offset + e.bytes);
    BRUCK_REQUIRE(static_cast<std::int64_t>(in.size()) >= pos + e.bytes);
    if (e.bytes > 0) {
      std::memcpy(dst.data() + e.offset, in.data() + pos,
                  static_cast<std::size_t>(e.bytes));
    }
    pos += e.bytes;
  }
  return pos;
}

}  // namespace bruck::coll
