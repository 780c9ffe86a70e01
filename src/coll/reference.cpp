#include "coll/reference.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace bruck::coll {

namespace {

/// This rank's payload for `peer` (empty = nothing to send).
using OutFn = std::function<std::span<const std::byte>(std::int64_t peer)>;
/// Where `peer`'s payload lands (empty = nothing to receive).
using InFn = std::function<std::span<std::byte>(std::int64_t peer)>;

/// The one exchange core: copy the own payload locally, then ring distance
/// j = 1 … n−1, k distances per round.
int direct_exchange(mps::Communicator& comm, int start_round, const OutFn& out,
                    const InFn& in) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const int k = comm.ports();
  const std::span<const std::byte> own = out(rank);
  const std::span<std::byte> own_landing = in(rank);
  BRUCK_REQUIRE(own.size() == own_landing.size());
  if (!own.empty()) std::memcpy(own_landing.data(), own.data(), own.size());

  int round = start_round;
  std::vector<mps::SendSpec> sends;
  std::vector<mps::RecvSpec> recvs;
  for (std::int64_t j0 = 1; j0 < n; j0 += k) {
    const std::int64_t j1 = std::min<std::int64_t>(n, j0 + k);
    sends.clear();
    recvs.clear();
    for (std::int64_t j = j0; j < j1; ++j) {
      const std::int64_t dst = pos_mod(rank + j, n);
      const std::int64_t src = pos_mod(rank - j, n);
      if (const auto data = out(dst); !data.empty()) {
        sends.push_back(mps::SendSpec{dst, data});
      }
      if (const auto landing = in(src); !landing.empty()) {
        recvs.push_back(mps::RecvSpec{src, landing});
      }
    }
    if (!sends.empty() || !recvs.empty()) comm.exchange(round, sends, recvs);
    ++round;
  }
  return round;
}

/// Block `i` of a buffer of equal `b`-byte blocks.
template <typename Byte>
std::span<Byte> block(std::span<Byte> buf, std::int64_t i, std::int64_t b) {
  return buf.subspan(static_cast<std::size_t>(i * b),
                     static_cast<std::size_t>(b));
}

}  // namespace

int alltoall_reference(mps::Communicator& comm,
                       std::span<const std::byte> send,
                       std::span<std::byte> recv, std::int64_t block_bytes,
                       int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t b = block_bytes;
  BRUCK_REQUIRE(b >= 0);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == n * b);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == n * b);
  return direct_exchange(
      comm, start_round, [&](std::int64_t dst) { return block(send, dst, b); },
      [&](std::int64_t src) { return block(recv, src, b); });
}

int allgather_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t b = block_bytes;
  BRUCK_REQUIRE(b >= 0);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == b);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == n * b);
  return direct_exchange(
      comm, start_round, [&](std::int64_t) { return send; },
      [&](std::int64_t src) { return block(recv, src, b); });
}

int alltoallv_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv,
                        std::span<const std::int64_t> counts,
                        std::span<const std::int64_t> send_displs,
                        std::span<const std::int64_t> recv_displs,
                        int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE(static_cast<std::int64_t>(counts.size()) == n * n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);
  const auto at = [](std::span<const std::int64_t> v, std::int64_t i) {
    return static_cast<std::size_t>(v[static_cast<std::size_t>(i)]);
  };
  return direct_exchange(
      comm, start_round,
      [&](std::int64_t dst) {
        return send.subspan(at(send_displs, dst), at(counts, rank * n + dst));
      },
      [&](std::int64_t src) {
        return recv.subspan(at(recv_displs, src), at(counts, src * n + rank));
      });
}

int allgatherv_reference(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::int64_t> counts,
                         std::span<const std::int64_t> recv_displs,
                         int start_round) {
  const std::int64_t n = comm.size();
  BRUCK_REQUIRE(static_cast<std::int64_t>(counts.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) ==
                counts[static_cast<std::size_t>(comm.rank())]);
  return direct_exchange(
      comm, start_round, [&](std::int64_t) { return send; },
      [&](std::int64_t src) {
        const auto i = static_cast<std::size_t>(src);
        return recv.subspan(static_cast<std::size_t>(recv_displs[i]),
                            static_cast<std::size_t>(counts[i]));
      });
}

int reduce_scatter_reference(mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv,
                             std::int64_t block_bytes, const ReduceOp& op,
                             int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  const std::int64_t b = block_bytes;
  BRUCK_REQUIRE(b >= 0);
  BRUCK_REQUIRE(b % std::max<std::int64_t>(1, op.elem_bytes()) == 0);
  BRUCK_REQUIRE(static_cast<std::int64_t>(send.size()) == n * b);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == b);
  // The own contribution seeds the accumulator; every other rank's lands in
  // its own staging slot and is combined afterwards in distance order.
  std::vector<std::byte> staged(static_cast<std::size_t>(n * b));
  const int next = direct_exchange(
      comm, start_round, [&](std::int64_t dst) { return block(send, dst, b); },
      [&](std::int64_t src) {
        return src == rank ? recv : block(std::span<std::byte>(staged), src, b);
      });
  for (std::int64_t j = 1; j < n && b > 0; ++j) {
    op.combine(recv.data(), staged.data() + pos_mod(rank - j, n) * b, b);
  }
  return next;
}

int allreduce_reference(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const ReduceOp& op,
                        int start_round) {
  const std::int64_t n = comm.size();
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  BRUCK_REQUIRE(bytes % std::max<std::int64_t>(1, op.elem_bytes()) == 0);
  std::vector<std::byte> all(static_cast<std::size_t>(n * bytes));
  const int next = allgather_reference(comm, send, all, bytes, start_round);
  if (bytes > 0) {
    std::memcpy(recv.data(), all.data(), static_cast<std::size_t>(bytes));
    for (std::int64_t i = 1; i < n; ++i) {
      op.combine(recv.data(), all.data() + i * bytes, bytes);
    }
  }
  return next;
}

}  // namespace bruck::coll
