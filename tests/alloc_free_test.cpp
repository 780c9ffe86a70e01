// Steady-state cost of repeated collectives: once a geometry has run, a
// blocking collective on the shm fabric makes no heap allocation, the
// no-staging allreduce matches the reference oracle bitwise on every
// fabric (divisible, padded and in-place payloads), and the view-based shm
// push survives a ring that is full most of the time.
//
// The allocation counts come from a replacement global operator new in
// this test binary that counts per thread while armed.  Under sanitizer
// builds (-DBRUCK_SANITIZE=...) the runtime owns the allocator, so the
// replacement is compiled out and only the count assertions are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "coll/api.hpp"
#include "coll/verify.hpp"
#include "mps/bootstrap.hpp"
#include "mps/shm_comm.hpp"

#ifndef BRUCK_SANITIZED
namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t bytes, std::size_t align) {
  if (t_counting) ++t_allocations;
  if (bytes == 0) bytes = 1;
  for (;;) {
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(bytes)
                  : std::aligned_alloc(align, (bytes + align - 1) / align *
                                                  align);
    if (p != nullptr) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

// The array and nothrow forms funnel into these; every delete form frees.
void* operator new(std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace bruck {
namespace {

#ifdef BRUCK_SANITIZED
constexpr bool kCountsAllocations = false;
#else
constexpr bool kCountsAllocations = true;
#endif

/// Heap allocations `fn` makes on the calling thread (0 when counting is
/// compiled out).
template <class F>
std::uint64_t allocations_in(F&& fn) {
#ifdef BRUCK_SANITIZED
  fn();
  return 0;
#else
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
#endif
}

constexpr std::int64_t kRanks = 4;
constexpr std::uint64_t kSeed = 0x5EED;

enum class Family { kAlltoall, kAllgather, kReduceScatter, kAllreduce };
constexpr Family kFamilies[] = {Family::kAlltoall, Family::kAllgather,
                                Family::kReduceScatter, Family::kAllreduce};

const char* family_name(Family f) {
  switch (f) {
    case Family::kAlltoall: return "alltoall";
    case Family::kAllgather: return "allgather";
    case Family::kReduceScatter: return "reduce_scatter";
    case Family::kAllreduce: return "allreduce";
  }
  return "?";
}

/// Element e of rank `rank`'s i32 reduction payload (small values: sums
/// over the ranks never wrap).
std::int32_t input_elem(std::int64_t rank, std::int64_t e) {
  return static_cast<std::int32_t>((rank * 7919 + e * 104729) % 65521) -
         30000;
}

/// `elems` i32 elements: rank `rank`'s payload, or with rank = −1 the sum
/// of every rank's.
std::vector<std::byte> allreduce_input(std::int64_t rank, std::int64_t elems) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(elems));
  for (std::int64_t e = 0; e < elems; ++e) {
    std::int32_t& x = v[static_cast<std::size_t>(e)];
    if (rank >= 0) {
      x = input_elem(rank, e);
    } else {
      for (std::int64_t r = 0; r < kRanks; ++r) x += input_elem(r, e);
    }
  }
  std::vector<std::byte> out(v.size() * sizeof(std::int32_t));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

/// One rank's buffers for all four families at block size b, allocated up
/// front so the measured calls touch no container.
struct RankBuffers {
  RankBuffers(std::int64_t rank, std::int64_t b)
      : index_send(static_cast<std::size_t>(kRanks * b)),
        concat_send(static_cast<std::size_t>(b)),
        reduce_send(allreduce_input(rank, kRanks * b / 4)),
        reduce_sum(allreduce_input(-1, kRanks * b / 4)),
        recv(static_cast<std::size_t>(kRanks * b)) {
    coll::fill_index_send(index_send, kRanks, rank, b, kSeed);
    coll::fill_concat_send(concat_send, rank, b, kSeed);
  }

  std::vector<std::byte> index_send;
  std::vector<std::byte> concat_send;
  std::vector<std::byte> reduce_send;  ///< i32 elements
  std::vector<std::byte> reduce_sum;   ///< the sum over every rank's
  std::vector<std::byte> recv;
};

/// Run one call of `f`; returns the next free round.
int run_family(mps::Communicator& comm, Family f, RankBuffers& buf,
               std::int64_t b, int round) {
  const std::span<std::byte> out(buf.recv);
  const coll::ReduceOp sum = coll::ReduceOp::sum(coll::ReduceElem::kI32);
  switch (f) {
    case Family::kAlltoall: {
      coll::AlltoallOptions o;
      o.start_round = round;
      return coll::alltoall(comm, buf.index_send, out, b, o);
    }
    case Family::kAllgather: {
      coll::AllgatherOptions o;
      o.start_round = round;
      return coll::allgather(comm, buf.concat_send, out, b, o);
    }
    case Family::kReduceScatter: {
      coll::ReduceScatterOptions o;
      o.start_round = round;
      return coll::reduce_scatter(comm, buf.reduce_send,
                                  out.first(static_cast<std::size_t>(b)), b,
                                  sum, o);
    }
    case Family::kAllreduce: {
      coll::AllreduceOptions o;
      o.start_round = round;
      return coll::allreduce(comm, buf.reduce_send, out, sum, o);
    }
  }
  return round;
}

/// Payload check of the last call of `f`.
std::string check_family(Family f, const RankBuffers& buf, std::int64_t rank,
                         std::int64_t b) {
  const auto bytes_equal = [](std::span<const std::byte> got,
                              std::span<const std::byte> want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end())
               ? std::string()
               : std::string("reduced values differ");
  };
  const auto block = static_cast<std::size_t>(b);
  switch (f) {
    case Family::kAlltoall:
      return coll::check_index_recv(buf.recv, kRanks, rank, b, kSeed);
    case Family::kAllgather:
      return coll::check_concat_recv(buf.recv, kRanks, b, kSeed);
    case Family::kReduceScatter:
      return bytes_equal(
          std::span<const std::byte>(buf.recv).first(block),
          std::span<const std::byte>(buf.reduce_sum)
              .subspan(static_cast<std::size_t>(rank) * block, block));
    case Family::kAllreduce:
      return bytes_equal(buf.recv, buf.reduce_sum);
  }
  return "";
}

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string to_string(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

mps::SpawnOptions spawn_options(mps::FabricBackend backend, int k) {
  mps::SpawnOptions so;
  so.n = kRanks;
  so.k = k;
  so.backend = backend;
  so.record_trace = false;
  so.tune = tune::TuneMode::kOff;
  so.recv_timeout = std::chrono::milliseconds(20000);
  return so;
}

TEST(AllocFree, ShmRepeatedGeometryMakesNoHeapAllocation) {
  constexpr int kMeasuredCalls = 4;
  for (const int k : {1, 2}) {
    for (const std::int64_t b : {std::int64_t{64}, std::int64_t{256} << 10}) {
      const mps::SpawnResult res = mps::spawn_local(
          spawn_options(mps::FabricBackend::kShm, k),
          [b](mps::Communicator& comm) {
            RankBuffers buf(comm.rank(), b);
            std::string report;
            int round = 0;
            for (const Family f : kFamilies) {
              round = run_family(comm, f, buf, b, round);  // first call
              const std::uint64_t allocs = allocations_in([&] {
                for (int i = 0; i < kMeasuredCalls; ++i) {
                  round = run_family(comm, f, buf, b, round);
                }
              });
              const std::string bad = check_family(f, buf, comm.rank(), b);
              if (!bad.empty()) {
                report += std::string(family_name(f)) + ": " + bad + "; ";
              }
              if (allocs != 0) {
                report += std::string(family_name(f)) + ": " +
                          std::to_string(allocs) + " allocation(s) in " +
                          std::to_string(kMeasuredCalls) + " calls; ";
              }
            }
            return to_bytes(report);
          });
      for (std::int64_t r = 0; r < kRanks; ++r) {
        EXPECT_EQ(to_string(res.rank_payloads[static_cast<std::size_t>(r)]),
                  "")
            << "k=" << k << " b=" << b << " rank " << r
            << (kCountsAllocations ? "" : " (allocation counts skipped)");
      }
    }
  }
}

/// Per-rank check of the no-staging allreduce against the reference
/// oracle: n | elems (runs on the user buffers), n ∤ elems (the padded
/// path), each out of place and in place.  Returns the mismatches.
std::string allreduce_vs_reference(mps::Communicator& comm, int& round) {
  const coll::ReduceOp sum = coll::ReduceOp::sum(coll::ReduceElem::kI32);
  std::string report;
  for (const std::int64_t elems : {kRanks * 33, kRanks * 33 + 3}) {
    const std::vector<std::byte> in = allreduce_input(comm.rank(), elems);
    std::vector<std::byte> want(in.size());
    coll::AllreduceOptions ref;
    ref.path = coll::ExecutionPath::kReference;
    ref.start_round = round;
    round = coll::allreduce(comm, in, want, sum, ref);

    std::vector<std::byte> got(in.size());
    coll::AllreduceOptions fast;
    fast.start_round = round;
    round = coll::allreduce(comm, in, got, sum, fast);
    if (got != want) {
      report += "elems=" + std::to_string(elems) + " out of place; ";
    }

    std::vector<std::byte> io = in;
    fast.start_round = round;
    round = coll::allreduce(comm, io, io, sum, fast);
    if (io != want) report += "elems=" + std::to_string(elems) + " in place; ";
  }
  return report;
}

TEST(AllocFree, AllreduceMatchesReferenceBitwiseOnEveryFabric) {
  for (const mps::FabricBackend backend :
       {mps::FabricBackend::kThread, mps::FabricBackend::kShm,
        mps::FabricBackend::kSocket}) {
    const mps::SpawnResult res =
        mps::spawn_local(spawn_options(backend, 2), [](mps::Communicator& c) {
          int round = 0;
          return to_bytes(allreduce_vs_reference(c, round));
        });
    for (std::int64_t r = 0; r < kRanks; ++r) {
      EXPECT_EQ(to_string(res.rank_payloads[static_cast<std::size_t>(r)]), "")
          << mps::to_string(backend) << " rank " << r;
    }
  }
}

/// Every rank streams `bytes` in 1 KiB segments to its right neighbor
/// before receiving from its left one.  Through a 4 KiB ring each send must
/// wait for its receiver to drain — which, also sending, drains its own
/// ring into the stash while it waits.  Returns the mismatches.
std::string ring_stream(mps::Communicator& comm, int round,
                        std::vector<std::byte>& out,
                        std::vector<std::byte>& in) {
  const std::int64_t n = comm.size();
  const std::int64_t right = (comm.rank() + 1) % n;
  const std::int64_t left = (comm.rank() + n - 1) % n;
  const int segments = static_cast<int>(out.size() / 1024);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(comm.rank() * 31 + round + i * 7);
  }
  comm.post_send(round, right, out, segments);
  const mps::PortHandle h = comm.post_recv(round, left, in, segments);
  comm.wait_recv(h);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != static_cast<std::byte>(left * 31 + round + i * 7)) {
      return "ring stream round " + std::to_string(round) + " byte " +
             std::to_string(i) + " corrupt; ";
    }
  }
  return "";
}

TEST(AllocFree, ShmFullRingBackpressureStaysCorrectAndAllocationFree) {
  // A minimum ring (4 KiB: segments up to 2016 bytes) behind 32 KiB
  // streams and then the four families at b = 256: pushes wait on full
  // rings, and every result must still be exact.
  constexpr std::int64_t b = 256;
  constexpr int kIterations = 8;
  mps::SpawnOptions so = spawn_options(mps::FabricBackend::kShm, 2);
  so.shm_ring_bytes = 4096;
  const mps::SpawnResult res = mps::spawn_local(so, [](mps::Communicator&
                                                           comm) {
    RankBuffers buf(comm.rank(), b);
    std::vector<std::byte> out(32 << 10);
    std::vector<std::byte> in(out.size());
    std::string report;
    int round = 0;
    report += ring_stream(comm, round++, out, in);
    for (const Family f : kFamilies) round = run_family(comm, f, buf, b, round);
    std::uint64_t allocs = 0;
    for (int i = 0; i < kIterations; ++i) {
      allocs += allocations_in(
          [&] { report += ring_stream(comm, round++, out, in); });
      for (const Family f : kFamilies) {
        allocs += allocations_in(
            [&] { round = run_family(comm, f, buf, b, round); });
        const std::string bad = check_family(f, buf, comm.rank(), b);
        if (!bad.empty()) report += std::string(family_name(f)) + ": " + bad;
      }
    }
    report += allreduce_vs_reference(comm, round);
    if (allocs != 0) {
      report += std::to_string(allocs) + " allocation(s) in steady state; ";
    }
    const auto& shm = dynamic_cast<const mps::ShmComm&>(comm);
    std::vector<std::byte> result = to_bytes(report);
    const std::uint64_t waits = shm.full_ring_waits();
    const auto* w = reinterpret_cast<const std::byte*>(&waits);
    result.insert(result.begin(), w, w + sizeof(waits));
    return result;
  });
  std::uint64_t waits = 0;
  for (std::int64_t r = 0; r < kRanks; ++r) {
    const std::vector<std::byte>& p =
        res.rank_payloads[static_cast<std::size_t>(r)];
    ASSERT_GE(p.size(), sizeof(std::uint64_t));
    std::uint64_t w = 0;
    std::memcpy(&w, p.data(), sizeof(w));
    waits += w;
    EXPECT_EQ(to_string(std::vector<std::byte>(p.begin() + sizeof(w), p.end())),
              "")
        << "rank " << r;
  }
  EXPECT_GT(waits, 0u) << "the 4 KiB rings never filled: no backpressure";
}

}  // namespace
}  // namespace bruck
