// Reduction collectives (reduce_scatter / allreduce) through the plan
// engine: the ReduceOp table itself, randomized cross-checks of every
// algorithm (and the kReference oracle) against independently computed
// expectations, degenerate shapes, executed traces against the closed-form
// costs, and the bytes_reduced accounting.
//
// Exactness discipline: the plan paths combine contributions in
// tree/arrival order while the expectations combine in rank order, so all
// generated data is chosen order-exact — small integers for sums (float
// sums stay within the mantissa), signed powers of two for products — and
// results are compared bitwise.
#include <array>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "coll/api.hpp"
#include "coll/plan.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "gtest/gtest.h"
#include "mps/runtime.hpp"
#include "sched/builders_index.hpp"
#include "util/rng.hpp"

namespace bruck {
namespace {

using coll::AllreduceOptions;
using coll::ExecutionPath;
using coll::ReduceAlgorithm;
using coll::ReduceElem;
using coll::ReduceKind;
using coll::ReduceOp;
using coll::ReduceScatterOptions;

constexpr ReduceKind kKinds[] = {ReduceKind::kSum, ReduceKind::kMin,
                                 ReduceKind::kMax, ReduceKind::kProd};
constexpr ReduceElem kElems[] = {ReduceElem::kI32, ReduceElem::kI64,
                                 ReduceElem::kF32, ReduceElem::kF64};

ReduceOp make_op(ReduceKind kind, ReduceElem elem) {
  switch (kind) {
    case ReduceKind::kSum: return ReduceOp::sum(elem);
    case ReduceKind::kMin: return ReduceOp::min(elem);
    case ReduceKind::kMax: return ReduceOp::max(elem);
    case ReduceKind::kProd: return ReduceOp::prod(elem);
    case ReduceKind::kUser: break;
  }
  return ReduceOp::sum(elem);
}

/// Deterministic, order-exact test value for (kind, src rank, element id).
/// Sums use small integers, min/max wide integers, prod signed powers of
/// two with at most 10 non-unit magnitudes per element across ranks.
template <typename T>
T gen_value(ReduceKind kind, std::int64_t src, std::int64_t idx) {
  SplitMix64 rng(0xC0FFEEull * 2654435761ull +
                 static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ull +
                 static_cast<std::uint64_t>(idx));
  const std::uint64_t h = rng.next();
  switch (kind) {
    case ReduceKind::kSum:
      return static_cast<T>(static_cast<std::int64_t>(h % 1001) - 500);
    case ReduceKind::kMin:
    case ReduceKind::kMax:
      return static_cast<T>(static_cast<std::int64_t>(h % 100000) - 50000);
    case ReduceKind::kProd: {
      const T sign = (h & 4) != 0 ? T(1) : T(-1);
      const T mag = (src < 10 && (h & 8) != 0) ? T(2) : T(1);
      return sign * mag;
    }
    case ReduceKind::kUser:
      break;
  }
  return T(0);
}

template <typename T>
T apply(ReduceKind kind, T a, T b) {
  switch (kind) {
    case ReduceKind::kSum: return a + b;
    case ReduceKind::kMin: return a < b ? a : b;
    case ReduceKind::kMax: return a > b ? a : b;
    case ReduceKind::kProd: return a * b;
    case ReduceKind::kUser: break;
  }
  return a;
}

/// Fill rank `src`'s send buffer: block d, element e holds
/// gen_value(kind, src, d * block_elems + e).
template <typename T>
std::vector<std::byte> fill_send(ReduceKind kind, std::int64_t n,
                                 std::int64_t src, std::int64_t block_elems) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(n * block_elems) * sizeof(T));
  for (std::int64_t d = 0; d < n; ++d) {
    for (std::int64_t e = 0; e < block_elems; ++e) {
      const T v = gen_value<T>(kind, src, d * block_elems + e);
      std::memcpy(out.data() + (d * block_elems + e) * sizeof(T), &v,
                  sizeof(T));
    }
  }
  return out;
}

/// The rank-order reduction every test compares against, computed without
/// ReduceOp::combine (independent derivation).
template <typename T>
std::vector<std::byte> expected_block(ReduceKind kind, std::int64_t n,
                                      std::int64_t dst,
                                      std::int64_t block_elems) {
  std::vector<std::byte> out(static_cast<std::size_t>(block_elems) *
                             sizeof(T));
  for (std::int64_t e = 0; e < block_elems; ++e) {
    T acc = gen_value<T>(kind, 0, dst * block_elems + e);
    for (std::int64_t src = 1; src < n; ++src) {
      acc = apply(kind, acc,
                  gen_value<T>(kind, src, dst * block_elems + e));
    }
    std::memcpy(out.data() + e * sizeof(T), &acc, sizeof(T));
  }
  return out;
}

/// Run reduce_scatter on every rank and bitwise-compare each rank's result
/// against expected_block.  Returns the trace for metric assertions.
template <typename T>
std::shared_ptr<mps::Trace> check_reduce_scatter(
    ReduceKind kind, ReduceElem elem, std::int64_t n, int k,
    std::int64_t block_elems, const ReduceScatterOptions& options,
    const std::string& label) {
  const ReduceOp op = make_op(kind, elem);
  const std::int64_t b = block_elems * static_cast<std::int64_t>(sizeof(T));
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    const std::vector<std::byte> send =
        fill_send<T>(kind, n, rank, block_elems);
    std::vector<std::byte> recv(static_cast<std::size_t>(b), std::byte{0xEE});
    coll::reduce_scatter(comm, send, recv, b, op, options);
    const std::vector<std::byte> want =
        expected_block<T>(kind, n, rank, block_elems);
    // Not memcmp: data() is null for the zero-byte block sweep.
    if (recv != want) {
      errors[static_cast<std::size_t>(rank)] = "payload mismatch";
    }
  });
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "")
        << label << " rank " << r;
  }
  return rr.trace;
}

/// Run allreduce on every rank over `elems` elements and bitwise-compare
/// against the rank-order expectation.
template <typename T>
void check_allreduce(ReduceKind kind, ReduceElem elem, std::int64_t n, int k,
                     std::int64_t elems, const AllreduceOptions& options,
                     const std::string& label) {
  const ReduceOp op = make_op(kind, elem);
  const std::int64_t bytes = elems * static_cast<std::int64_t>(sizeof(T));
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  mps::RunResult rr = mps::run_spmd(n, k, [&](mps::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    std::vector<std::byte> send(static_cast<std::size_t>(bytes));
    for (std::int64_t e = 0; e < elems; ++e) {
      const T v = gen_value<T>(kind, rank, e);
      std::memcpy(send.data() + e * sizeof(T), &v, sizeof(T));
    }
    std::vector<std::byte> recv(static_cast<std::size_t>(bytes),
                                std::byte{0xEE});
    coll::allreduce(comm, send, recv, op, options);
    for (std::int64_t e = 0; e < elems; ++e) {
      T acc = gen_value<T>(kind, 0, e);
      for (std::int64_t src = 1; src < n; ++src) {
        acc = apply(kind, acc, gen_value<T>(kind, src, e));
      }
      T got;
      std::memcpy(&got, recv.data() + e * sizeof(T), sizeof(T));
      if (std::memcmp(&got, &acc, sizeof(T)) != 0) {
        errors[static_cast<std::size_t>(rank)] = "payload mismatch";
        break;
      }
    }
  });
  (void)rr;
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "")
        << label << " rank " << r;
  }
}

template <typename Fn>
void dispatch_elem(ReduceElem elem, Fn fn) {
  switch (elem) {
    case ReduceElem::kI32: fn.template operator()<std::int32_t>(); break;
    case ReduceElem::kI64: fn.template operator()<std::int64_t>(); break;
    case ReduceElem::kF32: fn.template operator()<float>(); break;
    case ReduceElem::kF64: fn.template operator()<double>(); break;
  }
}

std::string case_label(ReduceKind kind, ReduceElem elem, std::int64_t n,
                       int k, std::int64_t be, const std::string& algo,
                       const std::string& path) {
  return coll::to_string(kind) + "/" + coll::to_string(elem) + " n=" +
         std::to_string(n) + " k=" + std::to_string(k) + " be=" +
         std::to_string(be) + " " + algo + " " + path;
}

// ---------------------------------------------------------------------------
// The operator table itself, against hand-computed values.

TEST(ReduceOp, BuiltinTableMatchesManualCombine) {
  for (const ReduceKind kind : kKinds) {
    for (const ReduceElem elem : kElems) {
      dispatch_elem(elem, [&]<typename T>() {
        const ReduceOp op = make_op(kind, elem);
        ASSERT_EQ(op.elem_bytes(), static_cast<std::int64_t>(sizeof(T)));
        constexpr std::int64_t kCount = 17;
        std::vector<std::byte> acc(kCount * sizeof(T));
        std::vector<std::byte> in(kCount * sizeof(T));
        std::vector<T> want(kCount);
        for (std::int64_t i = 0; i < kCount; ++i) {
          const T a = gen_value<T>(kind, 0, i);
          const T v = gen_value<T>(kind, 1, i);
          std::memcpy(acc.data() + i * sizeof(T), &a, sizeof(T));
          std::memcpy(in.data() + i * sizeof(T), &v, sizeof(T));
          want[static_cast<std::size_t>(i)] = apply(kind, a, v);
        }
        op.combine(acc.data(), in.data(),
                   static_cast<std::int64_t>(acc.size()));
        EXPECT_EQ(std::memcmp(acc.data(), want.data(), acc.size()), 0)
            << op.name();
      });
    }
  }
}

TEST(ReduceOp, CacheTagSeparatesKindsAndWidths) {
  EXPECT_NE(ReduceOp::sum(ReduceElem::kI32).cache_tag(),
            ReduceOp::sum(ReduceElem::kI64).cache_tag());
  EXPECT_NE(ReduceOp::sum(ReduceElem::kI32).cache_tag(),
            ReduceOp::min(ReduceElem::kI32).cache_tag());
  // Same width, different type: the lowered plan is identical either way,
  // so sharing a tag is fine — the tag separates kind and width.
  EXPECT_EQ(ReduceOp::sum(ReduceElem::kI32).cache_tag(),
            ReduceOp::sum(ReduceElem::kF32).cache_tag());
}

// ---------------------------------------------------------------------------
// Every op × element type on one geometry, plan and oracle.

TEST(ReduceScatter, AllOpsAllTypesAllPaths) {
  const std::int64_t n = 8;
  const int k = 2;
  const std::int64_t be = 3;
  for (const ReduceKind kind : kKinds) {
    for (const ReduceElem elem : kElems) {
      for (const ExecutionPath path :
           {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
        ReduceScatterOptions options;
        options.path = path;
        dispatch_elem(elem, [&]<typename T>() {
          check_reduce_scatter<T>(
              kind, elem, n, k, be, options,
              case_label(kind, elem, n, k, be, "auto",
                         coll::to_string(path)));
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized geometry/algorithm sweep (n ≤ 32).

TEST(ReduceScatter, RandomizedSweepAllAlgorithms) {
  SplitMix64 rng(0xBADC0DE5);
  const std::int64_t ns[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32};
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t n =
        ns[rng.next_below(sizeof(ns) / sizeof(ns[0]))];
    const int k = 1 + static_cast<int>(rng.next_below(4));
    const std::int64_t be = static_cast<std::int64_t>(rng.next_below(6));
    const ReduceKind kind = kKinds[rng.next_below(4)];
    const ReduceElem elem = kElems[rng.next_below(4)];
    const ExecutionPath path =
        std::array{ExecutionPath::kReference,
                   ExecutionPath::kPipelined}[rng.next_below(2)];

    ReduceScatterOptions options;
    options.path = path;
    std::string algo = "auto";
    switch (rng.next_below(4)) {
      case 0:
        options.algorithm = ReduceAlgorithm::kDirect;
        algo = "direct";
        break;
      case 1:
        options.algorithm = ReduceAlgorithm::kBruck;
        options.radix = 2 + static_cast<std::int64_t>(
                                rng.next_below(static_cast<std::uint64_t>(
                                    std::max<std::int64_t>(1, n - 1))));
        algo = "bruck r=" + std::to_string(options.radix);
        break;
      case 2:
        if ((n & (n - 1)) == 0) {
          options.algorithm = ReduceAlgorithm::kPairwise;
          algo = "pairwise";
        }
        break;
      default:
        break;  // kAuto
    }
    // Exercise forced and tuned segmentation.
    options.segments = static_cast<int>(rng.next_below(3));

    dispatch_elem(elem, [&]<typename T>() {
      check_reduce_scatter<T>(kind, elem, n, k, be, options,
                              case_label(kind, elem, n, k, be, algo,
                                         coll::to_string(path)));
    });
  }
}

// ---------------------------------------------------------------------------
// Degenerate shapes: n = 1 and zero-byte blocks.

TEST(ReduceScatter, DegenerateShapes) {
  for (const ExecutionPath path :
       {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
    ReduceScatterOptions options;
    options.path = path;
    // n = 1: the result is this rank's own contribution.
    check_reduce_scatter<std::int64_t>(ReduceKind::kSum, ReduceElem::kI64, 1,
                                       2, 4, options, "n=1");
    // Zero-byte blocks: pure round counting, nothing on the fabric.
    check_reduce_scatter<float>(ReduceKind::kProd, ReduceElem::kF32, 6, 2, 0,
                                options, "b=0");
    // Forced algorithms on the degenerate shapes too.
    options.algorithm = ReduceAlgorithm::kBruck;
    options.radix = 2;
    check_reduce_scatter<std::int32_t>(ReduceKind::kMax, ReduceElem::kI32, 1,
                                       1, 2, options, "n=1 bruck");
    check_reduce_scatter<double>(ReduceKind::kMin, ReduceElem::kF64, 5, 3, 0,
                                 options, "b=0 bruck");
  }
}

// ---------------------------------------------------------------------------
// Allreduce: reduce-scatter + allgather, including lengths not divisible
// by n (padded tail) and the degenerate shapes.

TEST(Allreduce, RandomizedSweep) {
  SplitMix64 rng(0xA11D0CE5);
  const std::int64_t ns[] = {1, 2, 3, 5, 8, 13, 16, 32};
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n =
        ns[rng.next_below(sizeof(ns) / sizeof(ns[0]))];
    const int k = 1 + static_cast<int>(rng.next_below(3));
    const std::int64_t elems = static_cast<std::int64_t>(rng.next_below(50));
    const ReduceKind kind = kKinds[rng.next_below(4)];
    const ReduceElem elem = kElems[rng.next_below(4)];
    const ExecutionPath path =
        std::array{ExecutionPath::kReference,
                   ExecutionPath::kPipelined}[rng.next_below(2)];
    AllreduceOptions options;
    options.path = path;
    if (rng.next_below(2) == 0) {
      options.concat = coll::ConcatAlgorithm::kRing;
    }
    dispatch_elem(elem, [&]<typename T>() {
      check_allreduce<T>(kind, elem, n, k, elems, options,
                         case_label(kind, elem, n, k, elems, "allreduce",
                                    coll::to_string(path)));
    });
  }
}

// ---------------------------------------------------------------------------
// The user-function escape hatch end-to-end (XOR over u64 — commutative
// and associative, so every combining order is exact).

TEST(ReduceScatter, UserFunctionEscapeHatch) {
  const std::int64_t n = 9;
  const int k = 2;
  const std::int64_t be = 4;
  const std::int64_t b = be * 8;
  const ReduceOp op = ReduceOp::user(
      [](std::byte* acc, const std::byte* in, std::int64_t count, void*) {
        for (std::int64_t i = 0; i < count; ++i) {
          std::uint64_t a;
          std::uint64_t v;
          std::memcpy(&a, acc + i * 8, 8);
          std::memcpy(&v, in + i * 8, 8);
          a ^= v;
          std::memcpy(acc + i * 8, &a, 8);
        }
      },
      /*elem_bytes=*/8);
  for (const ExecutionPath path :
       {ExecutionPath::kReference, ExecutionPath::kPipelined}) {
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    mps::run_spmd(n, k, [&](mps::Communicator& comm) {
      const std::int64_t rank = comm.rank();
      std::vector<std::byte> send(static_cast<std::size_t>(n * b));
      fill_random_bytes(send, 77 + static_cast<std::uint64_t>(rank));
      std::vector<std::byte> recv(static_cast<std::size_t>(b));
      ReduceScatterOptions options;
      options.path = path;
      coll::reduce_scatter(comm, send, recv, b, op, options);
      // Expected: XOR of every rank's block for `rank`.
      std::vector<std::byte> want(static_cast<std::size_t>(b), std::byte{0});
      for (std::int64_t src = 0; src < n; ++src) {
        std::vector<std::byte> other(static_cast<std::size_t>(n * b));
        fill_random_bytes(other, 77 + static_cast<std::uint64_t>(src));
        for (std::int64_t i = 0; i < b; ++i) {
          want[static_cast<std::size_t>(i)] ^=
              other[static_cast<std::size_t>(rank * b + i)];
        }
      }
      if (std::memcmp(recv.data(), want.data(), recv.size()) != 0) {
        errors[static_cast<std::size_t>(rank)] = "payload mismatch";
      }
    });
    for (std::int64_t r = 0; r < n; ++r) {
      EXPECT_EQ(errors[static_cast<std::size_t>(r)], "")
          << "user op, path " << coll::to_string(path) << ", rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Executed traces against the closed-form costs.

std::shared_ptr<mps::Trace> traced_reduce(std::int64_t n, int k,
                                          std::int64_t be,
                                          const ReduceScatterOptions& options) {
  return check_reduce_scatter<std::int64_t>(ReduceKind::kSum,
                                            ReduceElem::kI64, n, k, be,
                                            options, "traced");
}

TEST(ReduceScatter, TraceMatchesClosedFormCosts) {
  for (const auto& [n, k, r] : {std::tuple<std::int64_t, int, std::int64_t>{
                                    12, 2, 3},
                                {16, 3, 2}}) {
    const std::int64_t be = 2;
    const std::int64_t b = be * 8;
    ReduceScatterOptions options;
    options.algorithm = ReduceAlgorithm::kBruck;
    options.radix = r;
    const model::CostMetrics got = traced_reduce(n, k, be, options)->metrics();
    const model::CostMetrics want = model::reduce_bruck_cost(n, r, k, b);
    EXPECT_EQ(got.c1, want.c1) << "n=" << n;
    EXPECT_EQ(got.c2, want.c2) << "n=" << n;
    EXPECT_EQ(got.total_bytes, want.total_bytes) << "n=" << n;
    // The reduce skeleton moves exactly n−1 blocks per rank.
    EXPECT_EQ(want.max_rank_sent, (n - 1) * b);
  }
  // The direct plan is the per-pair ring-distance exchange: index_direct's
  // schedule, message for message.
  const std::int64_t n = 12;
  const int k = 2;
  const std::int64_t be = 5;
  ReduceScatterOptions direct;
  direct.algorithm = ReduceAlgorithm::kDirect;
  sched::Schedule executed = traced_reduce(n, k, be, direct)->to_schedule();
  sched::Schedule built = sched::build_index_direct(n, k, be * 8);
  executed.normalize();
  built.normalize();
  EXPECT_TRUE(executed == built);
  EXPECT_EQ(executed.metrics(), model::reduce_direct_cost(n, k, be * 8));
}

TEST(ReduceScatter, BytesReducedAccounting) {
  const std::int64_t n = 10;
  const int k = 2;
  const std::int64_t be = 4;
  const std::int64_t b = be * 8;
  for (const ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kBruck, ReduceAlgorithm::kDirect}) {
    ReduceScatterOptions options;
    options.algorithm = algorithm;
    options.radix = 2;
    const auto trace = traced_reduce(n, k, be, options);
    const mps::PlanStats stats = trace->plan_stats();
    EXPECT_EQ(stats.uses, static_cast<std::uint64_t>(n));
    // Every rank combines exactly the n−1 foreign contributions.
    EXPECT_EQ(stats.bytes_reduced, n * (n - 1) * b)
        << coll::to_string(algorithm);
    EXPECT_EQ(stats.bytes_sent, n * (n - 1) * b);
  }
}

// ---------------------------------------------------------------------------
// Plan anatomy: reduce plans describe themselves as reductions and their
// receive messages carry the combine marker.

TEST(ReduceScatter, DescribeShowsCombine) {
  const auto plan = coll::Plan::lower_reduce_bruck(8, 2, 2);
  const std::string text = plan->describe();
  EXPECT_NE(text.find("reduce/bruck"), std::string::npos) << text;
  EXPECT_NE(text.find("(combine)"), std::string::npos) << text;
  const auto direct = coll::Plan::lower_reduce_direct(8, 2);
  EXPECT_NE(direct->describe().find("reduce/direct"), std::string::npos);
}

}  // namespace
}  // namespace bruck
