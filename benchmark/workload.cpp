#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "coll/api.hpp"
#include "coll/request.hpp"
#include "model/costs.hpp"
#include "model/tuner.hpp"

namespace bench {

namespace bc = bruck::coll;
namespace bm = bruck::model;
using bruck::mps::FabricBackend;

namespace {

// The why strings are repeated verbatim in BENCHMARK.json.
constexpr WorkloadSpec kSpecs[] = {
    {"small.shm", FabricBackend::kShm, 1, 140000,
     "8 B-1 KiB blocks on shm rings: the ring moves bytes in about 1 us, so "
     "the library's per-call work (facade, tuner memo, PlanCache, executor, "
     "allocations) dominates"},
    {"small.socket", FabricBackend::kSocket, 1, 28000,
     "the same op sequence over loopback TCP: per-message syscalls and epoll "
     "wakeups dominate; beside small.shm it separates transport cost from "
     "library cost"},
    {"large.shm", FabricBackend::kShm, 2, 1300,
     "256 KiB blocks (1 MiB per rank per op) on shm at k=2: bandwidth-bound "
     "copies, segmentation and combine kernels, with multi-port rounds"},
    {"mixed.thread", FabricBackend::kThread, 2, 40000,
     "thread fabric: fused ialltoall batches, irregular alltoallv, strided "
     "layouts and 600 allgather sizes against the 256-entry PlanCache"},
};

constexpr std::int64_t kStridedCount = 64;
constexpr std::int64_t kStridedBlocklen = 64;
constexpr std::int64_t kStridedStride = 128;
constexpr int kMatrices = 16;
constexpr int kAllgatherSizes = 600;
constexpr std::int64_t kMaxPairBytes = 16384;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// h(rank, word): the fixed data pattern, one 64-bit word at a time.
std::uint64_t pattern_word(std::uint64_t seed, std::int64_t rank,
                           std::uint64_t salt, std::uint64_t word) {
  const std::uint64_t stream =
      mix64(static_cast<std::uint64_t>(rank) * 0x100000001B3ull + salt);
  return mix64(seed ^ stream ^ word * 0xD6E8FEB86659FD93ull);
}

/// splitmix64 stream: the op-sequence and count-matrix generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_++); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in (0, 1].
  double unit() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
  double normal() {
    return std::sqrt(-2.0 * std::log(unit())) *
           std::cos(6.283185307179586 * unit());
  }

 private:
  std::uint64_t state_;
};

const char* kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAlltoall:
      return "alltoall";
    case OpKind::kAllgather:
      return "allgather";
    case OpKind::kReduceScatter:
      return "reduce_scatter";
    case OpKind::kAllreduce:
      return "allreduce";
    case OpKind::kAlltoallBatch:
      return "ialltoall_x4";
    case OpKind::kAlltoallv:
      return "alltoallv";
    case OpKind::kAlltoallStrided:
      return "alltoall_vector";
  }
  return "?";
}

bc::Layout strided_layout() {
  return bc::Layout::vector(kStridedCount, kStridedBlocklen, kStridedStride);
}

/// Bytes rank i sends rank j under count matrix m.
std::int64_t pair(const std::vector<std::int64_t>& m, std::int64_t i,
                  std::int64_t j) {
  return m[static_cast<std::size_t>(i * kRanks + j)];
}

std::int64_t row_sum(const std::vector<std::int64_t>& m, std::int64_t row) {
  std::int64_t s = 0;
  for (std::int64_t j = 0; j < kRanks; ++j) s += pair(m, row, j);
  return s;
}

std::int64_t col_sum(const std::vector<std::int64_t>& m, std::int64_t col) {
  std::int64_t s = 0;
  for (std::int64_t i = 0; i < kRanks; ++i) s += pair(m, i, col);
  return s;
}

/// Bytes of pattern data rank `rank` sends in `op` (typed data excluded).
std::int64_t pattern_extent(const Workload& w, const Op& op,
                            std::int64_t rank) {
  const std::int64_t b = w.sizes[op.shape];
  switch (op.kind) {
    case OpKind::kAlltoall:
      return kRanks * b;
    case OpKind::kAllgather:
      return b;
    case OpKind::kAlltoallBatch:
      return kBatch * kRanks * b;
    case OpKind::kAlltoallv:
      return row_sum(w.matrices[op.shape], rank);
    case OpKind::kAlltoallStrided:
      return strided_layout().span_bytes(kRanks);
    case OpKind::kReduceScatter:
    case OpKind::kAllreduce:
      return 0;
  }
  return 0;
}

void add_class(Workload& w, std::string name, std::vector<Op> shapes) {
  const auto cls = static_cast<std::uint8_t>(w.classes.size());
  for (Op& op : shapes) op.cls = cls;
  w.warmup.insert(w.warmup.end(), shapes.begin(), shapes.end());
  w.classes.push_back(OpClass{std::move(name), std::move(shapes)});
}

void fill_pattern(std::vector<std::byte>& out, std::uint64_t seed,
                  std::int64_t rank) {
  for (std::size_t off = 0; off < out.size(); off += 8) {
    const std::uint64_t v = pattern_word(seed, rank, 1, off / 8);
    std::memcpy(out.data() + off, &v,
                std::min<std::size_t>(8, out.size() - off));
  }
}

}  // namespace

std::span<const WorkloadSpec> workload_specs() { return kSpecs; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Workload make_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       std::int64_t timed_ops) {
  Workload w;
  w.spec = &spec;
  w.seed = seed;
  Rng rng(seed ^ 0x5EEDull);
  w.timed.reserve(static_cast<std::size_t>(timed_ops));

  if (spec.name != "mixed.thread") {
    w.sizes = spec.name == "large.shm"
                  ? std::vector<std::int64_t>{256 << 10}
                  : std::vector<std::int64_t>{8, 64, 512, 1024};
    for (const OpKind kind : {OpKind::kAlltoall, OpKind::kAllgather,
                              OpKind::kReduceScatter, OpKind::kAllreduce}) {
      for (std::size_t s = 0; s < w.sizes.size(); ++s) {
        add_class(w,
                  std::string(kind_name(kind)) + "." +
                      std::to_string(w.sizes[s]),
                  {Op{kind, static_cast<std::uint16_t>(s)}});
      }
    }
    for (std::int64_t i = 0; i < timed_ops; ++i) {
      w.timed.push_back(w.classes[rng.below(w.classes.size())].shapes[0]);
    }
    return w;
  }

  // mixed.thread.  sizes[0..1]: the ialltoall batch blocks; sizes[2..]: the
  // allgather blocks, 600 distinct values so that concat plans (keyed per
  // exact block size) overflow the PlanCache's LRU bound.
  w.sizes = {256, 1024};
  for (int i = 0; i < kAllgatherSizes; ++i) w.sizes.push_back(16 + 8 * i);
  for (int m = 0; m < kMatrices; ++m) {
    std::vector<std::int64_t> counts(static_cast<std::size_t>(kRanks * kRanks));
    for (std::int64_t& c : counts) {
      // Log-normal around 512 B: most pairs small, a few heavy.
      c = std::clamp<std::int64_t>(
          std::llround(std::exp(std::log(512.0) + rng.normal())), 0,
          kMaxPairBytes);
    }
    w.matrices.push_back(std::move(counts));
  }
  add_class(w, "ialltoall_x4.256", {Op{OpKind::kAlltoallBatch, 0}});
  add_class(w, "ialltoall_x4.1024", {Op{OpKind::kAlltoallBatch, 1}});
  std::vector<Op> v;
  for (int m = 0; m < kMatrices; ++m) {
    v.push_back(Op{OpKind::kAlltoallv, static_cast<std::uint16_t>(m)});
  }
  add_class(w, "alltoallv", std::move(v));
  add_class(w, "alltoall_vector", {Op{OpKind::kAlltoallStrided, 0}});
  std::vector<Op> g;
  for (int i = 0; i < kAllgatherSizes; ++i) {
    g.push_back(Op{OpKind::kAllgather, static_cast<std::uint16_t>(2 + i)});
  }
  add_class(w, "allgather", std::move(g));

  for (std::int64_t i = 0; i < timed_ops; ++i) {
    const std::uint64_t u = rng.below(100);
    const OpClass& c = u < 30   ? w.classes[rng.below(2)]
                       : u < 55 ? w.classes[2]
                       : u < 75 ? w.classes[3]
                                : w.classes[4];
    w.timed.push_back(c.shapes[rng.below(c.shapes.size())]);
  }
  return w;
}

double bus_bytes(const Workload& w, const Op& op) {
  const double n = static_cast<double>(kRanks);
  const double b = static_cast<double>(w.sizes[op.shape]);
  switch (op.kind) {
    case OpKind::kAlltoall:
    case OpKind::kAllgather:
    case OpKind::kReduceScatter:
      return (n - 1) * b;
    case OpKind::kAllreduce:
      // 2(n−1)/n · S with S = n·b.
      return 2 * (n - 1) * b;
    case OpKind::kAlltoallBatch:
      return kBatch * (n - 1) * b;
    case OpKind::kAlltoallv: {
      // Mean over ranks of the off-diagonal row sum.
      const std::vector<std::int64_t>& m = w.matrices[op.shape];
      double off_diagonal = 0;
      for (std::int64_t i = 0; i < kRanks; ++i) {
        for (std::int64_t j = 0; j < kRanks; ++j) {
          if (i != j) off_diagonal += static_cast<double>(pair(m, i, j));
        }
      }
      return off_diagonal / n;
    }
    case OpKind::kAlltoallStrided:
      return (n - 1) * static_cast<double>(strided_layout().block_bytes());
  }
  return 0;
}

bool is_blocking(const Op& op) { return op.kind != OpKind::kAlltoallBatch; }

int plan_keys(const Workload& w, const Op& op, bc::PlanKey out[2]) {
  const std::int64_t n = kRanks;
  const int k = w.spec->k;
  const bm::LinearModel machine = bm::effective_machine(bm::ibm_sp1());
  const auto index_key = [&](std::int64_t b, std::uint64_t layout) {
    const bc::AlltoallPlan p = bc::plan_alltoall(n, k, b);
    const int seg =
        bm::resolve_segment_knob(p.segments_hint, true, machine, p.predicted);
    return bc::index_plan_key(p.algorithm, n, k, p.radix, seg, layout);
  };
  const auto concat_key = [&](std::int64_t b) {
    const bm::ConcatLastRound strategy = bm::resolve_concat_last_round(
        n, k, b, bm::ConcatLastRound::kAuto);
    const int seg = bm::resolve_segment_knob(
        0, true, machine, bm::concat_bruck_cost(n, k, b, strategy));
    return bc::concat_plan_key(bc::ConcatAlgorithm::kBruck, n, k, strategy, b,
                               seg);
  };
  const auto reduce_key = [&](std::int64_t b, const bc::ReduceOp& rop) {
    const bc::detail::ReducePlanChoice c = bc::detail::resolve_reduce_algorithm(
        n, k, b, bc::ReduceAlgorithm::kAuto, 0, bm::ibm_sp1(),
        bm::RadixSet::kAll);
    const int seg =
        bm::resolve_segment_knob(c.segments_hint, true, machine, c.predicted);
    return bc::reduce_plan_key(c.algorithm, n, k, c.radix, rop, seg);
  };

  const std::int64_t b = w.sizes[op.shape];
  switch (op.kind) {
    case OpKind::kAlltoall:
    case OpKind::kAlltoallBatch:
      out[0] = index_key(b, 0);
      return 1;
    case OpKind::kAlltoallStrided: {
      const bc::Layout l = strided_layout();
      out[0] = index_key(l.block_bytes(), bc::layout_digest(&l, &l));
      return 1;
    }
    case OpKind::kAllgather:
      out[0] = concat_key(b);
      return 1;
    case OpKind::kReduceScatter:
      out[0] = reduce_key(b, bc::ReduceOp::sum(bc::ReduceElem::kI32));
      return 1;
    case OpKind::kAllreduce:
      // S = n·b splits into n blocks of exactly b (b is a multiple of 4).
      out[0] = reduce_key(b, bc::ReduceOp::sum(bc::ReduceElem::kF32));
      out[1] = concat_key(b);
      return 2;
    case OpKind::kAlltoallv: {
      const std::vector<std::int64_t>& m = w.matrices[op.shape];
      std::int64_t total = 0;
      std::int64_t max_pair = 0;
      for (const std::int64_t c : m) {
        total += c;
        max_pair = std::max(max_pair, c);
      }
      const bm::VectorIndexChoice choice =
          bm::pick_indexv_cached(n, k, total, max_pair, machine);
      const int seg =
          bm::resolve_segment_knob(0, true, machine, choice.predicted);
      out[0] = bc::indexv_plan_key(
          choice.direct ? bc::IndexAlgorithm::kDirect
                        : bc::IndexAlgorithm::kBruck,
          n, k, choice.radix, bc::shape_digest(m), seg);
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// RankData

RankData::RankData(const Workload& w, std::int64_t rank)
    : w_(&w),
      rank_(rank),
      strided_(strided_layout()),
      sum_i32_(bc::ReduceOp::sum(bc::ReduceElem::kI32)),
      sum_f32_(bc::ReduceOp::sum(bc::ReduceElem::kF32)) {
  std::int64_t max_pattern = 0;
  std::int64_t max_typed = 0;
  std::int64_t max_recv = 0;
  for (const Op& op : w.warmup) {
    for (std::int64_t r = 0; r < kRanks; ++r) {
      max_pattern = std::max(max_pattern, pattern_extent(w, op, r));
    }
    if (op.kind == OpKind::kReduceScatter || op.kind == OpKind::kAllreduce) {
      max_typed = std::max(max_typed, kRanks * w.sizes[op.shape]);
    }
    if (op.kind == OpKind::kAlltoallv) {
      for (std::int64_t c = 0; c < kRanks; ++c) {
        max_recv = std::max(max_recv, col_sum(w.matrices[op.shape], c));
      }
    } else {
      max_recv = std::max(max_recv, recv_extent(op));
    }
  }

  for (std::int64_t r = 0; r < kRanks; ++r) {
    patterns_.emplace_back(static_cast<std::size_t>(max_pattern));
    fill_pattern(patterns_.back(), w.seed, r);
  }
  const auto elems = static_cast<std::size_t>(max_typed / 4);
  std::vector<std::int32_t> own_i(elems), sum_i(elems, 0);
  std::vector<float> own_f(elems), sum_f(elems, 0.0f);
  for (std::int64_t r = 0; r < kRanks; ++r) {
    for (std::size_t e = 0; e < elems; ++e) {
      const std::int32_t vi =
          static_cast<std::int32_t>(pattern_word(w.seed, r, 2, e) & 0xFFFF);
      const float vf =
          static_cast<float>(pattern_word(w.seed, r, 3, e) & 0x3FF);
      sum_i[e] += vi;
      sum_f[e] += vf;
      if (r == rank) {
        own_i[e] = vi;
        own_f[e] = vf;
      }
    }
  }
  const auto as_bytes = [](const auto& v) {
    std::vector<std::byte> out(v.size() * sizeof(v[0]));
    if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
    return out;
  };
  send_i32_ = as_bytes(own_i);
  send_f32_ = as_bytes(own_f);
  sum_i32_bytes_ = as_bytes(sum_i);
  sum_f32_bytes_ = as_bytes(sum_f);
  recv_.resize(static_cast<std::size_t>(max_recv));
}

std::span<const std::byte> RankData::pattern(std::int64_t rank,
                                             std::int64_t offset,
                                             std::int64_t bytes) const {
  return std::span<const std::byte>(patterns_[static_cast<std::size_t>(rank)])
      .subspan(static_cast<std::size_t>(offset),
               static_cast<std::size_t>(bytes));
}

std::int64_t RankData::recv_extent(const Op& op) const {
  const std::int64_t b = w_->sizes[op.shape];
  switch (op.kind) {
    case OpKind::kAlltoall:
    case OpKind::kAllgather:
    case OpKind::kAllreduce:
      return kRanks * b;
    case OpKind::kReduceScatter:
      return b;
    case OpKind::kAlltoallBatch:
      return kBatch * kRanks * b;
    case OpKind::kAlltoallv:
      return col_sum(w_->matrices[op.shape], rank_);
    case OpKind::kAlltoallStrided:
      return strided_.span_bytes(kRanks);
  }
  return 0;
}

int RankData::run(bruck::mps::Communicator& comm, const Op& op, int round) {
  const std::int64_t n = kRanks;
  const std::int64_t b = w_->sizes[op.shape];
  const std::span<const std::byte> own(
      patterns_[static_cast<std::size_t>(rank_)]);
  const std::span<std::byte> recv(recv_);
  const auto first = [](auto s, std::int64_t bytes) {
    return s.first(static_cast<std::size_t>(bytes));
  };
  switch (op.kind) {
    case OpKind::kAlltoall: {
      bc::AlltoallOptions o;
      o.start_round = round;
      return bc::alltoall(comm, first(own, n * b), first(recv, n * b), b, o);
    }
    case OpKind::kAllgather: {
      bc::AllgatherOptions o;
      o.start_round = round;
      return bc::allgather(comm, first(own, b), first(recv, n * b), b, o);
    }
    case OpKind::kReduceScatter: {
      bc::ReduceScatterOptions o;
      o.start_round = round;
      return bc::reduce_scatter(
          comm, first(std::span<const std::byte>(send_i32_), n * b),
          first(recv, b), b, sum_i32_, o);
    }
    case OpKind::kAllreduce: {
      bc::AllreduceOptions o;
      o.start_round = round;
      return bc::allreduce(
          comm, first(std::span<const std::byte>(send_f32_), n * b),
          first(recv, n * b), sum_f32_, o);
    }
    case OpKind::kAlltoallBatch: {
      std::array<bc::Request, kBatch> requests;
      for (int m = 0; m < kBatch; ++m) {
        const auto off = static_cast<std::size_t>(m * n * b);
        requests[static_cast<std::size_t>(m)] = bc::ialltoall(
            comm, own.subspan(off, static_cast<std::size_t>(n * b)),
            recv.subspan(off, static_cast<std::size_t>(n * b)), b);
      }
      bc::wait_all(requests);
      return round;
    }
    case OpKind::kAlltoallv: {
      const std::vector<std::int64_t>& m = w_->matrices[op.shape];
      bc::AlltoallvOptions o;
      o.start_round = round;
      return bc::alltoallv(comm, first(own, row_sum(m, rank_)),
                           first(recv, col_sum(m, rank_)), m, {}, {}, o);
    }
    case OpKind::kAlltoallStrided: {
      bc::AlltoallOptions o;
      o.start_round = round;
      const std::int64_t span = strided_.span_bytes(n);
      return bc::alltoall(comm, first(own, span), first(recv, span), strided_,
                          strided_, o);
    }
  }
  throw std::logic_error("unknown op kind");
}

void RankData::clear(const Op& op) {
  std::memset(recv_.data(), 0, static_cast<std::size_t>(recv_extent(op)));
}

bool RankData::equal(std::int64_t recv_offset,
                     std::span<const std::byte> expected) const {
  return expected.empty() ||
         std::memcmp(recv_.data() + recv_offset, expected.data(),
                     expected.size()) == 0;
}

bool RankData::verify(const Op& op) const {
  const std::int64_t n = kRanks;
  const std::int64_t r = rank_;
  const std::int64_t b = w_->sizes[op.shape];
  switch (op.kind) {
    case OpKind::kAlltoall:
      for (std::int64_t i = 0; i < n; ++i) {
        if (!equal(i * b, pattern(i, r * b, b))) return false;
      }
      return true;
    case OpKind::kAllgather:
      for (std::int64_t i = 0; i < n; ++i) {
        if (!equal(i * b, pattern(i, 0, b))) return false;
      }
      return true;
    case OpKind::kReduceScatter:
      return equal(0, std::span<const std::byte>(sum_i32_bytes_)
                          .subspan(static_cast<std::size_t>(r * b),
                                   static_cast<std::size_t>(b)));
    case OpKind::kAllreduce:
      return equal(0, std::span<const std::byte>(sum_f32_bytes_)
                          .first(static_cast<std::size_t>(n * b)));
    case OpKind::kAlltoallBatch:
      for (std::int64_t m = 0; m < kBatch; ++m) {
        for (std::int64_t i = 0; i < n; ++i) {
          if (!equal(m * n * b + i * b, pattern(i, m * n * b + r * b, b))) {
            return false;
          }
        }
      }
      return true;
    case OpKind::kAlltoallv: {
      // Packed layouts: rank i's block for r starts at the prefix of row i;
      // it lands at the prefix of column r.
      const std::vector<std::int64_t>& m = w_->matrices[op.shape];
      std::int64_t landed = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t sent_from = 0;
        for (std::int64_t j = 0; j < r; ++j) sent_from += pair(m, i, j);
        const std::int64_t c = pair(m, i, r);
        if (!equal(landed, pattern(i, sent_from, c))) return false;
        landed += c;
      }
      return true;
    }
    case OpKind::kAlltoallStrided: {
      // Pieces carry sender i's block r; the gaps between pieces must stay
      // untouched (cleared to zero).
      const std::int64_t span = strided_.block_span();
      const std::int64_t pieces = strided_.count();
      const std::int64_t len = strided_.blocklen();
      const std::int64_t stride = strided_.stride();
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t p = 0; p < pieces; ++p) {
          const std::int64_t at = i * span + p * stride;
          if (!equal(at, pattern(i, r * span + p * stride, len))) return false;
          if (p + 1 < pieces &&
              std::any_of(recv_.begin() + at + len, recv_.begin() + at + stride,
                          [](std::byte x) { return x != std::byte{0}; })) {
            return false;
          }
        }
      }
      return true;
    }
  }
  return false;
}

std::uint64_t RankData::digest(const Op& op) const {
  const auto bytes = static_cast<std::size_t>(recv_extent(op));
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::size_t off = 0;
  for (; off + 8 <= bytes; off += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, recv_.data() + off, 8);
    h = (h ^ word) * 0x100000001B3ull;
  }
  for (; off < bytes; ++off) {
    h = (h ^ static_cast<std::uint64_t>(recv_[off])) * 0x100000001B3ull;
  }
  return h;
}

}  // namespace bench
