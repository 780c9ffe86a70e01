// The benchmark's workloads: seeded closed-loop op sequences over the
// public coll:: API, the per-rank data they move, and the checks that the
// data arrived intact.
//
// Every workload runs on kRanks ranks (= the core count of the reference
// box, so no rank is ever descheduled by another).  One "op" is one blocking
// collective call, or one batch of kBatch nonblocking ialltoall calls
// submitted together and completed with wait_all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coll/layout.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "mps/bootstrap.hpp"
#include "mps/communicator.hpp"

namespace bench {

inline constexpr std::int64_t kRanks = 4;
/// ialltoall requests per batch op (mixed.thread).
inline constexpr int kBatch = 4;
/// Every kVerifyEvery-th timed op is checked (every warm-up op is).
inline constexpr std::size_t kVerifyEvery = 64;

enum class OpKind : std::uint8_t {
  kAlltoall,         ///< blocking alltoall, contiguous
  kAllgather,        ///< blocking allgather, contiguous
  kReduceScatter,    ///< blocking reduce_scatter, i32 sum
  kAllreduce,        ///< blocking allreduce, f32 sum over n·b bytes
  kAlltoallBatch,    ///< kBatch same-shape ialltoall, then wait_all
  kAlltoallv,        ///< blocking alltoallv over one seeded count matrix
  kAlltoallStrided,  ///< blocking alltoall, Layout::vector(64, 64, 128)
};

struct Op {
  OpKind kind = OpKind::kAlltoall;
  /// Index into Workload::sizes, or into Workload::matrices (kAlltoallv).
  std::uint16_t shape = 0;
  /// Index into Workload::classes.
  std::uint8_t cls = 0;
};

struct WorkloadSpec {
  std::string_view name;
  bruck::mps::FabricBackend fabric;
  int k;
  /// Timed ops per launch: about one second of work on the reference box.
  std::int64_t ops_per_launch;
  std::string_view why;
};

[[nodiscard]] std::span<const WorkloadSpec> workload_specs();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// A group of ops reported as one model row: a collective at one payload
/// (mixed.thread folds its irregular and many-size ops into one row each).
struct OpClass {
  std::string name;
  /// Every distinct geometry of the class, once.
  std::vector<Op> shapes;
};

struct Workload {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::vector<std::int64_t> sizes;
  /// Row-major kRanks × kRanks byte-count matrices (kAlltoallv).
  std::vector<std::vector<std::int64_t>> matrices;
  std::vector<OpClass> classes;
  /// Every distinct geometry once: the set-up pass of each launch.
  std::vector<Op> warmup;
  /// The seeded closed-loop sequence of the timed phase.
  std::vector<Op> timed;
};

[[nodiscard]] Workload make_workload(const WorkloadSpec& spec,
                                     std::uint64_t seed,
                                     std::int64_t timed_ops);

/// Bytes one rank moves per op, counted as nccl-tests counts bus bytes.
[[nodiscard]] double bus_bytes(const Workload& w, const Op& op);

/// False for ops that run on the progress engine (kAlltoallBatch).
[[nodiscard]] bool is_blocking(const Op& op);

/// The PlanCache keys the facade resolves for `op` (tuner picks and
/// segment resolution included), written to `out`; returns how many (2
/// for allreduce, else 1).  kAlltoallBatch reports its unfused key.
int plan_keys(const Workload& w, const Op& op, bruck::coll::PlanKey out[2]);

/// One rank's data: its own send buffers (a fixed h(rank, offset) pattern,
/// so nothing is refilled between ops), one receive area, and every
/// other rank's pattern, so received data is checked without any
/// communication.  Integer-valued reduction inputs keep f32 sums exact.
class RankData {
 public:
  RankData(const Workload& w, std::int64_t rank);

  /// Run `op` on `comm`, chaining blocking ops from `round`; returns the
  /// next free round.
  int run(bruck::mps::Communicator& comm, const Op& op, int round);

  /// Zero the receive bytes `op` writes, so stale correct data cannot hide
  /// a failure.
  void clear(const Op& op);

  /// True when the receive area holds exactly what `op` must deliver.
  [[nodiscard]] bool verify(const Op& op) const;

  /// 64-bit FNV-1a over the receive bytes `op` writes.
  [[nodiscard]] std::uint64_t digest(const Op& op) const;

 private:
  [[nodiscard]] std::int64_t recv_extent(const Op& op) const;
  [[nodiscard]] std::span<const std::byte> pattern(std::int64_t rank,
                                                   std::int64_t offset,
                                                   std::int64_t bytes) const;
  [[nodiscard]] bool equal(std::int64_t recv_offset,
                           std::span<const std::byte> expected) const;

  const Workload* w_;
  std::int64_t rank_;
  bruck::coll::Layout strided_;
  bruck::coll::ReduceOp sum_i32_;
  bruck::coll::ReduceOp sum_f32_;
  std::vector<std::vector<std::byte>> patterns_;  ///< per rank, byte ops
  std::vector<std::byte> send_i32_;
  std::vector<std::byte> send_f32_;
  std::vector<std::byte> sum_i32_bytes_;  ///< Σ over ranks of send_i32_
  std::vector<std::byte> sum_f32_bytes_;  ///< Σ over ranks of send_f32_
  std::vector<std::byte> recv_;
};

}  // namespace bench
