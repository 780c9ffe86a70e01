// Memoization of compiled plans per communicator geometry.
//
// A key identifies everything a plan depends on: the collective, the
// resolved algorithm (never kAuto — the tuner's radix choice and the concat
// last-round resolution happen *before* keying, so the tuned parameters are
// part of the key), n, k, radix/strategy, and the block-size class.  Index
// plans are block-size independent (class 0: one plan serves every b);
// concat plans are lowered per exact block size because the byte-split
// table partition of Section 4.2 depends on b.
//
// The cache is process-global and thread-safe: all rank threads of a fabric
// share it, so the first collective call on a new geometry lowers once and
// every other rank (and every later call) takes the hit path — zero
// re-planning work.
// Irregular (vector) plans add a *shape digest* to the key: a hash of the
// log2-bucketed count vector (bucket(c) = bit_width(c), with 0 its own
// bucket).  Irregular plans are shape-free — any same-structure plan
// executes any shape correctly — so bucketing is purely a cache policy:
// a skewed workload whose counts jitter within size classes keeps hitting
// one plan, while a genuinely different shape (different buckets) lowers
// its own entry.  A digest of 0 marks a uniform key.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "coll/api.hpp"
#include "coll/plan.hpp"

namespace bruck::coll {

struct PlanKey {
  PlanCollective collective = PlanCollective::kIndex;
  /// Resolved IndexAlgorithm / ConcatAlgorithm enumerator value.
  std::uint8_t algorithm = 0;
  std::int64_t n = 1;
  int k = 1;
  /// Index Bruck radix; 0 for every other algorithm.
  std::int64_t radix = 0;
  /// Resolved model::ConcatLastRound enumerator for concat Bruck; 0 else.
  std::uint8_t strategy = 0;
  /// 0 for index plans (block-size independent); exact b for concat plans.
  std::int64_t block_class = 0;
  /// Wire segments per message (resolved — the tuner's pick or the
  /// caller's explicit count — never 0).  Segmentation does not change
  /// the lowered round/cell structure, but keying it keeps
  /// "one key = one complete execution recipe"; the cost is one extra
  /// lowering per distinct segment count on a geometry (e.g. an index
  /// workload alternating between a small-b and a large-b auto-tuned call),
  /// bounded by the LRU capacity — never per-call re-planning.
  int segments = 1;
  /// 0 for uniform plans; the bucketed shape digest (never 0) for irregular
  /// (vector) plans.  See the file comment.
  std::uint64_t shape_digest = 0;
  /// 0 for non-reduction plans; ReduceOp::cache_tag() — (kind << 16) |
  /// element width — for reduction plans.  The lowered structure is
  /// op-independent, but keying the op keeps "one key = one complete
  /// execution recipe".
  std::uint32_t reduce_tag = 0;
  /// 0 when both user-buffer layouts are absent or contiguous — a
  /// contiguous-layout call keys *identically* to today's plain calls (no
  /// cache blow-up) — else coll::layout_digest(send, recv): a
  /// contiguity-class bucket hash, never 0.  Like shape_digest this is
  /// pure cache policy: plans are layout-free (layouts resolve at run
  /// time), so the digest only groups entries; jittered strides of one
  /// shape class keep hitting one plan.
  std::uint64_t layout_digest = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const;
};

/// Make the canonical key for a *resolved* index algorithm choice
/// (`algorithm` must not be kAuto; radix is ignored unless kBruck).
/// Every key ctor takes a trailing `layout` digest (from
/// coll::layout_digest; default 0 = contiguous) — lower_from_key ignores
/// it, the cache does not.
[[nodiscard]] PlanKey index_plan_key(IndexAlgorithm algorithm, std::int64_t n,
                                     int k, std::int64_t radix,
                                     int segments = 1,
                                     std::uint64_t layout = 0);

/// Make the canonical key for a *resolved* concat algorithm choice
/// (`strategy` must not be kAuto when algorithm is kBruck).
[[nodiscard]] PlanKey concat_plan_key(ConcatAlgorithm algorithm,
                                      std::int64_t n, int k,
                                      model::ConcatLastRound strategy,
                                      std::int64_t block_bytes,
                                      int segments = 1,
                                      std::uint64_t layout = 0);

/// Make the canonical key for a *resolved* reduce-scatter algorithm choice
/// (`algorithm` must not be kAuto; radix is ignored unless kBruck; `op`
/// contributes its cache_tag).
[[nodiscard]] PlanKey reduce_plan_key(ReduceAlgorithm algorithm,
                                      std::int64_t n, int k,
                                      std::int64_t radix, const ReduceOp& op,
                                      int segments = 1,
                                      std::uint64_t layout = 0);

/// Make the key of a rooted intra-group stage plan (root = rank 0; all
/// three are block-size independent, so block_class stays 0).  `collective`
/// must be kGather, kScatter, or kBcast; the algorithm is implied (binomial
/// gather/scatter, circulant bcast).
[[nodiscard]] PlanKey rooted_plan_key(PlanCollective collective,
                                      std::int64_t n, int k,
                                      int segments = 1);

/// PlanKey::shape_digest == 0 is the reserved "uniform plan" sentinel
/// (lower_from_key branches on it), so no irregular shape may ever digest
/// to 0: a raw hash of 0 is remapped to 1.  Exposed so tests can pin the
/// reservation independently of finding a zero-hash preimage.
[[nodiscard]] constexpr std::uint64_t reserve_shape_digest_sentinel(
    std::uint64_t raw) {
  return raw == 0 ? 1 : raw;
}

/// Digest of an irregular shape for plan-cache keying: FNV-1a over the
/// log2 bucket of every count (bit_width(c); 0 stays its own bucket),
/// passed through reserve_shape_digest_sentinel — deterministic, never 0.
/// Two shapes in the same buckets share a plan (correct for any shape —
/// irregular plans resolve sizes at run time); shapes in different buckets
/// key separate entries.
[[nodiscard]] std::uint64_t shape_digest(
    std::span<const std::int64_t> counts);

/// Make the key of an irregular index plan (`algorithm` must not be kAuto;
/// `digest` from shape_digest over the n×n count matrix).
[[nodiscard]] PlanKey indexv_plan_key(IndexAlgorithm algorithm, std::int64_t n,
                                      int k, std::int64_t radix,
                                      std::uint64_t digest, int segments = 1,
                                      std::uint64_t layout = 0);

/// Make the key of an irregular concat plan (`digest` from shape_digest
/// over the n per-rank counts).  Irregular concat Bruck always lowers the
/// column-granular last round, so no strategy enters the key.
[[nodiscard]] PlanKey concatv_plan_key(ConcatAlgorithm algorithm,
                                       std::int64_t n, int k,
                                       std::uint64_t digest,
                                       int segments = 1);

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  friend bool operator==(const PlanCacheStats&, const PlanCacheStats&) =
      default;
};

class PlanCache {
 public:
  /// Memory bound: concat plans are per-(geometry, b), so a workload
  /// sweeping many message sizes would otherwise pin one plan per size
  /// forever.  Least-recently-used plans are evicted past this many
  /// entries (in-flight executions keep their plan alive via shared_ptr).
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  struct Lookup {
    std::shared_ptr<const Plan> plan;
    bool cache_hit = false;
  };

  /// The plan for `key`, lowering it on first use.  Thread-safe; the
  /// lowering runs outside the cache lock (lookups of other keys never
  /// stall behind a miss), concurrent same-key callers wait on the first
  /// lowering's future and all but one report a hit.
  Lookup get_or_lower(const PlanKey& key);

  [[nodiscard]] PlanCacheStats stats() const;
  void clear();

  /// The process-wide cache used by the coll:: facade.
  static PlanCache& global();

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<PlanKey>::iterator lru_pos;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<PlanKey> lru_;  // front = most recently used
  std::unordered_map<PlanKey, Entry, PlanKeyHash> plans_;
  /// Keys being lowered right now (outside the lock); same-key callers
  /// wait on the future instead of re-lowering.
  std::unordered_map<PlanKey,
                     std::shared_future<std::shared_ptr<const Plan>>,
                     PlanKeyHash>
      pending_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bruck::coll
