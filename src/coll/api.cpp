#include "coll/api.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/composite.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/plan_cache.hpp"
#include "coll/progress.hpp"
#include "coll/reference.hpp"
#include "coll/workspace.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/timing.hpp"

namespace bruck::coll {

std::string to_string(IndexAlgorithm a) {
  switch (a) {
    case IndexAlgorithm::kBruck: return "bruck";
    case IndexAlgorithm::kDirect: return "direct";
    case IndexAlgorithm::kPairwise: return "pairwise";
    case IndexAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ConcatAlgorithm a) {
  switch (a) {
    case ConcatAlgorithm::kBruck: return "bruck";
    case ConcatAlgorithm::kFolklore: return "folklore";
    case ConcatAlgorithm::kRing: return "ring";
    case ConcatAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(ExecutionPath p) {
  switch (p) {
    case ExecutionPath::kReference: return "reference";
    case ExecutionPath::kPipelined: return "pipelined";
  }
  return "?";
}

std::string to_string(ReduceAlgorithm a) {
  switch (a) {
    case ReduceAlgorithm::kBruck: return "bruck";
    case ReduceAlgorithm::kDirect: return "direct";
    case ReduceAlgorithm::kPairwise: return "pairwise";
    case ReduceAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string to_string(HierMode m) {
  switch (m) {
    case HierMode::kDefault: return "default";
    case HierMode::kOff: return "off";
    case HierMode::kOn: return "on";
    case HierMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<HierMode> parse_hier_mode(const char* text) {
  if (text == nullptr) return std::nullopt;
  const std::string_view s(text);
  if (s == "off") return HierMode::kOff;
  if (s == "on") return HierMode::kOn;
  if (s == "auto") return HierMode::kAuto;
  return std::nullopt;
}

std::optional<std::int64_t> parse_hier_group(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;  // junk / trailing junk
  if (errno == ERANGE) return std::nullopt;
  if (v < 0 || v > (1 << 20)) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

HierMode default_hier_mode() {
  const char* env = std::getenv("BRUCK_HIER");
  if (env == nullptr) return HierMode::kOff;
  if (const auto parsed = parse_hier_mode(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER=\"%s\" "
                 "(want off|on|auto); using off\n",
                 env);
  });
  return HierMode::kOff;
}

std::int64_t default_hier_group() {
  const char* env = std::getenv("BRUCK_HIER_GROUP_SIZE");
  if (env == nullptr) return 0;
  if (const auto parsed = parse_hier_group(env)) return *parsed;
  static std::once_flag warned;
  std::call_once(warned, [env] {
    std::fprintf(stderr,
                 "bruck: ignoring invalid BRUCK_HIER_GROUP_SIZE=\"%s\" "
                 "(want an integer in [0, 1048576]); using 0\n",
                 env);
  });
  return 0;
}

namespace {

/// Option-level hier knobs resolved against the environment: kDefault
/// defers to BRUCK_HIER, a zero group to BRUCK_HIER_GROUP_SIZE.
HierMode resolve_hier_mode(HierMode mode) {
  return mode == HierMode::kDefault ? default_hier_mode() : mode;
}

std::int64_t resolve_hier_group(std::int64_t group) {
  return group != 0 ? group : default_hier_group();
}

/// Whether the plain-overload compiled path should run the hierarchical
/// composite: the knob resolves past kOff, the geometry is non-degenerate,
/// and the caller didn't force a non-Bruck flat algorithm (`bruck_family`).
bool hier_eligible(HierMode resolved, std::int64_t n, std::int64_t block_bytes,
                   bool bruck_family) {
  return resolved != HierMode::kOff && n > 1 && block_bytes > 0 &&
         bruck_family;
}

/// The shared compiled tail of both collectives: fetch (or lower once) the
/// plan for `key`, execute it, and report the cache/round/byte statistics.
/// `wall_out`, when given, receives the measured execution wall time in
/// microseconds (also carried on the PlanEvent).
int run_compiled(mps::Communicator& comm, const PlanKey& key,
                 std::span<const std::byte> send, std::span<std::byte> recv,
                 std::int64_t block_bytes, int start_round,
                 const LayoutPair& layouts = {},
                 double* wall_out = nullptr) {
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(key);
  const auto start = std::chrono::steady_clock::now();
  const PlanExecution ex =
      lookup.plan->run(comm, send, recv, block_bytes, start_round, layouts);
  const double wall_us = us_since(start);
  mps::PlanEvent event{lookup.cache_hit, lookup.plan->round_count(),
                       ex.bytes_sent};
  event.wall_us = wall_us;
  comm.record_plan_event(event);
  if (wall_out != nullptr) *wall_out = wall_us;
  return ex.next_round;
}

/// run_compiled's irregular twin: fetch/lower the vector plan and execute
/// it against the VectorView.
int run_compiled_v(mps::Communicator& comm, const PlanKey& key,
                   std::span<const std::byte> send, std::span<std::byte> recv,
                   const VectorView& view, int start_round,
                   const LayoutPair& layouts = {}) {
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(key);
  const auto start = std::chrono::steady_clock::now();
  const PlanExecution ex =
      lookup.plan->run(comm, send, recv, view, start_round, layouts);
  mps::PlanEvent event{lookup.cache_hit, lookup.plan->round_count(),
                       ex.bytes_sent};
  event.wall_us = us_since(start);
  comm.record_plan_event(event);
  return ex.next_round;
}

/// Packed canonical layout: block i at the prefix sum of sizes [0, i).
std::vector<std::int64_t> prefix_displs(std::span<const std::int64_t> sizes) {
  std::vector<std::int64_t> displs(sizes.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    displs[i] = pos;
    pos += sizes[i];
  }
  return displs;
}

/// prefix_displs in layout space: block i's origin at the prefix sum of
/// the *physical* footprints span_of(count) — degenerates to prefix_displs
/// for contiguous layouts.
std::vector<std::int64_t> layout_prefix_displs(
    const Layout& layout, std::span<const std::int64_t> counts) {
  std::vector<std::int64_t> displs(counts.size());
  std::int64_t pos = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    displs[i] = pos;
    pos += layout.span_of(counts[i]);
  }
  return displs;
}

/// The resolved execution recipe of an allgather call (shared by the plain
/// and layout overloads): canonicalized algorithm and last-round strategy
/// (so equal geometries share a key) plus the resolved segment knob.
struct ConcatRecipe {
  ConcatAlgorithm algorithm = ConcatAlgorithm::kBruck;
  model::ConcatLastRound strategy = model::ConcatLastRound::kAuto;
  int segments = 1;
  /// Modeled measures behind the choice (the segment tuner and the
  /// progress engine read them).
  model::CostMetrics predicted;
};

ConcatRecipe resolve_concat_recipe(std::int64_t n, int k,
                                   std::int64_t block_bytes,
                                   const AllgatherOptions& options) {
  ConcatRecipe recipe;
  recipe.algorithm = options.algorithm == ConcatAlgorithm::kAuto
                         ? ConcatAlgorithm::kBruck
                         : options.algorithm;
  recipe.strategy =
      recipe.algorithm == ConcatAlgorithm::kBruck
          ? model::resolve_concat_last_round(n, k, block_bytes,
                                             options.last_round)
          : options.last_round;
  // Needed for forced counts too: resolve_segment_knob clamps them against
  // the per-message floor derived from these metrics.
  switch (recipe.algorithm) {
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      recipe.predicted =
          model::concat_bruck_cost(n, k, block_bytes, recipe.strategy);
      break;
    case ConcatAlgorithm::kFolklore:
      recipe.predicted = model::concat_folklore_cost(n, block_bytes);
      break;
    case ConcatAlgorithm::kRing:
      recipe.predicted = model::concat_ring_cost(n, block_bytes);
      break;
  }
  recipe.segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), recipe.predicted);
  return recipe;
}

/// The resolved algorithm/radix/measures of an alltoallv call's shape
/// statistics (shared by the blocking, layout, and nonblocking overloads).
struct IndexvRecipe {
  IndexAlgorithm algorithm = IndexAlgorithm::kBruck;
  std::int64_t radix = 2;
  model::CostMetrics predicted;
};

IndexvRecipe resolve_indexv_recipe(std::int64_t n, int k, std::int64_t total,
                                   std::int64_t max_pair,
                                   const AlltoallvOptions& options) {
  const std::int64_t mean =
      std::max<std::int64_t>(1, (total + n * n - 1) / (n * n));
  const model::LinearModel machine = model::effective_machine(options.machine);
  IndexvRecipe recipe;
  recipe.algorithm = options.algorithm;
  recipe.radix = std::max<std::int64_t>(2, n);
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      recipe.predicted = model::index_direct_cost(n, k, max_pair);
      break;
    case IndexAlgorithm::kPairwise:
      recipe.predicted = model::index_pairwise_cost(n, k, max_pair);
      break;
    case IndexAlgorithm::kBruck:
      recipe.radix = options.radix != 0
                         ? options.radix
                         : model::pick_index_radix_cached(
                               n, k, mean, machine, options.radix_set)
                               .radix;
      recipe.predicted = model::index_bruck_cost(n, recipe.radix, k, mean);
      break;
    case IndexAlgorithm::kAuto: {
      const model::VectorIndexChoice choice = model::pick_indexv_cached(
          n, k, total, max_pair, machine, options.radix_set);
      recipe.algorithm = choice.direct ? IndexAlgorithm::kDirect
                                       : IndexAlgorithm::kBruck;
      recipe.radix = choice.radix;
      recipe.predicted = choice.predicted;
      break;
    }
  }
  return recipe;
}

}  // namespace

AlltoallPlan plan_alltoall(std::int64_t n, int k, std::int64_t block_bytes,
                           const AlltoallOptions& options) {
  BRUCK_REQUIRE(n >= 1);
  BRUCK_REQUIRE(k >= 1);
  // A default-machine caller gets the calibrated constants when a fabric
  // bootstrap published them (see model::effective_machine).
  const model::LinearModel machine = model::effective_machine(options.machine);
  AlltoallPlan plan;
  switch (options.algorithm) {
    case IndexAlgorithm::kDirect:
      plan.algorithm = IndexAlgorithm::kDirect;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_direct_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kPairwise:
      plan.algorithm = IndexAlgorithm::kPairwise;
      plan.radix = std::max<std::int64_t>(2, n);
      plan.predicted = model::index_pairwise_cost(n, k, block_bytes);
      break;
    case IndexAlgorithm::kBruck:
    case IndexAlgorithm::kAuto: {
      plan.algorithm = IndexAlgorithm::kBruck;
      if (options.radix != 0) {
        plan.radix = options.radix;
        plan.predicted =
            model::index_bruck_cost(n, plan.radix, k, block_bytes);
      } else {
        // Memoized: repeated kAuto calls on one geometry skip the sweep.
        const model::RadixChoice choice = model::pick_index_radix_cached(
            n, k, block_bytes, machine, options.radix_set);
        plan.radix = choice.radix;
        plan.predicted = choice.metrics;
        plan.segments_hint = choice.segments_hint;
      }
      break;
    }
  }
  plan.predicted_us = machine.predict_us(plan.predicted);
  return plan;
}

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, std::int64_t block_bytes,
             const AlltoallOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    return alltoall_reference(comm, send, recv, block_bytes,
                              options.start_round);
  }
  const AlltoallPlan plan =
      plan_alltoall(comm.size(), comm.ports(), block_bytes, options);

  // Hierarchical dispatch: when the knob engages, lower this rank's
  // leader-model composite and run it stage by stage (the composite records
  // its own per-stage PlanEvents).
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, comm.size(), block_bytes,
                    options.algorithm == IndexAlgorithm::kAuto ||
                        options.algorithm == IndexAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_index_plan_cached(
        comm.size(), comm.ports(), block_bytes,
        model::effective_two_level(options.hier_machine), options.radix_set,
        resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.inter_radix = choice.inter_radix;
      const CompositePlan cp = CompositePlan::lower_index_hier(
          comm.size(), comm.ports(), comm.rank(), block_bytes, shape);
      return cp.run(comm, send, recv, /*op=*/nullptr, options.start_round)
          .next_round;
    }
  }

  // Compiled hot path: the tuner's radix and segment choices are part of
  // the key.  A learned segment force rides the plan as a hint and goes
  // through the same clamp as a user-requested count.
  const model::LinearModel machine = model::effective_machine(options.machine);
  std::int64_t radix = plan.radix;
  int segments = model::resolve_segment_knob(
      options.segments == 0 && plan.segments_hint > 0 ? plan.segments_hint
                                                      : options.segments,
      /*pipelined=*/true, machine, plan.predicted);

  // Live adaptive exploration: only for fully tuner-driven calls (no forced
  // radix or segment count), and only when a tuner installed the hook.  The
  // decided config — not its clamped resolution — is echoed back with the
  // measured wall time so the learner can match the arm it scheduled.
  const bool tuner_driven = plan.algorithm == IndexAlgorithm::kBruck &&
                            options.radix == 0 && options.segments == 0;
  model::TunerQuery query{};
  model::TunerConfig decided{};
  bool adaptive = false;
  if (tuner_driven && model::adaptive_hook_installed()) {
    query = model::make_tuner_query(model::TunedFamily::kIndexRadix,
                                    comm.size(), comm.ports(), block_bytes,
                                    machine);
    model::TunerConfig base;
    base.radix = radix;
    base.segments = segments;
    decided = model::adaptive_decision(query, base);
    adaptive = true;
    if (decided.radix > 0) radix = decided.radix;
    if (decided.segments > 0) segments = decided.segments;
  }

  double wall_us = 0.0;
  const int next = run_compiled(
      comm,
      index_plan_key(plan.algorithm, comm.size(), comm.ports(), radix,
                     segments),
      send, recv, block_bytes, options.start_round, {},
      adaptive ? &wall_us : nullptr);
  if (adaptive) {
    model::ExecutionSample sample;
    sample.query = query;
    sample.config = decided;
    sample.wall_us = wall_us;
    sample.predicted_us = machine.predict_us(plan.predicted);
    model::notify_execution(sample);
  }
  return next;
}

int alltoall_staged(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const Layout& send_layout,
                    const Layout& recv_layout,
                    const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  std::vector<std::byte> s(static_cast<std::size_t>(n * b));
  std::vector<std::byte> r(s.size());
  layout_gather_all(send, send_layout, n, s);
  const int next = alltoall(comm, s, r, b, options);
  layout_scatter_all(recv, recv_layout, n, r);
  return next;
}

int alltoall(mps::Communicator& comm, std::span<const std::byte> send,
             std::span<std::byte> recv, const Layout& send_layout,
             const Layout& recv_layout, const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(n) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(n),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    // The degenerate case is the plain call: same plan, same cache key,
    // same zero-copy fast path.
    return alltoall(comm, send.first(static_cast<std::size_t>(n * b)),
                    recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  if (options.path == ExecutionPath::kReference) {
    // The oracle has no layouts: stage through packed copies so kReference
    // stays the bitwise cross-check of the zero-copy paths.
    return alltoall_staged(comm, send, recv, send_layout, recv_layout,
                           options);
  }
  const AlltoallPlan plan = plan_alltoall(n, comm.ports(), b, options);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && plan.segments_hint > 0 ? plan.segments_hint
                                                      : options.segments,
      /*pipelined=*/true, model::effective_machine(options.machine),
      plan.predicted);
  return run_compiled(
      comm,
      index_plan_key(plan.algorithm, n, comm.ports(), plan.radix, segments,
                     layout_digest(&send_layout, &recv_layout)),
      send, recv, b, options.start_round,
      LayoutPair{&send_layout, &recv_layout});
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, std::int64_t block_bytes,
              const AllgatherOptions& options) {
  if (options.path == ExecutionPath::kReference) {
    return allgather_reference(comm, send, recv, block_bytes,
                               options.start_round);
  }

  // Hierarchical dispatch (see alltoall).
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, comm.size(), block_bytes,
                    options.algorithm == ConcatAlgorithm::kAuto ||
                        options.algorithm == ConcatAlgorithm::kBruck)) {
    const model::HierChoice choice = model::pick_concat_plan_cached(
        comm.size(), comm.ports(), block_bytes,
        model::effective_two_level(options.hier_machine), options.last_round,
        resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || choice.hier) {
      HierShape shape;
      shape.group = choice.group;
      shape.strategy = options.last_round;
      const CompositePlan cp = CompositePlan::lower_concat_hier(
          comm.size(), comm.ports(), comm.rank(), block_bytes, shape);
      return cp.run(comm, send, recv, /*op=*/nullptr, options.start_round)
          .next_round;
    }
  }

  // Canonicalize the last-round strategy so equal geometries share a key
  // (the same resolution sched::build_concat_bruck performs).
  const ConcatRecipe recipe = resolve_concat_recipe(
      comm.size(), comm.ports(), block_bytes, options);
  return run_compiled(comm,
                      concat_plan_key(recipe.algorithm, comm.size(),
                                      comm.ports(), recipe.strategy,
                                      block_bytes, recipe.segments),
                      send, recv, block_bytes, options.start_round);
}

int allgather(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(1) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(n),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return allgather(comm, send.first(static_cast<std::size_t>(b)),
                     recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(b));
    std::vector<std::byte> r(static_cast<std::size_t>(n * b));
    layout_gather(send, send_layout, 0, 0, b, s);
    const int next = allgather(comm, s, r, b, options);
    layout_scatter_all(recv, recv_layout, n, r);
    return next;
  }
  const ConcatRecipe recipe =
      resolve_concat_recipe(n, comm.ports(), b, options);
  return run_compiled(
      comm,
      concat_plan_key(recipe.algorithm, n, comm.ports(), recipe.strategy, b,
                      recipe.segments,
                      layout_digest(&send_layout, &recv_layout)),
      send, recv, b, options.start_round,
      LayoutPair{&send_layout, &recv_layout});
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const AlltoallvOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                    "alltoallv needs the full n*n count matrix");

  // Shape statistics: drive the tuner, the padding stride, and the digest.
  std::int64_t total = 0;
  std::int64_t max_pair = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_pair = std::max(max_pair, c);
  }

  // Empty displacements mean the packed canonical layout.
  std::vector<std::int64_t> sd_storage;
  std::vector<std::int64_t> rd_storage;
  if (send_displs.empty()) {
    sd_storage = prefix_displs(counts.subspan(
        static_cast<std::size_t>(rank * n), static_cast<std::size_t>(n)));
    send_displs = sd_storage;
  }
  if (recv_displs.empty()) {
    std::vector<std::int64_t> col(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] =
          counts[static_cast<std::size_t>(i * n + rank)];
    }
    rd_storage = prefix_displs(col);
    recv_displs = rd_storage;
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);

  if (options.path == ExecutionPath::kReference) {
    return alltoallv_reference(comm, send, recv, counts, send_displs,
                               recv_displs, options.start_round);
  }

  // Resolve the algorithm, radix, and predicted measures (the segment
  // tuner's input) from the shape statistics.
  const IndexvRecipe recipe =
      resolve_indexv_recipe(n, k, total, max_pair, options);
  const int segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), recipe.predicted);
  const VectorView view{counts, send_displs, recv_displs, max_pair};
  return run_compiled_v(comm,
                        indexv_plan_key(recipe.algorithm, n, k, recipe.radix,
                                        shape_digest(counts), segments),
                        send, recv, view, options.start_round);
}

int alltoallv(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv,
              std::span<const std::int64_t> counts,
              std::span<const std::int64_t> send_displs,
              std::span<const std::int64_t> recv_displs,
              const Layout& send_layout, const Layout& recv_layout,
              const AlltoallvOptions& options) {
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return alltoallv(comm, send, recv, counts, send_displs, recv_displs,
                     options);
  }
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                    "alltoallv needs the full n*n count matrix");

  std::int64_t total = 0;
  std::int64_t max_pair = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_pair = std::max(max_pair, c);
  }
  BRUCK_REQUIRE_MSG(send_layout.block_bytes() >= max_pair &&
                        recv_layout.block_bytes() >= max_pair,
                    "layouts must cover the largest pair count");

  // Empty displacements mean the packed canonical layout in layout space.
  std::vector<std::int64_t> sd_storage;
  std::vector<std::int64_t> rd_storage;
  if (send_displs.empty()) {
    sd_storage = layout_prefix_displs(
        send_layout,
        counts.subspan(static_cast<std::size_t>(rank * n),
                       static_cast<std::size_t>(n)));
    send_displs = sd_storage;
  }
  std::vector<std::int64_t> col(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    col[static_cast<std::size_t>(i)] =
        counts[static_cast<std::size_t>(i * n + rank)];
  }
  if (recv_displs.empty()) {
    rd_storage = layout_prefix_displs(recv_layout, col);
    recv_displs = rd_storage;
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);

  if (options.path == ExecutionPath::kReference) {
    // Stage through packed copies around the per-pair oracle.
    const std::span<const std::int64_t> row = counts.subspan(
        static_cast<std::size_t>(rank * n), static_cast<std::size_t>(n));
    const std::vector<std::int64_t> packed_sd = prefix_displs(row);
    const std::vector<std::int64_t> packed_rd = prefix_displs(col);
    const std::int64_t row_total =
        packed_sd.back() + row[static_cast<std::size_t>(n - 1)];
    const std::int64_t col_total =
        packed_rd.back() + col[static_cast<std::size_t>(n - 1)];
    std::vector<std::byte> s(static_cast<std::size_t>(row_total));
    std::vector<std::byte> r(static_cast<std::size_t>(col_total));
    for (std::int64_t j = 0; j < n; ++j) {
      layout_gather(send, send_layout,
                    send_displs[static_cast<std::size_t>(j)], 0,
                    row[static_cast<std::size_t>(j)],
                    std::span<std::byte>(s).subspan(
                        static_cast<std::size_t>(
                            packed_sd[static_cast<std::size_t>(j)]),
                        static_cast<std::size_t>(
                            row[static_cast<std::size_t>(j)])));
    }
    const int next = alltoallv_reference(comm, s, r, counts, packed_sd,
                                         packed_rd, options.start_round);
    for (std::int64_t i = 0; i < n; ++i) {
      layout_scatter(recv, recv_layout,
                     recv_displs[static_cast<std::size_t>(i)], 0,
                     col[static_cast<std::size_t>(i)],
                     std::span<const std::byte>(r).subspan(
                         static_cast<std::size_t>(
                             packed_rd[static_cast<std::size_t>(i)]),
                         static_cast<std::size_t>(
                             col[static_cast<std::size_t>(i)])));
    }
    return next;
  }

  const IndexvRecipe recipe =
      resolve_indexv_recipe(n, k, total, max_pair, options);
  const int segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), recipe.predicted);
  const VectorView view{counts, send_displs, recv_displs, max_pair};
  return run_compiled_v(comm,
                        indexv_plan_key(recipe.algorithm, n, k, recipe.radix,
                                        shape_digest(counts), segments,
                                        layout_digest(&send_layout,
                                                      &recv_layout)),
                        send, recv, view, options.start_round,
                        LayoutPair{&send_layout, &recv_layout});
}

int allgatherv(mps::Communicator& comm, std::span<const std::byte> send,
               std::span<std::byte> recv,
               std::span<const std::int64_t> counts,
               std::span<const std::int64_t> recv_displs,
               const AllgathervOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n,
                    "allgatherv needs one count per rank");

  std::int64_t total = 0;
  std::int64_t max_block = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_block = std::max(max_block, c);
  }

  std::vector<std::int64_t> rd_storage;
  if (recv_displs.empty()) {
    rd_storage = prefix_displs(counts);
    recv_displs = rd_storage;
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv_displs.size()) == n);

  if (options.path == ExecutionPath::kReference) {
    return allgatherv_reference(comm, send, recv, counts, recv_displs,
                                options.start_round);
  }

  const ConcatAlgorithm algorithm =
      options.algorithm == ConcatAlgorithm::kAuto ? ConcatAlgorithm::kBruck
                                                  : options.algorithm;
  // Segment tuning sees the mean block (wire messages carry trimmed true
  // sizes, so the mean is the honest per-message estimate).  Computed for
  // forced counts too (resolve_segment_knob clamps them against the floor).
  const std::int64_t b_eff =
      n > 0 ? (total + n - 1) / std::max<std::int64_t>(1, n) : 0;
  model::CostMetrics predicted;
  switch (algorithm) {
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      predicted = model::concat_bruck_cost(
          n, k, b_eff, model::ConcatLastRound::kColumnGranular);
      break;
    case ConcatAlgorithm::kFolklore:
      predicted = model::concat_folklore_cost(n, b_eff);
      break;
    case ConcatAlgorithm::kRing:
      predicted = model::concat_ring_cost(n, b_eff);
      break;
  }
  const int segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), predicted);
  const VectorView view{counts, {}, recv_displs, max_block};
  return run_compiled_v(
      comm, concatv_plan_key(algorithm, n, k, shape_digest(counts), segments),
      send, recv, view, options.start_round);
}

namespace detail {

ReducePlanChoice resolve_reduce_algorithm(std::int64_t n, int k,
                                          std::int64_t block_bytes,
                                          ReduceAlgorithm algorithm,
                                          std::int64_t radix,
                                          const model::LinearModel& machine,
                                          model::RadixSet set) {
  const model::LinearModel m = model::effective_machine(machine);
  ReducePlanChoice out;
  switch (algorithm) {
    case ReduceAlgorithm::kDirect:
      out.algorithm = ReduceAlgorithm::kDirect;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kPairwise:
      out.algorithm = ReduceAlgorithm::kPairwise;
      out.radix = std::max<std::int64_t>(2, n);
      out.predicted = model::reduce_direct_cost(n, k, block_bytes);
      break;
    case ReduceAlgorithm::kBruck:
      out.algorithm = ReduceAlgorithm::kBruck;
      out.radix = radix != 0
                      ? radix
                      : model::pick_reduce_radix(n, k, block_bytes, m, set)
                            .radix;
      out.predicted = model::reduce_bruck_cost(n, out.radix, k, block_bytes);
      break;
    case ReduceAlgorithm::kAuto: {
      const model::ReduceScatterChoice choice =
          model::pick_reduce_scatter_cached(n, k, block_bytes, m, set);
      out.algorithm = choice.direct ? ReduceAlgorithm::kDirect
                                    : ReduceAlgorithm::kBruck;
      out.radix = choice.radix;
      out.predicted = choice.predicted;
      out.segments_hint = choice.segments_hint;
      break;
    }
  }
  return out;
}

}  // namespace detail

namespace {

/// run_compiled's reduction twin: fetch/lower the reduce plan and execute
/// it with the combine operator; the PlanEvent additionally reports the
/// bytes combined on receive.
int run_compiled_reduce(mps::Communicator& comm, const PlanKey& key,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        const ReduceOp& op, int start_round,
                        const LayoutPair& layouts = {},
                        double* wall_out = nullptr) {
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(key);
  const auto start = std::chrono::steady_clock::now();
  const PlanExecution ex = lookup.plan->run(comm, send, recv, block_bytes, op,
                                            start_round, layouts);
  const double wall_us = us_since(start);
  mps::PlanEvent event{lookup.cache_hit, lookup.plan->round_count(),
                       ex.bytes_sent, ex.bytes_reduced};
  event.wall_us = wall_us;
  comm.record_plan_event(event);
  if (wall_out != nullptr) *wall_out = wall_us;
  return ex.next_round;
}

}  // namespace

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const ReduceOp& op, const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  BRUCK_REQUIRE(block_bytes >= 0);
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 &&
                        block_bytes % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");

  if (options.path == ExecutionPath::kReference) {
    return reduce_scatter_reference(comm, send, recv, block_bytes, op,
                                    options.start_round);
  }

  // Hierarchical dispatch (see alltoall).
  const HierMode hmode = resolve_hier_mode(options.hier);
  if (hier_eligible(hmode, n, block_bytes,
                    options.algorithm == ReduceAlgorithm::kAuto ||
                        options.algorithm == ReduceAlgorithm::kBruck)) {
    const model::HierChoice hier_choice = model::pick_reduce_plan_cached(
        n, k, block_bytes, model::effective_two_level(options.hier_machine),
        options.radix_set, resolve_hier_group(options.hier_group));
    if (hmode == HierMode::kOn || hier_choice.hier) {
      HierShape shape;
      shape.group = hier_choice.group;
      shape.inter_radix = hier_choice.inter_radix;
      const CompositePlan cp = CompositePlan::lower_reduce_hier(
          n, k, comm.rank(), block_bytes, op, shape);
      return cp.run(comm, send, recv, &op, options.start_round).next_round;
    }
  }

  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, block_bytes, options.algorithm, options.radix, options.machine,
      options.radix_set);
  const model::LinearModel machine = model::effective_machine(options.machine);
  std::int64_t radix = choice.radix;
  int segments = model::resolve_segment_knob(
      options.segments == 0 && choice.segments_hint > 0 ? choice.segments_hint
                                                        : options.segments,
      /*pipelined=*/true, machine, choice.predicted);

  // Live adaptive exploration (see alltoall): tuner-driven Bruck calls only.
  const bool tuner_driven = choice.algorithm == ReduceAlgorithm::kBruck &&
                            (options.algorithm == ReduceAlgorithm::kAuto ||
                             options.algorithm == ReduceAlgorithm::kBruck) &&
                            options.radix == 0 && options.segments == 0;
  model::TunerQuery query{};
  model::TunerConfig decided{};
  bool adaptive = false;
  if (tuner_driven && model::adaptive_hook_installed()) {
    query = model::make_tuner_query(model::TunedFamily::kReduceScatter, n, k,
                                    block_bytes, machine);
    model::TunerConfig base;
    base.radix = radix;
    base.segments = segments;
    decided = model::adaptive_decision(query, base);
    adaptive = true;
    if (decided.radix > 0) radix = decided.radix;
    if (decided.segments > 0) segments = decided.segments;
  }

  double wall_us = 0.0;
  const int next = run_compiled_reduce(
      comm, reduce_plan_key(choice.algorithm, n, k, radix, op, segments),
      send, recv, block_bytes, op, options.start_round, {},
      adaptive ? &wall_us : nullptr);
  if (adaptive) {
    model::ExecutionSample sample;
    sample.query = query;
    sample.config = decided;
    sample.wall_us = wall_us;
    sample.predicted_us = machine.predict_reduce_us(choice.predicted);
    model::notify_execution(sample);
  }
  return next;
}

int reduce_scatter(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && b % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(n) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(1),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return reduce_scatter(comm, send.first(static_cast<std::size_t>(n * b)),
                          recv.first(static_cast<std::size_t>(b)), b, op,
                          options);
  }
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(n * b));
    std::vector<std::byte> r(static_cast<std::size_t>(b));
    layout_gather_all(send, send_layout, n, s);
    const int next = reduce_scatter(comm, s, r, b, op, options);
    layout_scatter(recv, recv_layout, 0, 0, b, r);
    return next;
  }
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, b, options.algorithm, options.radix, options.machine,
      options.radix_set);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && choice.segments_hint > 0 ? choice.segments_hint
                                                        : options.segments,
      /*pipelined=*/true, model::effective_machine(options.machine),
      choice.predicted);
  return run_compiled_reduce(
      comm,
      reduce_plan_key(choice.algorithm, n, k, choice.radix, op, segments,
                      layout_digest(&send_layout, &recv_layout)),
      send, recv, b, op, options.start_round,
      LayoutPair{&send_layout, &recv_layout});
}

namespace {

/// The two stages of a compiled allreduce over n blocks of `b` bytes:
/// reduce-scatter `in` into this rank's block `reduced`, then allgather
/// the reduced blocks into `out`.
int allreduce_blocks(mps::Communicator& comm, std::span<const std::byte> in,
                     std::span<std::byte> reduced, std::span<std::byte> out,
                     std::int64_t b, const ReduceOp& op,
                     const AllreduceOptions& options) {
  ReduceScatterOptions rs;
  rs.algorithm = options.algorithm;
  rs.radix = options.radix;
  rs.machine = options.machine;
  rs.radix_set = options.radix_set;
  rs.start_round = options.start_round;
  rs.path = options.path;
  rs.segments = options.segments;
  const int after_reduce = reduce_scatter(comm, in, reduced, b, op, rs);

  AllgatherOptions ag;
  ag.algorithm = options.concat;
  ag.machine = options.machine;
  ag.start_round = after_reduce;
  ag.path = options.path;
  ag.segments = options.segments;
  return allgather(comm, reduced, out, b, ag);
}

}  // namespace

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const ReduceOp& op,
              const AllreduceOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  const std::int64_t ew = op.elem_bytes();
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "payload must be a whole number of op elements");

  if (options.path == ExecutionPath::kReference) {
    return allreduce_reference(comm, send, recv, op, options.start_round);
  }

  // Reduce-scatter over ⌈elems/n⌉-element blocks, then allgather the
  // reduced blocks.  The staging comes from the communicator's workspace.
  const std::int64_t elems = bytes / ew;
  const std::int64_t block_elems = n > 0 ? ceil_div(elems, n) : 0;
  const std::int64_t b = block_elems * ew;
  ExecWorkspace& ws = ExecWorkspace::for_comm(comm);
  ExecWorkspace::Buffer reduced(ws, static_cast<std::size_t>(b));
  if (n * b == bytes) {
    // n blocks exactly: no staging.  The reduce-scatter reads the user send
    // buffer and the allgather lands straight in recv.  In-place calls
    // (send aliasing recv) are safe: the reduce-scatter has consumed every
    // send byte before the allgather writes.
    return allreduce_blocks(comm, send, reduced.span(), recv, b, op,
                            options);
  }
  // The tail block is zero-padded identically on every rank; padded
  // results are combined but never copied back.
  ExecWorkspace::Buffer padded(ws, static_cast<std::size_t>(n * b));
  ExecWorkspace::Buffer gathered(ws, static_cast<std::size_t>(n * b));
  const std::span<std::byte> in = padded.span();
  if (bytes > 0) {
    std::memcpy(in.data(), send.data(), static_cast<std::size_t>(bytes));
  }
  std::memset(in.data() + bytes, 0, static_cast<std::size_t>(n * b - bytes));
  const int next = allreduce_blocks(comm, in, reduced.span(), gathered.span(),
                                    b, op, options);
  if (bytes > 0) {
    std::memcpy(recv.data(), gathered.span().data(),
                static_cast<std::size_t>(bytes));
  }
  return next;
}

int allreduce(mps::Communicator& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, const Layout& send_layout,
              const Layout& recv_layout, const ReduceOp& op,
              const AllreduceOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t bytes = send_layout.block_bytes();
  const std::int64_t ew = op.elem_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == bytes,
                    "send and recv layouts must carry the same logical "
                    "payload size");
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "payload must be a whole number of op elements");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(1) &&
          static_cast<std::int64_t>(recv.size()) >=
              recv_layout.span_bytes(1),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return allreduce(comm, send.first(static_cast<std::size_t>(bytes)),
                     recv.first(static_cast<std::size_t>(bytes)), op,
                     options);
  }
  if (options.path == ExecutionPath::kReference) {
    std::vector<std::byte> s(static_cast<std::size_t>(bytes));
    std::vector<std::byte> r(static_cast<std::size_t>(bytes));
    layout_gather(send, send_layout, 0, 0, bytes, s);
    const int next =
        allreduce_reference(comm, s, r, op, options.start_round);
    layout_scatter(recv, recv_layout, 0, 0, bytes, r);
    return next;
  }

  // The padded block decomposition inherently stages the payload; the
  // layouts replace the staging memcpys rather than adding copies — the
  // gather into the padded scratch walks send_layout, the final scatter
  // walks recv_layout, and the wire stages run contiguous (no layout
  // digest in their keys).
  const std::int64_t elems = bytes / ew;
  const std::int64_t block_elems = n > 0 ? ceil_div(elems, n) : 0;
  const std::int64_t b = block_elems * ew;
  ExecWorkspace& ws = ExecWorkspace::for_comm(comm);
  ExecWorkspace::Buffer reduced(ws, static_cast<std::size_t>(b));
  ExecWorkspace::Buffer padded(ws, static_cast<std::size_t>(n * b));
  ExecWorkspace::Buffer gathered(ws, static_cast<std::size_t>(n * b));
  const std::span<std::byte> in = padded.span();
  layout_gather(send, send_layout, 0, 0, bytes,
                in.first(static_cast<std::size_t>(bytes)));
  std::memset(in.data() + bytes, 0, static_cast<std::size_t>(n * b - bytes));
  const int next = allreduce_blocks(comm, in, reduced.span(), gathered.span(),
                                    b, op, options);
  layout_scatter(recv, recv_layout, 0, 0, bytes,
                 std::span<const std::byte>(gathered.span())
                     .first(static_cast<std::size_t>(bytes)));
  return next;
}

// -- Nonblocking entry points ----------------------------------------------
//
// Each i* twin runs exactly the blocking facade's resolution — tuner, radix,
// last-round strategy, segment knob — and hands the finished recipe to the
// communicator's progress engine instead of executing it.  The engine owns
// scheduling from there (lazy start, tag allocation, fusion); see
// progress.hpp.

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::int64_t block_bytes,
                  const AlltoallOptions& options) {
  const AlltoallPlan plan =
      plan_alltoall(comm.size(), comm.ports(), block_bytes, options);
  const model::LinearModel machine = model::effective_machine(options.machine);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && plan.segments_hint > 0 ? plan.segments_hint
                                                      : options.segments,
      /*pipelined=*/true, machine, plan.predicted);
  OpSpec spec;
  spec.family = OpSpec::Family::kAlltoall;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = block_bytes;
  spec.key = index_plan_key(plan.algorithm, comm.size(), comm.ports(),
                            plan.radix, segments);
  spec.predicted = plan.predicted;
  spec.machine = machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ialltoall(mps::Communicator& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, const Layout& send_layout,
                  const Layout& recv_layout,
                  const AlltoallOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(n) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(n),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return ialltoall(comm, send.first(static_cast<std::size_t>(n * b)),
                     recv.first(static_cast<std::size_t>(n * b)), b, options);
  }
  const AlltoallPlan plan = plan_alltoall(n, comm.ports(), b, options);
  const model::LinearModel machine = model::effective_machine(options.machine);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && plan.segments_hint > 0 ? plan.segments_hint
                                                      : options.segments,
      /*pipelined=*/true, machine, plan.predicted);
  OpSpec spec;
  spec.family = OpSpec::Family::kAlltoall;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = b;
  spec.key = index_plan_key(plan.algorithm, n, comm.ports(), plan.radix,
                            segments,
                            layout_digest(&send_layout, &recv_layout));
  spec.predicted = plan.predicted;
  spec.machine = machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.send_layout = send_layout;
  spec.recv_layout = recv_layout;
  spec.has_layout = true;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, std::int64_t block_bytes,
                   const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const ConcatRecipe recipe = resolve_concat_recipe(n, k, block_bytes, options);
  OpSpec spec;
  spec.family = OpSpec::Family::kAllgather;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = block_bytes;
  spec.key = concat_plan_key(recipe.algorithm, n, k, recipe.strategy,
                             block_bytes, recipe.segments);
  spec.predicted = recipe.predicted;
  spec.machine = model::effective_machine(options.machine);
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request iallgather(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout,
                   const AllgatherOptions& options) {
  const std::int64_t n = comm.size();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(1) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(n),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return iallgather(comm, send.first(static_cast<std::size_t>(b)),
                      recv.first(static_cast<std::size_t>(n * b)), b,
                      options);
  }
  const ConcatRecipe recipe =
      resolve_concat_recipe(n, comm.ports(), b, options);
  OpSpec spec;
  spec.family = OpSpec::Family::kAllgather;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = b;
  spec.key = concat_plan_key(recipe.algorithm, n, comm.ports(),
                             recipe.strategy, b, recipe.segments,
                             layout_digest(&send_layout, &recv_layout));
  spec.predicted = recipe.predicted;
  spec.machine = model::effective_machine(options.machine);
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.send_layout = send_layout;
  spec.recv_layout = recv_layout;
  spec.has_layout = true;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const AlltoallvOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                    "ialltoallv needs the full n*n count matrix");

  std::int64_t total = 0;
  std::int64_t max_pair = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_pair = std::max(max_pair, c);
  }

  // The engine outlives the caller's tables: own every shape vector
  // (empty displacements mean the packed canonical layout, as in the
  // blocking twin).
  OpSpec spec;
  spec.counts.assign(counts.begin(), counts.end());
  if (send_displs.empty()) {
    spec.send_displs = prefix_displs(counts.subspan(
        static_cast<std::size_t>(rank * n), static_cast<std::size_t>(n)));
  } else {
    spec.send_displs.assign(send_displs.begin(), send_displs.end());
  }
  if (recv_displs.empty()) {
    std::vector<std::int64_t> col(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] =
          counts[static_cast<std::size_t>(i * n + rank)];
    }
    spec.recv_displs = prefix_displs(col);
  } else {
    spec.recv_displs.assign(recv_displs.begin(), recv_displs.end());
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.recv_displs.size()) == n);

  const IndexvRecipe recipe =
      resolve_indexv_recipe(n, k, total, max_pair, options);
  const int segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), recipe.predicted);
  spec.family = OpSpec::Family::kAlltoallv;
  spec.send = send;
  spec.recv = recv;
  spec.key = indexv_plan_key(recipe.algorithm, n, k, recipe.radix,
                             shape_digest(counts), segments);
  spec.predicted = recipe.predicted;
  spec.machine = model::effective_machine(options.machine);
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.pad_bytes = max_pair;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ialltoallv(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::int64_t> counts,
                   std::span<const std::int64_t> send_displs,
                   std::span<const std::int64_t> recv_displs,
                   const Layout& send_layout, const Layout& recv_layout,
                   const AlltoallvOptions& options) {
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return ialltoallv(comm, send, recv, counts, send_displs, recv_displs,
                      options);
  }
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t rank = comm.rank();
  BRUCK_REQUIRE_MSG(static_cast<std::int64_t>(counts.size()) == n * n,
                    "ialltoallv needs the full n*n count matrix");

  std::int64_t total = 0;
  std::int64_t max_pair = 0;
  for (const std::int64_t c : counts) {
    BRUCK_REQUIRE_MSG(c >= 0, "counts must be non-negative");
    total += c;
    max_pair = std::max(max_pair, c);
  }
  BRUCK_REQUIRE_MSG(send_layout.block_bytes() >= max_pair &&
                        recv_layout.block_bytes() >= max_pair,
                    "layouts must cover the largest pair count");

  OpSpec spec;
  spec.counts.assign(counts.begin(), counts.end());
  if (send_displs.empty()) {
    spec.send_displs = layout_prefix_displs(
        send_layout,
        counts.subspan(static_cast<std::size_t>(rank * n),
                       static_cast<std::size_t>(n)));
  } else {
    spec.send_displs.assign(send_displs.begin(), send_displs.end());
  }
  if (recv_displs.empty()) {
    std::vector<std::int64_t> col(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      col[static_cast<std::size_t>(i)] =
          counts[static_cast<std::size_t>(i * n + rank)];
    }
    spec.recv_displs = layout_prefix_displs(recv_layout, col);
  } else {
    spec.recv_displs.assign(recv_displs.begin(), recv_displs.end());
  }
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.send_displs.size()) == n);
  BRUCK_REQUIRE(static_cast<std::int64_t>(spec.recv_displs.size()) == n);

  const IndexvRecipe recipe =
      resolve_indexv_recipe(n, k, total, max_pair, options);
  const int segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true,
      model::effective_machine(options.machine), recipe.predicted);
  spec.family = OpSpec::Family::kAlltoallv;
  spec.send = send;
  spec.recv = recv;
  spec.key = indexv_plan_key(recipe.algorithm, n, k, recipe.radix,
                             shape_digest(counts), segments,
                             layout_digest(&send_layout, &recv_layout));
  spec.predicted = recipe.predicted;
  spec.machine = model::effective_machine(options.machine);
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.pad_bytes = max_pair;
  spec.send_layout = send_layout;
  spec.recv_layout = recv_layout;
  spec.has_layout = true;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, std::int64_t block_bytes,
                        const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  BRUCK_REQUIRE(block_bytes >= 0);
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && block_bytes % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, block_bytes, options.algorithm, options.radix, options.machine,
      options.radix_set);
  const model::LinearModel machine = model::effective_machine(options.machine);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && choice.segments_hint > 0 ? choice.segments_hint
                                                        : options.segments,
      /*pipelined=*/true, machine, choice.predicted);
  OpSpec spec;
  spec.family = OpSpec::Family::kReduceScatter;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = block_bytes;
  spec.key =
      reduce_plan_key(choice.algorithm, n, k, choice.radix, op, segments);
  spec.predicted = choice.predicted;
  spec.machine = machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.op = op;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

Request ireduce_scatter(mps::Communicator& comm,
                        std::span<const std::byte> send,
                        std::span<std::byte> recv, const Layout& send_layout,
                        const Layout& recv_layout, const ReduceOp& op,
                        const ReduceScatterOptions& options) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t b = send_layout.block_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == b,
                    "send and recv layouts must carry the same logical "
                    "block size");
  BRUCK_REQUIRE_MSG(op.elem_bytes() >= 1 && b % op.elem_bytes() == 0,
                    "block size must be a whole number of op elements");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(n) &&
          static_cast<std::int64_t>(recv.size()) >= recv_layout.span_bytes(1),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return ireduce_scatter(comm, send.first(static_cast<std::size_t>(n * b)),
                           recv.first(static_cast<std::size_t>(b)), b, op,
                           options);
  }
  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, b, options.algorithm, options.radix, options.machine,
      options.radix_set);
  const model::LinearModel machine = model::effective_machine(options.machine);
  const int segments = model::resolve_segment_knob(
      options.segments == 0 && choice.segments_hint > 0 ? choice.segments_hint
                                                        : options.segments,
      /*pipelined=*/true, machine, choice.predicted);
  OpSpec spec;
  spec.family = OpSpec::Family::kReduceScatter;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = b;
  spec.key = reduce_plan_key(choice.algorithm, n, k, choice.radix, op,
                             segments,
                             layout_digest(&send_layout, &recv_layout));
  spec.predicted = choice.predicted;
  spec.machine = machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.op = op;
  spec.send_layout = send_layout;
  spec.recv_layout = recv_layout;
  spec.has_layout = true;
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

namespace {

/// The shared tail of both iallreduce overloads: resolve the two-stage
/// recipe for a `bytes`-byte logical payload and submit the spec (layouts,
/// when present, only steer the engine's staging copies — the wire stages
/// run contiguous, so neither stage key carries a layout digest).
Request submit_iallreduce(mps::Communicator& comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv, std::int64_t bytes,
                          const ReduceOp& op, const AllreduceOptions& options,
                          const Layout* send_layout,
                          const Layout* recv_layout) {
  const std::int64_t n = comm.size();
  const int k = comm.ports();
  const std::int64_t ew = op.elem_bytes();

  // Same two-stage decomposition as the blocking twin, but both stages are
  // resolved up front: the engine chains the allgather after the
  // reduce-scatter inside one tag namespace.
  const std::int64_t elems = bytes / ew;
  const std::int64_t block_elems = n > 0 ? ceil_div(elems, n) : 0;
  const std::int64_t b = block_elems * ew;

  const detail::ReducePlanChoice choice = detail::resolve_reduce_algorithm(
      n, k, b, options.algorithm, options.radix, options.machine,
      options.radix_set);
  const model::LinearModel machine = model::effective_machine(options.machine);
  const int rs_segments = model::resolve_segment_knob(
      options.segments == 0 && choice.segments_hint > 0 ? choice.segments_hint
                                                        : options.segments,
      /*pipelined=*/true, machine, choice.predicted);

  const ConcatAlgorithm concat =
      options.concat == ConcatAlgorithm::kAuto ? ConcatAlgorithm::kBruck
                                               : options.concat;
  const model::ConcatLastRound strategy =
      concat == ConcatAlgorithm::kBruck
          ? model::resolve_concat_last_round(n, k, b,
                                             model::ConcatLastRound::kAuto)
          : model::ConcatLastRound::kAuto;
  model::CostMetrics concat_predicted;
  switch (concat) {
    case ConcatAlgorithm::kBruck:
    case ConcatAlgorithm::kAuto:
      concat_predicted = model::concat_bruck_cost(n, k, b, strategy);
      break;
    case ConcatAlgorithm::kFolklore:
      concat_predicted = model::concat_folklore_cost(n, b);
      break;
    case ConcatAlgorithm::kRing:
      concat_predicted = model::concat_ring_cost(n, b);
      break;
  }
  const int ag_segments = model::resolve_segment_knob(
      options.segments, /*pipelined=*/true, machine, concat_predicted);

  OpSpec spec;
  spec.family = OpSpec::Family::kAllreduce;
  spec.send = send;
  spec.recv = recv;
  spec.block_bytes = b;
  spec.key =
      reduce_plan_key(choice.algorithm, n, k, choice.radix, op, rs_segments);
  spec.concat_key = concat_plan_key(concat, n, k, strategy, b, ag_segments);
  spec.predicted = choice.predicted;
  spec.machine = machine;
  spec.requested_segments = options.segments;
  spec.start_round = options.start_round;
  spec.op = op;
  if (send_layout != nullptr) {
    spec.send_layout = *send_layout;
    spec.recv_layout = *recv_layout;
    spec.has_layout = true;
  }
  return ProgressEngine::for_comm(comm).submit(std::move(spec));
}

}  // namespace

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const ReduceOp& op,
                   const AllreduceOptions& options) {
  const std::int64_t bytes = static_cast<std::int64_t>(send.size());
  const std::int64_t ew = op.elem_bytes();
  BRUCK_REQUIRE(static_cast<std::int64_t>(recv.size()) == bytes);
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "payload must be a whole number of op elements");
  return submit_iallreduce(comm, send, recv, bytes, op, options, nullptr,
                           nullptr);
}

Request iallreduce(mps::Communicator& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, const Layout& send_layout,
                   const Layout& recv_layout, const ReduceOp& op,
                   const AllreduceOptions& options) {
  const std::int64_t bytes = send_layout.block_bytes();
  const std::int64_t ew = op.elem_bytes();
  BRUCK_REQUIRE_MSG(recv_layout.block_bytes() == bytes,
                    "send and recv layouts must carry the same logical "
                    "payload size");
  BRUCK_REQUIRE_MSG(ew >= 1 && bytes % ew == 0,
                    "payload must be a whole number of op elements");
  BRUCK_REQUIRE_MSG(
      static_cast<std::int64_t>(send.size()) >= send_layout.span_bytes(1) &&
          static_cast<std::int64_t>(recv.size()) >=
              recv_layout.span_bytes(1),
      "buffers must cover the layouts' physical span");
  if (send_layout.is_contiguous() && recv_layout.is_contiguous()) {
    return iallreduce(comm, send.first(static_cast<std::size_t>(bytes)),
                      recv.first(static_cast<std::size_t>(bytes)), op,
                      options);
  }
  return submit_iallreduce(comm, send, recv, bytes, op, options,
                           &send_layout, &recv_layout);
}

int broadcast(mps::Communicator& comm, std::int64_t root,
              std::span<std::byte> data, const BcastApiOptions& options) {
  switch (options.algorithm) {
    case BcastAlgorithm::kBinomial:
      return bcast_binomial(comm, root, data,
                            BcastOptions{options.start_round});
    case BcastAlgorithm::kCirculant:
    case BcastAlgorithm::kAuto:
      return bcast_circulant(comm, root, data,
                             BcastOptions{options.start_round});
  }
  BRUCK_ENSURE_MSG(false, "unreachable");
  return options.start_round;
}

int gather(mps::Communicator& comm, std::int64_t root,
           std::span<const std::byte> send, std::span<std::byte> recv,
           std::int64_t block_bytes, const RootedOptions& options) {
  return gather_binomial(comm, root, send, recv, block_bytes,
                         GatherScatterOptions{options.start_round});
}

int scatter(mps::Communicator& comm, std::int64_t root,
            std::span<const std::byte> send, std::span<std::byte> recv,
            std::int64_t block_bytes, const RootedOptions& options) {
  return scatter_binomial(comm, root, send, recv, block_bytes,
                          GatherScatterOptions{options.start_round});
}

}  // namespace bruck::coll
