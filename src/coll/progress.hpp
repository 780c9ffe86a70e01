// The multi-tenant progress engine behind the nonblocking collectives.
//
// One engine exists per communicator (per rank thread).  The i* entry
// points of api.hpp resolve an execution recipe — exactly the blocking
// facade's tuner/radix/segment resolution — and submit() it here; the
// engine owns every outstanding operation and multiplexes them over the
// communicator's single port-engine completion stream: each operation runs
// as a resumable PlanCursor in its own port-namespace tag, completed
// receive handles are routed back to their cursor through a handle→cursor
// map, and test()/wait() drive whichever cursors have work regardless of
// which request the caller is holding.
//
// Lazy start and batching: a submitted operation does not touch the wire
// until the first test()/wait() on any of the communicator's requests.
// At that point the whole pending batch is started at once, and pending
// operations with the *same fuse signature* (same family, algorithm,
// radix, geometry, block size, start round, segment knob, and machine
// profile) are considered for fusion: G members become one wire exchange
// over blocks of G·b — the per-message start-up β is paid once instead of
// G times — when model::pick_fusion says the fused exchange plus its local
// gather/scatter passes beats G serial executions.  Only block-size
// independent plans fuse (alltoall and reduce-scatter); members' payloads
// are interleaved per block slot ([member0 blockj | member1 blockj | …])
// and scattered back on completion, bitwise-identical to serial execution.
//
// Because the batch boundary is "everything submitted since the last
// start", fusion grouping is SPMD-deterministic: every rank submits and
// tests in the same order, so every rank forms the same groups and
// allocates the same tags.
//
// Communicators without a native port engine (wrappers that only override
// exchange) cannot express tags; the engine degrades to a serial FIFO at
// tag 0 — each wait() runs every older operation to completion first, and
// test() degrades to wait().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coll/layout.hpp"
#include "coll/plan_cache.hpp"
#include "coll/reduction.hpp"
#include "coll/request.hpp"
#include "coll/workspace.hpp"
#include "model/linear_model.hpp"
#include "model/metrics.hpp"
#include "mps/communicator.hpp"

namespace bruck::coll {

/// One resolved nonblocking operation, as handed to ProgressEngine::submit
/// by the i* facade (api.cpp).  Everything the tuner decides is already
/// resolved; the engine only schedules and executes.
struct OpSpec {
  /// Which i* entry point produced this spec.
  enum class Family {
    kAlltoall,       ///< uniform index operation
    kAllgather,      ///< uniform concatenation
    kAlltoallv,      ///< irregular index operation
    kReduceScatter,  ///< uniform reduce-scatter
    kAllreduce,      ///< two-stage: reduce-scatter then allgather
  };

  Family family = Family::kAlltoall;
  /// User payload buffers; must outlive the request.
  std::span<const std::byte> send;
  std::span<std::byte> recv;
  /// Uniform block size (allreduce: the padded stage block size).
  std::int64_t block_bytes = 0;
  /// Resolved plan key of the (primary-stage) execution.
  PlanKey key;
  /// Modeled measures behind `key` — the fusion decision's per-member input.
  model::CostMetrics predicted;
  /// Machine profile the recipe was tuned under.
  model::LinearModel machine;
  /// The raw user segment knob (0 = tune): a fused execution re-resolves
  /// it against the fused block size.
  int requested_segments = 0;
  int start_round = 0;
  /// Combine operator (reduction families; copied, not referenced).
  ReduceOp op;
  /// Allreduce only: resolved key and measures of the allgather stage.
  PlanKey concat_key;
  /// Irregular shapes (alltoallv): owned copies — the engine outlives the
  /// caller's tables.
  std::vector<std::int64_t> counts;
  std::vector<std::int64_t> send_displs;
  std::vector<std::int64_t> recv_displs;
  /// Irregular scratch stride (max pair bytes over `counts`).
  std::int64_t pad_bytes = 0;
  /// Strided user-buffer layouts (value-stored: the engine outlives the
  /// caller's stack; the Op never moves, so cursors can point into these).
  /// has_layout marks a layout-overload submission — the facade only sets
  /// it for genuinely non-contiguous layouts, and it disables fusion
  /// (fusion interleaves contiguous blocks).
  Layout send_layout;
  Layout recv_layout;
  bool has_layout = false;
};

/// Counters of one communicator's progress engine since construction.
struct ProgressStats {
  std::uint64_t submitted = 0;        ///< operations submitted
  std::uint64_t completed = 0;        ///< operations retired
  std::uint64_t fused_groups = 0;     ///< fused wire exchanges executed
  std::uint64_t fused_members = 0;    ///< operations that rode in one
  std::uint64_t serial_fallback = 0;  ///< operations run through the tag-0 FIFO
  std::uint64_t tags_used = 0;        ///< port-namespace tags allocated

  friend bool operator==(const ProgressStats&, const ProgressStats&) = default;
};

/// Per-communicator scheduler of nonblocking collectives (see the file
/// comment).  Obtain via for_comm(); all calls must come from the
/// communicator's own rank thread.  The engine lives in the communicator's
/// extension slot and is destroyed with it; every request must be completed
/// before its communicator is destroyed.
class ProgressEngine {
 public:
  /// The engine of `comm`, created on first use (same single-thread
  /// contract as the communicator itself).
  static ProgressEngine& for_comm(mps::Communicator& comm);

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;
  ~ProgressEngine();

  /// Queue one operation; returns its request handle.  The operation
  /// starts at the next test()/wait() on any of this engine's requests.
  [[nodiscard]] Request submit(OpSpec&& spec);

  /// Operations submitted but not yet retired through wait().
  [[nodiscard]] std::size_t outstanding() const;

  [[nodiscard]] const ProgressStats& stats() const { return stats_; }

  /// The communicator's reusable executor memory (workspace.hpp).
  [[nodiscard]] ExecWorkspace& workspace() { return workspace_; }

  // -- Request plumbing (called through the Request API; not meant to be
  //    used directly) ------------------------------------------------------

  /// Nonblocking completion poll of operation `id` (Request::test).
  bool test(std::uint64_t id);
  /// Complete operation `id`, retire it, and return its next free round
  /// index (Request::wait).
  int wait(std::uint64_t id);
  /// Start anything pending and block until one more receive completes
  /// somewhere (the wait_any building block).  Precondition: at least one
  /// operation is incomplete.
  void step_blocking();

 private:
  struct Op;
  struct Exec;
  struct FuseSig;

  explicit ProgressEngine(mps::Communicator& comm);

  [[nodiscard]] Op* find_op(std::uint64_t id);
  /// Start every pending operation (fusion grouping happens here).
  void seal();
  void start_solo(Op* op);
  void start_fused(const std::vector<Op*>& members);
  /// Post all newly postable rounds of `exec`, routing the returned
  /// handles; retires the exec when its cursor completes.
  void pump_posts(Exec& exec);
  /// Route one completed receive handle to its cursor.
  void deliver(mps::PortHandle h);
  /// Finish one exec: scatter fused payloads back, record plan events
  /// (composite chains record their own per-stage events), release the
  /// tag, mark members done.
  void retire(Exec& exec);
  /// Serial FIFO fallback: run queued operations (oldest first) to
  /// completion, through `id` inclusive.
  void run_serial_until(std::uint64_t id);
  void run_serial_op(Op& op);

  // Declared first so it outlives the cursors in live_, which hand their
  // state back to it on destruction.
  ExecWorkspace workspace_;
  mps::Communicator* comm_;
  bool native_ = false;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Op>> ops_;
  std::vector<std::uint64_t> pending_;  ///< submitted, unstarted (FIFO)
  std::vector<std::unique_ptr<Exec>> live_;
  /// In-flight receive handle → the exec it completes (flat; a handful of
  /// entries per live exec).
  std::vector<std::pair<mps::PortHandle, Exec*>> route_;
  int serial_next_round_ = 0;  ///< fallback round chaining (shared tag 0)
  ProgressStats stats_;
};

}  // namespace bruck::coll
