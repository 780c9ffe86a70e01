// Compiled-schedule execution engine.
//
// Every collective in this library has a fixed communication pattern once
// (algorithm, n, k, radix/strategy, block size) are known: the rounds, the
// peer of every message, and exactly which byte ranges of which buffer each
// message carries.  The hot path re-derived all of that on every call.  A
// `Plan` derives it once — lowering an algorithm into a per-rank program of
// rounds whose messages are lists of *cells* (byte ranges of block slots)
// over one of three buffers (user send, user recv, scratch) — and then
// `run()` just walks the program: gather cells into a staging buffer (or
// point straight into the source buffer when the cells are contiguous —
// the zero-copy fast path), post, and scatter each receive as it lands.
// The lowerings are the only executable form of every algorithm; the
// data-free builders of sched/ are the paper-facing specification their
// executed traces are tested against.
//
// Plans are immutable after lowering and shared by all rank threads of a
// fabric; `PlanCache` (plan_cache.hpp) memoizes them per geometry so a
// repeated collective on the same communicator shape does no planning work
// at all.
//
// One executor walks a plan: `PlanCursor`, the resumable state machine
// over the nonblocking port engine.  `run()` drives one cursor to
// completion; the progress engine drives many.  Sends are handed to the
// wire (packed first when non-contiguous) without waiting, receives
// complete eagerly in *arrival* order (scatter happens per message, not
// per round), and round r+1 is posted while round r's receives are still
// in flight whenever the lowering proved the rounds independent
// (`pipeline_safe`, computed in finalize() from the cells each round
// reads and writes).
// Large payloads can additionally be split into `segments()` wire segments
// per message — the plan-lowering pipelining knob (tuned through
// model::pick_segment_count) — so a receiver consumes segment i while
// segment i+1 is still being produced.  Segmentation is invisible to the
// trace: one send event per logical message at its round.
//
// Index plans are *block-size independent*: their cells are whole blocks,
// so one plan serves every block_bytes (sizes are resolved at run time).
// Concat plans are lowered for one exact block size, because the last
// round's byte-split table partition (Section 4.2) depends on b.
//
// Irregular (vector) collectives — alltoallv / allgatherv — lower through
// the same machinery.  An irregular plan is *shape-free*: its cells still
// reference whole block slots, but each cell additionally records the
// *identity* of its occupant block (which (source, destination) pair for
// index plans, which source rank for concat plans), and the actual byte
// counts, the caller's buffer displacements, and the scratch padding
// stride all resolve at run time from a `VectorView`.  Bruck-style
// algorithms run over a max-padded scratch (every slot is pad_bytes wide)
// with on-the-wire trimming: each message ships only the occupant's true
// bytes, looked up through the cell's recorded identity.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/layout.hpp"
#include "coll/reduction.hpp"
#include "coll/workspace.hpp"
#include "model/costs.hpp"
#include "mps/communicator.hpp"
#include "sched/schedule.hpp"

namespace bruck::coll {

/// Which collective a plan realizes; drives the run-time buffer contracts
/// (index: send = n blocks, recv = n blocks; concat: send = 1 block,
/// recv = n blocks; reduce: send = n blocks, recv = 1 block — the
/// ⊕-combination of every rank's contribution to this rank).
///
/// The rooted kinds (root is always rank 0; the hierarchical composite
/// stages put the group leader at sub-communicator rank 0) are SPMD like
/// everything else — every rank passes full-size buffers:
/// gather: send = 1 block, recv = n blocks (meaningful at the root only);
/// scatter: send = n blocks (read at the root only), recv = 1 block;
/// bcast: send = 1 block (read at the root only), recv = 1 block.
enum class PlanCollective { kIndex, kConcat, kReduce, kGather, kScatter,
                            kBcast };

/// The buffer a message's cells live in.
enum class PlanBuffer : std::uint8_t {
  kUserSend,  ///< the caller's send buffer
  kUserRecv,  ///< the caller's recv buffer
  kScratch,   ///< the plan's n-block scratch (rotation window / staging)
};

/// One byte range of one block slot: bytes [lo, hi) of block `slot`, with
/// hi == kWholeBlock meaning [0, block_bytes) resolved at run time.
struct PlanCell {
  static constexpr std::int64_t kWholeBlock = -1;
  std::int64_t slot = 0;
  std::int64_t lo = 0;
  std::int64_t hi = kWholeBlock;
};

/// One message of one round on one port: the peer it travels to/from and
/// the cells it carries, as a [begin, end) range into the plan's cell pool.
struct PlanMessage {
  std::int64_t peer = 0;
  PlanBuffer buffer = PlanBuffer::kScratch;
  std::uint32_t cells_begin = 0;
  std::uint32_t cells_end = 0;
  /// Cells form one contiguous byte run in `buffer` (whole consecutive
  /// blocks): the executor skips the pack/unpack staging entirely.
  bool contiguous = false;
  /// Receive messages only: the payload is ⊕-combined into the cells
  /// (read-modify-write) instead of overwriting them.  Combine receives
  /// always land in a staging buffer first — never in place — so partial
  /// segments can't be observed mid-combine.
  bool combine = false;
};

/// One round of one rank's program: index ranges into the rank's message
/// vectors.  Empty ranges mean the rank is idle that round (tree-based
/// algorithms); the round is still counted.
struct PlanRound {
  std::uint32_t sends_begin = 0;
  std::uint32_t sends_end = 0;
  std::uint32_t recvs_begin = 0;
  std::uint32_t recvs_end = 0;
};

/// Local data movement before the communication rounds.
enum class PlanPrologue : std::uint8_t {
  kNone,
  kRotateSendToScratch,   ///< index Bruck Phase 1: scratch[s] = send[(s+rank)%n]
  kCopyOwnBlock,          ///< direct/pairwise: recv[rank] = send[rank]
  kCopySendToScratch0,    ///< concat Bruck/folklore: scratch[0] = send
  kCopySendToRecvOwnSlot, ///< ring: recv[rank] = send
  kCopyOwnBlockToRecv0,   ///< reduce direct/pairwise: recv = send[rank]
  kCopySendToRecv0AtRoot, ///< bcast: rank 0 seeds recv = send
};

/// Local data movement after the communication rounds.
enum class PlanEpilogue : std::uint8_t {
  kNone,
  kUnrotateByRank,         ///< index Bruck Phase 3
  kRotateWindowToOrigin,   ///< concat Bruck final re-indexing
  kScratchToRecvAtRoot,    ///< folklore: rank 0's gather result → recv
  kScratch0ToRecv,         ///< reduce Bruck: recv = scratch[0] (the full ⊕)
};

/// Result of one plan execution on one rank.
struct PlanExecution {
  int next_round = 0;            ///< next free round index
  std::int64_t bytes_sent = 0;   ///< this rank's total payload bytes
  /// Received bytes combined into accumulators (reduction plans; 0 else).
  std::int64_t bytes_reduced = 0;
};

/// Run-time shape of one irregular (vector) plan execution.  Irregular
/// plans are lowered shape-free; the view supplies the actual byte counts
/// and the caller's buffer layouts.  Every rank of one collective call must
/// pass the same `counts` and `pad_bytes` (the usual "the count matrix was
/// allgathered first" situation); displacements are per-rank local.
/// Blocks addressed by the displacements must not overlap.
struct VectorView {
  /// Byte counts.  Index plans read counts[src * n + dst] — the full n×n
  /// matrix; concat plans read counts[src] — n entries.
  std::span<const std::int64_t> counts;
  /// Byte offset of block slot j in the caller's send buffer (index plans
  /// only; concat plans send a single block and ignore this).
  std::span<const std::int64_t> send_displs;
  /// Byte offset of block slot i in the caller's recv buffer.
  std::span<const std::int64_t> recv_displs;
  /// Scratch slot stride: the maximum count over the whole shape.  All
  /// ranks share one plan and one padded scratch layout, so this must be
  /// globally agreed (the facade computes it from `counts`).
  std::int64_t pad_bytes = 0;
};

class PlanCursor;

class Plan : public std::enable_shared_from_this<Plan> {
 public:
  [[nodiscard]] PlanCollective collective() const { return collective_; }
  [[nodiscard]] std::int64_t n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  /// Block size the plan was lowered for; PlanCell::kWholeBlock (−1) for
  /// block-size-independent index plans.
  [[nodiscard]] std::int64_t block_bytes() const { return block_bytes_; }
  [[nodiscard]] int round_count() const { return round_count_; }
  [[nodiscard]] const std::string& algorithm() const { return algorithm_; }
  /// Wire segments per message (1 = off).
  [[nodiscard]] int segments() const { return segments_; }
  /// True for irregular (vector) plans: sizes and buffer layouts resolve at
  /// run time from a VectorView instead of a uniform block size.
  [[nodiscard]] bool irregular() const { return irregular_; }

  /// Execute this rank's program: post every round as soon as it is
  /// postable, complete receives eagerly in arrival order, and ship
  /// segments() wire segments per message.  For index plans `send`/`recv`
  /// hold n blocks of `block_bytes` each; for concat plans `send` is one
  /// block and `block_bytes` must equal the plan's.  Returns the next free
  /// round and the bytes this rank put on the wire.
  ///
  /// Blocking: returns once all of this rank's receives have landed; the
  /// whole call waits under ONE communicator receive budget (a
  /// mps::DrainDeadline), so a trickle of receives cannot stretch it.
  /// Thread safety: Plan is immutable after lowering — any number of rank
  /// threads may execute one shared plan concurrently.  Trace: one send
  /// event per nonzero message at its round (segmentation invisible).
  ///
  /// `layouts` (all run flavors) optionally describes how each block of the
  /// user buffers is laid out (layout.hpp): cells gather from / scatter to
  /// the strided layout directly — no staging copy.  Null or contiguous
  /// layouts reproduce today's behavior bit for bit, including the
  /// zero-copy contiguous-run fast path.  The layouts must outlive the
  /// call; wire bytes and trace accounting are layout-independent.
  PlanExecution run(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, std::int64_t block_bytes,
                    int start_round = 0,
                    const LayoutPair& layouts = {}) const;

  /// Execute a reduction plan: `send` holds n blocks (block j = this rank's
  /// contribution to rank j), `recv` one block that ends up ⊕-combined over
  /// every rank's contribution to this rank.  The combine is fused into the
  /// eager out-of-order completion path, so arithmetic overlaps in-flight
  /// rounds.  `block_bytes` must be a multiple of op.elem_bytes(); the op
  /// must be commutative and associative (reduction.hpp).  Reduction plans
  /// are block-size independent like index plans.  A recv layout's
  /// blocklen must be a multiple of op.elem_bytes() (combines trim at piece
  /// edges).
  PlanExecution run(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, std::int64_t block_bytes,
                    const ReduceOp& op, int start_round = 0,
                    const LayoutPair& layouts = {}) const;

  /// Execute an irregular plan.  For index plans `send`/`recv` are laid out
  /// by view.send_displs/view.recv_displs; for concat plans `send` is this
  /// rank's single block (view.counts[rank] bytes) and `recv` is laid out
  /// by view.recv_displs.  Blocks with a zero count never touch the fabric
  /// (the round is still counted).  With layouts, each block's displacement
  /// is the block *origin* and the layout maps its counts[·] logical bytes
  /// from there.
  PlanExecution run(mps::Communicator& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, const VectorView& view,
                    int start_round = 0, const LayoutPair& layouts = {}) const;

  /// Data-free view of the whole pattern (all ranks), for cross-checking
  /// against sched/ builders and for cost metrics.  Index plans render with
  /// the given block size (default 1: byte counts equal block counts).
  [[nodiscard]] sched::Schedule to_schedule(std::int64_t block_bytes = 1) const;

  /// Human-readable anatomy: per-round message counts, peers and sizes of
  /// rank 0, plus totals (the `bruckcl_plan compile` rendering).
  [[nodiscard]] std::string describe() const;

  /// Human-readable anatomy of the *cursor* state machine this plan drives
  /// under nonblocking execution (the `bruckcl_plan compile --nonblocking`
  /// rendering): per round, when it becomes postable relative to earlier
  /// rounds' completions, and what it posts.
  [[nodiscard]] std::string describe_cursor() const;

  // -- Lowering entry points ------------------------------------------------
  //
  // `segments` is the wire-segmentation knob (≥ 1; it does not change the
  // round/cell structure, only how the executor ships each message).

  static std::shared_ptr<const Plan> lower_index_bruck(std::int64_t n, int k,
                                                       std::int64_t radix,
                                                       int segments = 1);
  static std::shared_ptr<const Plan> lower_index_direct(std::int64_t n, int k,
                                                        int segments = 1);
  static std::shared_ptr<const Plan> lower_index_pairwise(std::int64_t n,
                                                          int k,
                                                          int segments = 1);
  static std::shared_ptr<const Plan> lower_concat_bruck(
      std::int64_t n, int k, std::int64_t block_bytes,
      model::ConcatLastRound strategy, int segments = 1);
  /// Folklore and ring are one-port algorithms; `k` is the fabric's port
  /// count they will run on (they use one port per round regardless).
  static std::shared_ptr<const Plan> lower_concat_folklore(
      std::int64_t n, int k, std::int64_t block_bytes, int segments = 1);
  static std::shared_ptr<const Plan> lower_concat_ring(
      std::int64_t n, int k, std::int64_t block_bytes, int segments = 1);

  // -- Rooted lowering entry points ----------------------------------------
  //
  // The intra-group stages of the hierarchical two-level collectives: a
  // binomial gather to rank 0, a reversed binomial scatter from rank 0, and
  // the paper's circulant (k+1)-ary broadcast tree from rank 0.  All three
  // are block-size independent and mirror the rooted primitives in
  // gather_scatter.cpp / bcast.cpp round for round, so the existing
  // gather_binomial_cost / scatter_binomial_cost / bcast_circulant_cost
  // formulas price them exactly.

  /// Binomial gather to rank 0: ⌈log2 n⌉ rounds; rank v with
  /// v mod 2^{i+1} = 2^i ships its accumulated segment in round i.
  static std::shared_ptr<const Plan> lower_gather_binomial(std::int64_t n,
                                                           int k,
                                                           int segments = 1);
  /// Reversed binomial scatter from rank 0: strides halve, a segment
  /// holder ships its upper half each round.
  static std::shared_ptr<const Plan> lower_scatter_binomial(std::int64_t n,
                                                            int k,
                                                            int segments = 1);
  /// Circulant (k+1)-ary broadcast tree from rank 0 (Section 2's optimal
  /// ⌈log_{k+1} n⌉-round broadcast); non-roots forward from the recv
  /// buffer once joined.
  static std::shared_ptr<const Plan> lower_bcast_circulant(std::int64_t n,
                                                           int k,
                                                           int segments = 1);

  // -- Reduction lowering entry points -------------------------------------
  //
  // Reduction plans are block-size *and* op independent: the combine
  // operator is supplied at run time, so one lowering serves every
  // (block_bytes, ReduceOp) of a geometry.  All receive messages carry the
  // combine flag; the pipeline-safety analysis treats their cells as
  // read-modify-write (two combine-writes commute, everything else
  // conflicts).

  /// The radix-r Bruck skeleton run in reverse with combining: digits
  /// processed high → low, the digit-x step z ships the live partial sums
  /// {z·r^x + t} to rank + z·r^x, which combines them into slots {t}.
  /// Per-rank wire volume is exactly (n−1) blocks (C2-optimal); C1 equals
  /// the index Bruck round count.
  static std::shared_ptr<const Plan> lower_reduce_bruck(std::int64_t n, int k,
                                                        std::int64_t radix,
                                                        int segments = 1);
  /// Direct per-pair exchange with combining: n−1 single-block messages, k
  /// per round, fully pipeline-safe (all receives combine into the one
  /// accumulator block).
  static std::shared_ptr<const Plan> lower_reduce_direct(std::int64_t n, int k,
                                                         int segments = 1);
  /// XOR pairwise exchange with combining (power-of-two n only).
  static std::shared_ptr<const Plan> lower_reduce_pairwise(std::int64_t n,
                                                           int k,
                                                           int segments = 1);

  // -- Irregular (vector) lowering entry points ----------------------------
  //
  // All irregular plans are shape-free (see the file comment): one lowering
  // serves every shape of the same (algorithm, n, k, radix) structure.  The
  // Bruck variants route through a max-padded scratch and trim every wire
  // message to the occupant block's true size.

  static std::shared_ptr<const Plan> lower_indexv_bruck(std::int64_t n, int k,
                                                        std::int64_t radix,
                                                        int segments = 1);
  static std::shared_ptr<const Plan> lower_indexv_direct(std::int64_t n, int k,
                                                         int segments = 1);
  static std::shared_ptr<const Plan> lower_indexv_pairwise(std::int64_t n,
                                                           int k,
                                                           int segments = 1);
  /// Irregular concat Bruck always uses the column-granular last round (the
  /// byte-split partition of Section 4.2 needs one concrete uniform b).
  static std::shared_ptr<const Plan> lower_concatv_bruck(std::int64_t n, int k,
                                                         int segments = 1);
  static std::shared_ptr<const Plan> lower_concatv_folklore(std::int64_t n,
                                                            int k,
                                                            int segments = 1);
  static std::shared_ptr<const Plan> lower_concatv_ring(std::int64_t n, int k,
                                                        int segments = 1);

 private:
  struct RankProgram {
    std::vector<PlanMessage> sends;
    std::vector<PlanMessage> recvs;
    std::vector<PlanRound> rounds;
    /// pipeline_safe[i]: round i's send reads and recv writes are disjoint
    /// from round i−1's recv writes, so the executor may post
    /// round i before round i−1's receives complete.  Computed in
    /// finalize(); [0] is always false (nothing precedes round 0).
    std::vector<std::uint8_t> pipeline_safe;
  };

  Plan(PlanCollective collective, std::string algorithm, std::int64_t n, int k,
       std::int64_t block_bytes);

  /// One execution's resolved size/layout context: uniform runs carry the
  /// block size; irregular runs carry the VectorView (and use `b` as the padded scratch stride); reduction runs
  /// carry the combine operator.
  struct Extents {
    std::int64_t b = 0;
    const VectorView* view = nullptr;  // null for uniform plans
    const ReduceOp* op = nullptr;      // null for non-reduction plans
    /// User-buffer datatype layouts (layout.hpp); null = contiguous.
    /// Resolved per buffer through active_layout() — scratch is always
    /// contiguous, and a contiguous layout degenerates to null.
    const Layout* send_layout = nullptr;
    const Layout* recv_layout = nullptr;
  };

  /// Open/close one round across all ranks; messages added in between
  /// belong to it.  end_round advances the plan's round counter.
  void begin_round();
  void end_round();

  /// Append a message to `rank`'s program, computing `contiguous` from the
  /// cells.  Irregular plans must pass `blocks` — one occupant-block id per
  /// cell (index plans: src·n + dst into the count matrix; concat plans:
  /// the source rank) — so run time can resolve each cell's true size.
  /// `combine` marks a receive whose payload is ⊕-combined into its cells
  /// (reduction plans only; never valid on sends).
  void add_message(std::int64_t rank, bool is_send, std::int64_t peer,
                   PlanBuffer buffer, const std::vector<PlanCell>& cells,
                   const std::vector<std::int64_t>& blocks = {},
                   bool combine = false);

  /// Validate the lowered pattern against the k-port model and precompute
  /// run-time flags.
  void finalize();

  [[nodiscard]] bool cells_contiguous(std::uint32_t begin,
                                      std::uint32_t end) const;
  [[nodiscard]] std::int64_t message_bytes(const PlanMessage& m,
                                           std::int64_t b) const;

  // Run-time resolution of one cell under an execution's Extents: its byte
  // length (the occupant's true size for irregular plans, trimmed against
  // the cell's [lo, hi) byte range) and its byte offset in its buffer
  // (slot-strided for uniform plans and scratch; displacement-table for the
  // user buffers of irregular plans).
  [[nodiscard]] std::int64_t cell_len(std::uint32_t ci,
                                      const Extents& ex) const;
  [[nodiscard]] std::int64_t cell_offset(std::uint32_t ci, PlanBuffer buffer,
                                         const Extents& ex) const;
  [[nodiscard]] std::int64_t resolved_message_bytes(const PlanMessage& m,
                                                    const Extents& ex) const;

  /// The layout governing `buffer` under `ex`, or null when the buffer is
  /// plain contiguous — scratch always, user buffers when no layout (or a
  /// degenerate contiguous one) was supplied.  Null ⇒ the executors take
  /// exactly the pre-layout code paths, including zero-copy.
  [[nodiscard]] static const Layout* active_layout(PlanBuffer buffer,
                                                   const Extents& ex);

  /// Append cell `ci`'s byte extents in `buffer` under `ex` — one extent on
  /// the contiguous path, the layout's piece walk otherwise.  The unit both
  /// pack_message and scatter_message address user buffers through.
  void append_cell_extents(std::uint32_t ci, PlanBuffer buffer,
                           const Extents& ex,
                           std::vector<ByteExtent>& out) const;

  /// Compute every rank's pipeline_safe vector (part of finalize()).
  void compute_pipeline_safety();

  // Pieces of the executor.
  void check_run_contract(const mps::Communicator& comm,
                          std::span<const std::byte> send,
                          std::span<std::byte> recv, std::int64_t b,
                          const LayoutPair& layouts) const;
  void check_vector_contract(const mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv, const VectorView& view,
                             const LayoutPair& layouts) const;
  void check_reduce_contract(const mps::Communicator& comm,
                             std::span<const std::byte> send,
                             std::span<std::byte> recv, std::int64_t b,
                             const ReduceOp& op,
                             const LayoutPair& layouts) const;
  void apply_prologue(std::span<const std::byte> send,
                      std::span<std::byte> recv, std::span<std::byte> scratch,
                      std::int64_t rank, const Extents& ex) const;
  void apply_epilogue(std::span<std::byte> recv,
                      std::span<const std::byte> scratch, std::int64_t rank,
                      const Extents& ex) const;
  /// Gather a non-contiguous message's cells into `out` (grown, never
  /// shrunk) and return the packed prefix.  `extents` is scratch for the
  /// irregular and layout paths.
  [[nodiscard]] std::span<const std::byte> pack_message(
      const PlanMessage& m, std::span<const std::byte> src, const Extents& ex,
      std::vector<std::byte>& out, std::vector<ByteExtent>& extents) const;
  /// Scatter a received message's bytes into its cells — overwriting, or
  /// ⊕-combining through ex.op when the message carries the combine flag.
  /// `extents` is scratch for the irregular and layout paths.
  void scatter_message(const PlanMessage& m, std::span<std::byte> dst,
                       const std::byte* data, const Extents& ex,
                       std::vector<ByteExtent>& extents) const;
  /// True when a receive lands straight in its target buffer; false when
  /// it is staged (non-contiguous cells, a layout, or a ⊕-combine, which
  /// must never land in the accumulator directly).
  [[nodiscard]] static bool lands_in_place(const PlanMessage& m,
                                           const Extents& ex);

  // The body every public run flavor funnels into.
  PlanExecution run_impl(mps::Communicator& comm,
                         std::span<const std::byte> send,
                         std::span<std::byte> recv, const Extents& ex,
                         int start_round) const;

  friend class PlanCursor;

  PlanCollective collective_;
  std::string algorithm_;
  std::int64_t n_;
  int k_;
  std::int64_t block_bytes_;  // kWholeBlock for index plans
  int segments_ = 1;
  int round_count_ = 0;
  bool irregular_ = false;
  bool needs_scratch_ = false;
  PlanPrologue prologue_ = PlanPrologue::kNone;
  PlanEpilogue epilogue_ = PlanEpilogue::kNone;
  std::vector<PlanCell> cells_;
  /// Irregular plans only: cells_[i]'s occupant-block id (index plans:
  /// src·n + dst; concat plans: source rank), parallel to cells_.  Empty
  /// for uniform plans.
  std::vector<std::int64_t> cell_block_;
  std::vector<RankProgram> programs_;  // one per rank
};

/// Resumable execution of one plan on one rank: the state machine behind
/// Plan::run(), exposed incrementally so several collectives can share one
/// communicator's completion stream.
///
/// The cursor never blocks.  post_ready() posts every round whose
/// dependence is satisfied — round i is postable once rounds [0, i−1) have
/// fully drained if the lowering proved it independent of round i−1
/// (`pipeline_safe`), else once rounds [0, i) have — a double-buffered
/// posting discipline (at most two rounds in flight).  The owner routes each completed receive
/// handle back through on_complete(); when the last round drains, the
/// cursor applies the plan epilogue and becomes done().
///
/// All posts go to the cursor's port-namespace `tag`, so concurrent cursors
/// on one communicator (the coll:: progress engine) can never alias wire
/// segments.  The referenced plan, communicator, buffers, ReduceOp, and
/// VectorView must outlive the cursor; construction runs the same buffer
/// contract checks as the corresponding Plan::run overload and applies
/// the prologue.
///
/// Memory: the scratch, receive staging, and handle bookkeeping come from
/// the communicator's ExecWorkspace (workspace.hpp) and return to it when
/// the cursor is destroyed, so a repeated geometry executes without heap
/// allocation.
class PlanCursor {
 public:
  /// Uniform (index/concat) execution; see Plan::run.  `layouts`
  /// (all flavors; optional) are the user-buffer datatype layouts and must
  /// outlive the cursor, like the plan and buffers.
  PlanCursor(std::shared_ptr<const Plan> plan, mps::Communicator& comm,
             std::span<const std::byte> send, std::span<std::byte> recv,
             std::int64_t block_bytes, int start_round = 0, int tag = 0,
             const LayoutPair& layouts = {});
  /// Reduction execution; `op` must outlive the cursor.
  PlanCursor(std::shared_ptr<const Plan> plan, mps::Communicator& comm,
             std::span<const std::byte> send, std::span<std::byte> recv,
             std::int64_t block_bytes, const ReduceOp& op, int start_round = 0,
             int tag = 0, const LayoutPair& layouts = {});
  /// Irregular (vector) execution; `view` (and the spans inside it) must
  /// outlive the cursor.
  PlanCursor(std::shared_ptr<const Plan> plan, mps::Communicator& comm,
             std::span<const std::byte> send, std::span<std::byte> recv,
             const VectorView& view, int start_round = 0, int tag = 0,
             const LayoutPair& layouts = {});

  PlanCursor(const PlanCursor&) = delete;
  PlanCursor& operator=(const PlanCursor&) = delete;
  ~PlanCursor();

  /// Post every round that has become postable (never blocks).  Returns the
  /// handles of the receives posted by this call (valid until the next
  /// call); the owner must feed each of them back through on_complete()
  /// when the engine reports it.  May complete the cursor outright (rounds
  /// without receives, empty plans).
  std::span<const mps::PortHandle> post_ready();

  /// Deliver one completed receive handle previously returned by
  /// post_ready(): consumes the payload (scatter/⊕-combine) and advances
  /// the drain frontier.  Precondition: `h` belongs to this cursor and was
  /// not delivered before.
  void on_complete(mps::PortHandle h);

  /// True once every round has been posted.
  [[nodiscard]] bool all_posted() const { return next_post_ == rounds_; }
  /// True once every receive has drained and the epilogue has run.
  [[nodiscard]] bool done() const { return done_; }
  /// Receives posted but not yet delivered back through on_complete().
  [[nodiscard]] int outstanding() const {
    return static_cast<int>(st_->posted.size());
  }
  [[nodiscard]] int tag() const { return tag_; }
  /// Execution totals; valid once done().
  [[nodiscard]] const PlanExecution& result() const;

  /// Drive this cursor to completion, blocking: post, wait for any
  /// completion, deliver it, repeat — the whole drive under ONE receive
  /// budget of the communicator (mps::DrainDeadline), so receives that each
  /// arrive in time but together exceed the budget still time out.
  /// Precondition: this cursor is the only one with receives outstanding
  /// on the communicator (Plan::run, the progress engine's serial
  /// fallback).  Returns result().
  PlanExecution drive();

 private:
  friend class Plan;

  PlanCursor(std::shared_ptr<const Plan> plan, mps::Communicator& comm,
             std::span<const std::byte> send, std::span<std::byte> recv,
             const Plan::Extents& ex, int start_round, int tag);

  [[nodiscard]] bool postable(int i) const;
  void post_round(int i);
  /// Advance the drained-rounds frontier; apply the epilogue when the last
  /// round drains.
  void advance_frontier();

  std::shared_ptr<const Plan> plan_;
  mps::Communicator* comm_;
  ExecWorkspace* ws_;
  std::unique_ptr<CursorState> st_;  ///< leased from *ws_
  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  std::span<std::byte> scratch_;  ///< the plan's scratch, in st_->scratch
  Plan::Extents ex_;
  int start_round_ = 0;
  int tag_ = 0;
  int rounds_ = 0;     ///< plan_->round_count()
  int next_post_ = 0;  ///< rounds [0, next_post_) have been posted
  int drained_ = 0;    ///< rounds [0, drained_) have fully completed
  PlanExecution out_;
  bool done_ = false;
};

}  // namespace bruck::coll
