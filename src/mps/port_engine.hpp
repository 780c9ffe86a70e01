// The shared *native* implementation of the nonblocking port-engine
// contract, factored out of ThreadComm so that every real fabric — threads
// with mailboxes, processes over shared-memory rings, processes over TCP —
// runs the exact same matching/ordering machinery and differs only in how
// wire messages physically move.
//
// A WirePortEngine owns the receive side of the contract entirely:
// pending-receive matching in per-(tag, source) FIFO order, wire-segment
// sequence and length checks, the early-arrival stash for tags whose
// receive is not posted yet, per-tag round monotonicity and port budgets,
// and arrival-order completion reporting.  All of that state is touched
// only by the owning rank's thread (the engine's single-thread contract),
// so a subclass's wire hooks never need to synchronize with the engine.
//
// A fabric subclass implements three hooks:
//  * wire_push(header, bytes) — move one wire segment toward its
//    destination (ring push, socket write, mailbox deposit ...).  The bytes
//    are a view of the sender's buffer, valid only for the call, so the
//    fabric copies them exactly once, into its own channel.  May block on
//    fabric backpressure, bounded by the fabric's own deadline discipline.
//  * wire_poll(waiting_srcs, timeout) — hand arrived wire segments for this
//    rank to on_wire(), blocking up to `timeout` (0 = poll) for the first.
//    on_wire copies a segment straight into its posted landing span, so a
//    fabric may pass a view of its channel (an shm ring record in place, a
//    socket parse buffer) and free the bytes once on_wire returns.  The
//    engine stashes anything it is not yet waiting for, so fabrics that must
//    drain their channel eagerly (bounded rings) may surface segments from
//    any source.  A fabric that must drain its channel *outside* a poll
//    (shm push backpressure) hands the segments to defer_wire() instead.
//  * record_send_event(...) — the trace hook (one event per *logical* send).
//
// Once a geometry repeats the engine allocates nothing: receive bookkeeping
// lives in flat slot arrays that are reused, and stashed segments are
// copied into one byte arena that grows by doubling and is compacted in
// place.
//
// Every blocking wait follows one policy on every fabric: a rank thread
// bound to exactly one CPU first spins on the fabric's nonblocking probe
// (wire_poll with timeout 0) for up to kWaitSpinBudget, then parks in the
// fabric's blocking wire_poll; an unbound thread parks at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mps/communicator.hpp"
#include "mps/message.hpp"

namespace bruck::mps {

/// Byte length of segment `i` of a `total`-byte payload split `segments`
/// ways: the remainder is spread over the leading segments, so sender and
/// receiver derive identical layouts from (total, segments) alone.
[[nodiscard]] std::int64_t wire_segment_length(std::int64_t total, int segments,
                                               int i);

/// Effective wire segment count: never more segments than bytes.
[[nodiscard]] int effective_wire_segments(std::int64_t total, int segments);

/// How long a blocking wait on a rank thread bound to one CPU spins on the
/// fabric's nonblocking probe before it parks (never past the wait's
/// DrainDeadline).  A socket or condvar park costs a kernel wake-up of tens
/// of µs — most of a small message's start-up β — while a peer mid-round
/// usually delivers within a few µs.  On loopback TCP a 30 µs budget gave
/// the same median op time as 100 µs but a worse p99.  An unbound thread
/// never spins: it may share its CPU with the very peer it waits for
/// (tests, oversubscribed hosts).
inline constexpr std::chrono::microseconds kWaitSpinBudget{100};

class WirePortEngine : public Communicator {
 public:
  void post_send(int round, std::int64_t dst, std::span<const std::byte> data,
                 int segments = 1, int tag = 0) override;
  void post_send(int round, std::int64_t dst, std::vector<std::byte>&& data,
                 int segments = 1, int tag = 0) override;
  PortHandle post_recv(int round, std::int64_t src, std::span<std::byte> data,
                       int segments = 1, int tag = 0) override;
  PortHandle post_recv_buffer(int round, std::int64_t src, std::int64_t bytes,
                              int segments = 1, int tag = 0) override;
  std::vector<std::byte> take_payload(PortHandle h) override;
  bool test_recv(PortHandle h) override;
  void wait_recv(PortHandle h) override;
  PortHandle wait_any_recv() override;
  PortHandle wait_any_recv_within(const DrainDeadline& deadline) override;
  void wait_all_recvs() override;
  std::optional<PortHandle> poll_any_recv() override;
  void release_tag(int tag) override;
  [[nodiscard]] bool native_port_engine() const override { return true; }

  /// Highest round index this rank has posted in the default (tag-0)
  /// namespace, or −1.  Tagged namespaces keep their own counters.
  [[nodiscard]] int last_round() const { return tag0_rounds_.last_round; }

 protected:
  /// `peers` is the fabric size (dense per-peer sequence tables).
  explicit WirePortEngine(std::int64_t peers);

  // -- Wire hooks a fabric must implement ----------------------------------

  /// Move one wire segment toward h.dst.  `payload` is valid only for this
  /// call: the fabric must have copied it out before returning.
  virtual void wire_push(const WireHeader& h,
                         std::span<const std::byte> payload) = 0;

  /// Hand arrived wire segments for this rank to on_wire(), blocking up to
  /// `timeout` (0 = nonblocking poll) for the first; false when none
  /// arrived in time.  `waiting_srcs` lists the distinct sources with a
  /// pending receive — fabrics with per-source channels may use it as a pop
  /// filter; fabrics with one inbound channel ignore it and rely on the
  /// engine's stash.  The span aliases engine state that on_wire() updates:
  /// finish reading it before the first on_wire() call.
  virtual bool wire_poll(std::span<const std::int64_t> waiting_srcs,
                         std::chrono::milliseconds timeout) = 0;

  /// One *logical* send (regardless of wire segmentation), at post time.
  virtual void record_send_event(int round, std::int64_t dst,
                                 std::int64_t bytes, int tag) = 0;

  // -- Services for the fabric hooks ---------------------------------------

  /// Accept one arrived wire segment: match it to the oldest pending
  /// (source, tag) receive and copy it into that receive's landing span, or
  /// stash a copy if its receive is not posted yet.  `bytes` need only stay
  /// valid for the call.  Never call it from inside wire_push (see
  /// defer_wire).
  void on_wire(const WireHeader& h, std::span<const std::byte> bytes);

  /// Accept one arrived wire segment from inside wire_push (a send waiting
  /// out backpressure): stash a copy now and match it at the next progress
  /// step, ahead of anything the fabric surfaces later — so no receive is
  /// written while a send is in flight.
  void defer_wire(const WireHeader& h, std::span<const std::byte> bytes);

  /// Allocate the stash arena for `bytes` up front (a fabric's in-flight
  /// bound, e.g. its inbound ring).  Only the pages the stash actually
  /// reaches are ever touched, so a generous reservation costs address
  /// space, not memory — and spares growth later.
  void reserve_stash(std::size_t bytes);

 private:
  /// One posted logical receive, in a reusable slot (handle 0 = free).
  struct RecvOp {
    PortHandle handle = 0;
    std::int64_t src = 0;
    int tag = 0;
    int round = 0;
    std::span<std::byte> landing;  ///< copy-into mode target
    std::vector<std::byte> owned;  ///< buffer mode storage
    bool take_buffer = false;
    bool complete = false;
    bool reported = false;  ///< handed out by a wait/test/poll
    bool consumed = false;  ///< buffer mode: payload taken
    std::uint64_t completed_at = 0;  ///< completion order
    std::int64_t total = 0;  ///< logical message bytes
    int segments = 1;
    int seg_done = 0;
    std::int64_t offset = 0;  ///< next segment's write offset
  };

  /// Round/port-budget counters of one tag namespace.
  struct TagRoundState {
    int last_round = -1;
    int sends_in_round = 0;
    int recvs_in_round = 0;
  };
  struct TaggedRounds {
    int tag = 0;
    TagRoundState state;
  };
  /// Wire sequence counter of one (tag > 0, peer) channel.
  struct TaggedSeq {
    std::uint64_t key = 0;
    std::int64_t seq = 0;
  };

  /// Composite key for per-(tag, peer) state.
  [[nodiscard]] static std::uint64_t tag_peer_key(int tag, std::int64_t peer) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) |
           static_cast<std::uint32_t>(peer);
  }
  [[nodiscard]] static std::int64_t& tagged_seq(std::vector<TaggedSeq>& seqs,
                                                std::uint64_t key);

  [[nodiscard]] TagRoundState& round_state(int tag);
  [[nodiscard]] std::int64_t& send_seq(int tag, std::int64_t dst);
  [[nodiscard]] std::int64_t& recv_seq(int tag, std::int64_t src);

  /// Shared post-side contract checks; advances the tag's round counters.
  void check_post(int round, std::int64_t peer, std::int64_t bytes,
                  bool is_send, int tag);
  /// Split `payload` into wire segments and push them as views (records the
  /// logical send in the trace).
  void wire_send(int round, std::int64_t dst,
                 std::span<const std::byte> payload, int segments, int tag);
  PortHandle add_recv_op(RecvOp&& op);
  [[nodiscard]] RecvOp* find_op(PortHandle h);
  /// The oldest (lowest-handle) incomplete receive from (src, tag).
  [[nodiscard]] RecvOp* oldest_pending(std::int64_t src, int tag);
  /// Copy one wire segment into `op` (FIFO seq and segment length checked);
  /// complete the op on its last segment.
  void deliver(RecvOp& op, const WireHeader& h,
               std::span<const std::byte> bytes);
  /// Copy one segment into the stash arena (arrival order).
  void stash(const WireHeader& h, std::span<const std::byte> bytes);
  /// Compact the arena (growing it when live + `incoming` bytes exceed its
  /// capacity) so `incoming` more bytes fit at its end.  Compaction also
  /// runs once the in-use span reaches a few times the live bytes, so the
  /// arena's touched pages track the stash's high-water mark, not its
  /// capacity.
  void make_stash_room(std::size_t incoming);
  /// Deliver stash entry i to `op` and drop it from the stash.
  void deliver_stashed(std::size_t i, RecvOp& op);
  /// Deliver stashed (tag, src) messages that now have a pending receive.
  void drain_stash(int tag, std::int64_t src);
  /// Deliver deferred segments whose receive is pending; true if any was.
  bool redeliver_deferred();
  /// Progress one poll without blocking; false if nothing arrived.
  bool try_progress();
  /// Progress blocking up to `deadline.remaining()`: spin on the probe when
  /// the thread is bound to one CPU, then park in the fabric (expiry ⇒
  /// ContractViolation naming every pending receive's source, tag and
  /// round).
  void progress_blocking(const DrainDeadline& deadline);
  /// Probe the fabric under Backoff::spin() for up to kWaitSpinBudget (never
  /// past `deadline`); true as soon as a probe delivers.
  bool spin_for_arrival(const DrainDeadline& deadline);
  /// Hand `op` out as completed: landing-mode (and consumed buffer-mode)
  /// slots are freed.
  PortHandle report(RecvOp& op);
  /// The completed, unreported op that completed first.
  [[nodiscard]] RecvOp& oldest_unreported();
  void free_slot(RecvOp& op);

  TagRoundState tag0_rounds_;               // tag-0 hot path
  std::vector<TaggedRounds> tag_rounds_;    // tags > 0
  // Wire sequencing is per (tag, peer) channel; tag 0 keeps dense per-rank
  // vectors as its hot path.
  std::vector<std::int64_t> send_seq0_;  // per-destination next sequence
  std::vector<std::int64_t> recv_seq0_;  // per-source next expected sequence
  std::vector<TaggedSeq> send_seq_tagged_;
  std::vector<TaggedSeq> recv_seq_tagged_;
  /// One stashed segment; its bytes live in stash_bytes_.
  struct Stashed {
    WireHeader h;
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  // Early arrivals (wire segments for a (tag, src) with no pending receive
  // yet) and deferred segments, in arrival (= per-channel FIFO) order, with
  // increasing arena offsets.
  std::vector<Stashed> stash_;
  std::unique_ptr<std::byte[]> stash_bytes_;
  std::size_t stash_cap_ = 0;
  std::size_t stash_end_ = 0;   ///< arena bytes [0, stash_end_) are in use
  std::size_t stash_live_ = 0;  ///< bytes of the entries in stash_
  bool deferred_ = false;      ///< stash holds unmatched deferred segments
  std::vector<RecvOp> ops_;  // receive slots
  std::int64_t pending_ = 0;     // incomplete receives
  std::int64_t unreported_ = 0;  // completed, not yet handed out
  std::uint64_t completions_ = 0;
  // Distinct sources with ≥1 incomplete receive, maintained incrementally
  // (the receive hot path consults this once per arriving wire message).
  std::vector<std::int64_t> waiting_srcs_;
  std::vector<int> pending_per_src_;
  PortHandle next_handle_ = 1;
  // Whether the owning thread may run on exactly one CPU: read at the first
  // blocking wait and again at every park, so a spin that completes never
  // pays the syscall.
  std::optional<bool> core_bound_;
};

}  // namespace bruck::mps
