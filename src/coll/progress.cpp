// ProgressEngine implementation, plus the Request methods (kept here so
// request.hpp stays dependency-free).
//
// Execution model: every started operation is an `Exec` — one live cursor
// plus the bookkeeping to retire it.  A solo exec serves one operation; a
// fused exec serves G same-signature operations through one cursor over
// interleaved staging buffers; a multi-stage operation (allreduce) drives a
// CompositeCursor, which chains its stages inside the same tag namespace
// and records the per-stage PlanEvents itself.  `route_` maps every
// in-flight receive handle to its exec, so one wait_any_recv() loop drives
// all tenants regardless of which request the caller holds.
#include "coll/progress.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "coll/composite.hpp"
#include "coll/plan.hpp"
#include "util/assert.hpp"
#include "util/timing.hpp"

namespace bruck::coll {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Largest fused wire block (G·b bytes) the engine will build.  Fusion trades
/// message count for message size, and the linear C1/C2 model always likes
/// that trade — but past a few KiB per block the substrate's large-message
/// costs (staging copies, segmentation) outgrow the per-message savings, so
/// oversized groups fall back to per-op execution instead.  Override with
/// BRUCK_FUSE_MAX_BLOCK (bytes, positive integer).
std::int64_t fuse_max_block_bytes() {
  constexpr std::int64_t kDefault = 4096;
  const char* env = std::getenv("BRUCK_FUSE_MAX_BLOCK");
  if (env == nullptr || *env == '\0') return kDefault;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v <= 0) return kDefault;
  return static_cast<std::int64_t>(v);
}

/// The buffers an allreduce's stage chain runs on (Op::allreduce_stages).
struct AllreduceBuffers {
  std::span<const std::byte> send;
  std::span<std::byte> recv;
  bool staged = false;
};

}  // namespace

/// One submitted operation: the resolved spec plus completion state and
/// any engine-owned staging the family needs.
struct ProgressEngine::Op {
  std::uint64_t id = 0;
  OpSpec spec;
  bool started = false;
  bool done = false;
  int tag = 0;
  PlanExecution result;
  /// Irregular runs: spans into spec's owned count/displacement storage.
  VectorView view;
  /// Allreduce staging, used only when the payload does not split into n
  /// equal blocks or a layout is involved: the zero-padded input and the
  /// gathered result (copied back to the user buffer at retirement).
  std::vector<std::byte> padded;
  std::vector<std::byte> gathered;

  /// The buffers the allreduce chain runs on.  When the payload is exactly
  /// n blocks and contiguous, those are the user buffers: the
  /// reduce-scatter stage reads `send` and the allgather stage writes
  /// `recv` directly (in-place calls are safe — the first stage has
  /// consumed every send byte before the second writes).  Otherwise the
  /// payload is zero-padded into `padded` and gathered into `gathered`.
  AllreduceBuffers allreduce_stages() {
    const std::int64_t n = spec.key.n;
    const std::int64_t b = spec.block_bytes;
    if (!spec.has_layout &&
        static_cast<std::int64_t>(spec.send.size()) == n * b) {
      return AllreduceBuffers{spec.send, spec.recv, false};
    }
    padded.assign(static_cast<std::size_t>(n * b), std::byte{0});
    if (spec.has_layout) {
      // The layouts replace the staging copies: gather the strided user
      // payload straight into the padded scratch (the wire stages run
      // contiguous).
      const std::int64_t logical = spec.send_layout.block_bytes();
      layout_gather(spec.send, spec.send_layout, 0, 0, logical,
                    std::span<std::byte>(padded).first(
                        static_cast<std::size_t>(logical)));
    } else if (!spec.send.empty()) {
      std::memcpy(padded.data(), spec.send.data(), spec.send.size());
    }
    gathered.resize(static_cast<std::size_t>(n * b));
    return AllreduceBuffers{padded, gathered, true};
  }

  /// Copy a staged allreduce result back to the user buffer.
  void finish_allreduce() const {
    if (spec.has_layout) {
      const std::int64_t logical = spec.recv_layout.block_bytes();
      layout_scatter(spec.recv, spec.recv_layout, 0, 0, logical,
                     std::span<const std::byte>(gathered).first(
                         static_cast<std::size_t>(logical)));
    } else if (!spec.recv.empty()) {
      std::memcpy(spec.recv.data(), gathered.data(), spec.recv.size());
    }
  }
};

/// One live cursor and how to retire it (see the file comment).  Exactly
/// one of `cursor` (single-schedule) and `chain` (multi-stage composite)
/// is set.
struct ProgressEngine::Exec {
  std::vector<Op*> members;
  std::shared_ptr<const Plan> plan;
  std::unique_ptr<PlanCursor> cursor;
  std::unique_ptr<CompositeCursor> chain;
  int tag = 0;
  bool fused = false;
  bool cache_hit = false;
  std::chrono::steady_clock::time_point started;  ///< for PlanEvent::wall_us
  std::int64_t member_block = 0;  ///< fused: one member's block size
  std::vector<std::byte> fused_send;
  std::vector<std::byte> fused_recv;
};

/// Everything that must agree for two pending operations to share one
/// fused wire exchange.  The machine profile is part of the signature (two
/// ops tuned under different profiles resolved their recipes differently).
struct ProgressEngine::FuseSig {
  int family = 0;
  std::uint8_t algorithm = 0;
  std::int64_t n = 0;
  int k = 0;
  std::int64_t radix = 0;
  std::uint32_t reduce_tag = 0;
  std::int64_t block_bytes = 0;
  int start_round = 0;
  int requested_segments = 0;
  std::uint64_t beta_bits = 0;
  std::uint64_t tau_bits = 0;
  std::uint64_t gamma_bits = 0;

  friend bool operator==(const FuseSig&, const FuseSig&) = default;
};

namespace {

/// Only block-size-independent plans fuse: a fused execution reuses the
/// member plan structure at block G·b, which concat (per-exact-b lowering,
/// last-round strategy re-resolution) and irregular plans cannot do.
/// Layout operations never fuse either — the fused staging interleaves
/// members' blocks contiguously.
bool fusable(const OpSpec& spec) {
  return (spec.family == OpSpec::Family::kAlltoall ||
          spec.family == OpSpec::Family::kReduceScatter) &&
         !spec.has_layout;
}

/// The cursor-facing view of a spec's layouts.  Points into the Op's own
/// spec storage (heap-allocated, never moves), so it outlives the cursor.
LayoutPair spec_layouts(const OpSpec& spec) {
  return spec.has_layout ? LayoutPair{&spec.send_layout, &spec.recv_layout}
                         : LayoutPair{};
}

/// Modeled measures of the fused exchange: every cost we lower is linear
/// in the block size with zero intercept, so block G·b scales the byte
/// measures by G and keeps the round count.
model::CostMetrics scale_metrics(const model::CostMetrics& per_op, int group) {
  model::CostMetrics out = per_op;
  out.c2 *= group;
  out.total_bytes *= group;
  out.max_rank_sent *= group;
  out.max_rank_recv *= group;
  return out;
}

}  // namespace

ProgressEngine::ProgressEngine(mps::Communicator& comm)
    : comm_(&comm), native_(comm.native_port_engine()) {}

ProgressEngine::~ProgressEngine() = default;

ProgressEngine& ProgressEngine::for_comm(mps::Communicator& comm) {
  // The engine lives in the communicator's extension slot, so its lifetime
  // tracks the communicator's exactly — no global registry that a reused
  // heap address could resurrect stale state from.
  std::shared_ptr<void>& slot = comm.extension_slot();
  if (!slot) slot = std::shared_ptr<ProgressEngine>(new ProgressEngine(comm));
  return *static_cast<ProgressEngine*>(slot.get());
}

Request ProgressEngine::submit(OpSpec&& spec) {
  const std::uint64_t id = next_id_++;
  auto op = std::make_unique<Op>();
  op->id = id;
  op->spec = std::move(spec);
  if (op->spec.family == OpSpec::Family::kAlltoallv) {
    // The spans point into the Op's own storage; the Op is heap-allocated
    // and never moves, so the view stays valid for its whole life.
    op->view = VectorView{op->spec.counts, op->spec.send_displs,
                          op->spec.recv_displs, op->spec.pad_bytes};
  }
  ops_.emplace(id, std::move(op));
  pending_.push_back(id);
  ++stats_.submitted;
  return Request(this, id);
}

std::size_t ProgressEngine::outstanding() const { return ops_.size(); }

ProgressEngine::Op* ProgressEngine::find_op(std::uint64_t id) {
  const auto it = ops_.find(id);
  return it == ops_.end() ? nullptr : it->second.get();
}

void ProgressEngine::seal() {
  // The serial fallback starts operations inside run_serial_until instead
  // (pending_ doubles as its FIFO).
  if (!native_ || pending_.empty()) return;
  const std::vector<std::uint64_t> batch = std::move(pending_);
  pending_.clear();

  // Group the batch by fuse signature, preserving submission order.
  struct Group {
    bool fusable = false;
    FuseSig sig;
    std::vector<Op*> members;
  };
  std::vector<Group> groups;
  for (const std::uint64_t id : batch) {
    Op* op = find_op(id);
    BRUCK_ENSURE(op != nullptr);
    const OpSpec& spec = op->spec;
    if (fusable(spec)) {
      const FuseSig sig{static_cast<int>(spec.family),
                        spec.key.algorithm,
                        spec.key.n,
                        spec.key.k,
                        spec.key.radix,
                        spec.key.reduce_tag,
                        spec.block_bytes,
                        spec.start_round,
                        spec.requested_segments,
                        double_bits(spec.machine.beta_us),
                        double_bits(spec.machine.tau_us_per_byte),
                        double_bits(spec.machine.gamma_us_per_byte)};
      bool joined = false;
      for (Group& g : groups) {
        if (g.fusable && g.sig == sig) {
          g.members.push_back(op);
          joined = true;
          break;
        }
      }
      if (!joined) groups.push_back(Group{true, sig, {op}});
    } else {
      groups.push_back(Group{false, {}, {op}});
    }
  }

  for (const Group& g : groups) {
    if (g.members.size() > 1) {
      const OpSpec& lead = g.members.front()->spec;
      const int group_size = static_cast<int>(g.members.size());
      const std::int64_t fused_block =
          lead.block_bytes * static_cast<std::int64_t>(group_size);
      if (fused_block <= fuse_max_block_bytes()) {
        const std::int64_t user_bytes = static_cast<std::int64_t>(
            (lead.send.size() + lead.recv.size()) / 2);
        const model::FusionChoice choice = model::pick_fusion(
            group_size, lead.machine, lead.predicted,
            scale_metrics(lead.predicted, group_size), user_bytes);
        if (choice.fuse) {
          start_fused(g.members);
          continue;
        }
      }
    }
    for (Op* op : g.members) start_solo(op);
  }
}

void ProgressEngine::start_solo(Op* op) {
  OpSpec& spec = op->spec;
  op->tag = comm_->allocate_collective_tag();
  ++stats_.tags_used;
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(spec.key);
  auto exec = std::make_unique<Exec>();
  exec->members = {op};
  exec->plan = lookup.plan;
  exec->cache_hit = lookup.cache_hit;
  exec->tag = op->tag;
  exec->started = std::chrono::steady_clock::now();
  switch (spec.family) {
    case OpSpec::Family::kAlltoall:
    case OpSpec::Family::kAllgather:
      exec->cursor = std::make_unique<PlanCursor>(
          lookup.plan, *comm_, spec.send, spec.recv, spec.block_bytes,
          spec.start_round, op->tag, spec_layouts(spec));
      break;
    case OpSpec::Family::kAlltoallv:
      exec->cursor = std::make_unique<PlanCursor>(
          lookup.plan, *comm_, spec.send, spec.recv, op->view,
          spec.start_round, op->tag, spec_layouts(spec));
      break;
    case OpSpec::Family::kReduceScatter:
      exec->cursor = std::make_unique<PlanCursor>(
          lookup.plan, *comm_, spec.send, spec.recv, spec.block_bytes,
          spec.op, spec.start_round, op->tag, spec_layouts(spec));
      break;
    case OpSpec::Family::kAllreduce: {
      const AllreduceBuffers io = op->allreduce_stages();
      // The generic stage chain: reduce-scatter feeding allgather through
      // an identity splice, one tag namespace, per-stage events recorded by
      // the composite cursor itself.
      exec->chain = std::make_unique<CompositeCursor>(
          CompositePlan::allreduce_chain(spec.key, spec.concat_key,
                                         spec.key.n, spec.block_bytes),
          *comm_, io.send, io.recv, &spec.op, spec.start_round, op->tag);
      break;
    }
  }
  op->started = true;
  Exec* raw = exec.get();
  live_.push_back(std::move(exec));
  pump_posts(*raw);
}

void ProgressEngine::start_fused(const std::vector<Op*>& members) {
  const OpSpec& lead = members.front()->spec;
  const int group_size = static_cast<int>(members.size());
  const std::int64_t n = lead.key.n;
  const std::int64_t b = lead.block_bytes;
  const std::int64_t bf = group_size * b;
  const bool reduce = lead.family == OpSpec::Family::kReduceScatter;
  const std::int64_t send_blocks = n;
  const std::int64_t recv_blocks = reduce ? 1 : n;
  for (const Op* member : members) {
    BRUCK_REQUIRE_MSG(
        static_cast<std::int64_t>(member->spec.send.size()) ==
                send_blocks * b &&
            static_cast<std::int64_t>(member->spec.recv.size()) ==
                recv_blocks * b,
        "fusion member buffers do not match the collective's block layout");
  }

  // The member plan structure at block G·b, keeping the members' resolved
  // wire segmentation.  Batching exists to amortize the per-message count
  // across tenants; re-tuning segments against the G× fused message sizes
  // would split each fused message G ways and hand the amortized messages
  // straight back.
  PlanKey fused_key = lead.key;
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(fused_key);

  const int tag = comm_->allocate_collective_tag();
  ++stats_.tags_used;
  auto exec = std::make_unique<Exec>();
  exec->members = members;
  exec->plan = lookup.plan;
  exec->cache_hit = lookup.cache_hit;
  exec->tag = tag;
  exec->started = std::chrono::steady_clock::now();
  exec->fused = true;
  exec->member_block = b;
  exec->fused_send.resize(static_cast<std::size_t>(send_blocks * bf));
  exec->fused_recv.resize(static_cast<std::size_t>(recv_blocks * bf));
  // Interleave per block slot: fused block j = [m0 blockj | m1 blockj | …],
  // so the fused exchange routes every member's block j exactly like the
  // solo exchange routes block j.
  if (b > 0) {
    for (std::int64_t j = 0; j < send_blocks; ++j) {
      for (int m = 0; m < group_size; ++m) {
        std::memcpy(exec->fused_send.data() + j * bf + m * b,
                    members[static_cast<std::size_t>(m)]->spec.send.data() +
                        j * b,
                    static_cast<std::size_t>(b));
      }
    }
  }
  if (reduce) {
    exec->cursor = std::make_unique<PlanCursor>(
        lookup.plan, *comm_, exec->fused_send, exec->fused_recv, bf, lead.op,
        lead.start_round, tag);
  } else {
    exec->cursor = std::make_unique<PlanCursor>(lookup.plan, *comm_,
                                                exec->fused_send,
                                                exec->fused_recv, bf,
                                                lead.start_round, tag);
  }
  for (Op* member : members) {
    member->tag = tag;
    member->started = true;
  }
  ++stats_.fused_groups;
  stats_.fused_members += static_cast<std::uint64_t>(group_size);
  Exec* raw = exec.get();
  live_.push_back(std::move(exec));
  pump_posts(*raw);
}

void ProgressEngine::pump_posts(Exec& exec) {
  const std::span<const mps::PortHandle> handles =
      exec.chain ? exec.chain->post_ready() : exec.cursor->post_ready();
  for (const mps::PortHandle h : handles) route_.emplace_back(h, &exec);
  if (exec.chain ? exec.chain->done() : exec.cursor->done()) retire(exec);
}

void ProgressEngine::deliver(mps::PortHandle h) {
  const auto it =
      std::find_if(route_.begin(), route_.end(),
                   [h](const auto& entry) { return entry.first == h; });
  BRUCK_REQUIRE_MSG(it != route_.end(),
                    "progress engine received a foreign completion — "
                    "blocking collectives and raw port operations are not "
                    "allowed while nonblocking requests are outstanding");
  Exec& exec = *it->second;
  *it = route_.back();
  route_.pop_back();
  if (exec.chain) {
    exec.chain->on_complete(h);
  } else {
    exec.cursor->on_complete(h);
  }
  pump_posts(exec);
}

void ProgressEngine::retire(Exec& exec) {
  Op* lead = exec.members.front();
  PlanExecution r;
  if (exec.chain) {
    // The composite cursor recorded one PlanEvent per stage as it drained;
    // its result already aggregates the stages.
    r = exec.chain->result();
  } else {
    r = exec.cursor->result();
    comm_->record_plan_event(mps::PlanEvent{
        exec.cache_hit, exec.plan->round_count(), r.bytes_sent,
        r.bytes_reduced, exec.tag, us_since(exec.started)});
  }

  if (exec.fused) {
    // Scatter the interleaved result back and split the totals evenly
    // (members are byte-identical in shape).
    const int group_size = static_cast<int>(exec.members.size());
    const std::int64_t b = exec.member_block;
    const std::int64_t bf = group_size * b;
    const bool reduce =
        lead->spec.family == OpSpec::Family::kReduceScatter;
    const std::int64_t recv_blocks = reduce ? 1 : lead->spec.key.n;
    if (b > 0) {
      for (std::int64_t i = 0; i < recv_blocks; ++i) {
        for (int m = 0; m < group_size; ++m) {
          std::memcpy(
              exec.members[static_cast<std::size_t>(m)]->spec.recv.data() +
                  i * b,
              exec.fused_recv.data() + i * bf + m * b,
              static_cast<std::size_t>(b));
        }
      }
    }
    for (Op* member : exec.members) {
      member->result = PlanExecution{r.next_round, r.bytes_sent / group_size,
                                     r.bytes_reduced / group_size};
    }
  } else if (lead->spec.family == OpSpec::Family::kAllreduce) {
    if (!lead->gathered.empty()) lead->finish_allreduce();  // staged run
    lead->result = r;
  } else {
    lead->result = r;
  }

  for (Op* member : exec.members) member->done = true;
  stats_.completed += static_cast<std::uint64_t>(exec.members.size());
  const int tag = exec.tag;
  const auto it = std::find_if(
      live_.begin(), live_.end(),
      [&exec](const std::unique_ptr<Exec>& e) { return e.get() == &exec; });
  BRUCK_ENSURE(it != live_.end());
  live_.erase(it);  // `exec` is destroyed here
  if (tag > 0) comm_->release_tag(tag);
}

bool ProgressEngine::test(std::uint64_t id) {
  Op* op = find_op(id);
  BRUCK_REQUIRE_MSG(op != nullptr,
                    "test on an unknown or already-waited request");
  if (op->done) return true;
  if (!native_) {
    // The exchange-backed fallback cannot make progress without blocking:
    // test degrades to wait (mirrors Communicator::test_recv's fallback).
    run_serial_until(id);
    return true;
  }
  seal();
  while (!op->done) {
    const std::optional<mps::PortHandle> h = comm_->poll_any_recv();
    if (!h.has_value()) break;
    deliver(*h);
  }
  return op->done;
}

int ProgressEngine::wait(std::uint64_t id) {
  Op* op = find_op(id);
  BRUCK_REQUIRE_MSG(op != nullptr,
                    "wait on an unknown or already-waited request");
  if (!op->done) {
    if (!native_) {
      run_serial_until(id);
    } else {
      seal();
      // One drain budget for the whole completion loop: waiting out a
      // multi-round collective must not reset the receive timeout per
      // arriving message (the mps::DrainDeadline rule — on a real fabric a
      // trickling peer could otherwise stretch one wait() to rounds ×
      // budget before a stall is diagnosed).
      const mps::DrainDeadline deadline(comm_->recv_timeout());
      while (!op->done) {
        BRUCK_ENSURE_MSG(!route_.empty(),
                         "progress engine stalled: operation incomplete "
                         "with no receive in flight");
        deliver(comm_->wait_any_recv_within(deadline));
      }
    }
  }
  const int next = op->result.next_round;
  ops_.erase(id);
  return next;
}

void ProgressEngine::step_blocking() {
  if (!native_) {
    BRUCK_REQUIRE_MSG(!pending_.empty(),
                      "progress step with nothing outstanding");
    run_serial_until(pending_.front());
    return;
  }
  seal();
  if (route_.empty()) return;  // everything completed at start
  deliver(comm_->wait_any_recv());
}

void ProgressEngine::run_serial_until(std::uint64_t id) {
  while (true) {
    BRUCK_REQUIRE_MSG(!pending_.empty(),
                      "request missing from the serial fallback queue");
    const std::uint64_t front = pending_.front();
    pending_.erase(pending_.begin());
    Op* op = find_op(front);
    BRUCK_ENSURE(op != nullptr);
    run_serial_op(*op);
    if (front == id) return;
  }
}

void ProgressEngine::run_serial_op(Op& op) {
  OpSpec& spec = op.spec;
  // One exchange-backed round space is shared by everything on the comm:
  // chain each operation after the previous one's rounds.
  const int start = std::max(spec.start_round, serial_next_round_);
  op.tag = 0;
  op.started = true;
  const PlanCache::Lookup lookup = PlanCache::global().get_or_lower(spec.key);
  switch (spec.family) {
    case OpSpec::Family::kAlltoall:
    case OpSpec::Family::kAllgather: {
      PlanCursor cursor(lookup.plan, *comm_, spec.send, spec.recv,
                        spec.block_bytes, start, /*tag=*/0,
                        spec_layouts(spec));
      op.result = cursor.drive();
      comm_->record_plan_event(mps::PlanEvent{lookup.cache_hit,
                                              lookup.plan->round_count(),
                                              op.result.bytes_sent});
      break;
    }
    case OpSpec::Family::kAlltoallv: {
      PlanCursor cursor(lookup.plan, *comm_, spec.send, spec.recv, op.view,
                        start, /*tag=*/0, spec_layouts(spec));
      op.result = cursor.drive();
      comm_->record_plan_event(mps::PlanEvent{lookup.cache_hit,
                                              lookup.plan->round_count(),
                                              op.result.bytes_sent});
      break;
    }
    case OpSpec::Family::kReduceScatter: {
      PlanCursor cursor(lookup.plan, *comm_, spec.send, spec.recv,
                        spec.block_bytes, spec.op, start, /*tag=*/0,
                        spec_layouts(spec));
      op.result = cursor.drive();
      comm_->record_plan_event(
          mps::PlanEvent{lookup.cache_hit, lookup.plan->round_count(),
                         op.result.bytes_sent, op.result.bytes_reduced});
      break;
    }
    case OpSpec::Family::kAllreduce: {
      // Same generic stage chain as the native path, driven by the
      // blocking composite runner (which records the per-stage events and
      // runs each stage's cursor over the deferred-exchange bridge).
      const AllreduceBuffers io = op.allreduce_stages();
      const CompositePlan chain = CompositePlan::allreduce_chain(
          spec.key, spec.concat_key, spec.key.n, spec.block_bytes);
      op.result = chain.run(*comm_, io.send, io.recv, &spec.op, start);
      if (io.staged) op.finish_allreduce();
      break;
    }
  }
  serial_next_round_ = std::max(serial_next_round_, op.result.next_round);
  op.done = true;
  ++stats_.serial_fallback;
  ++stats_.completed;
}

// -- Request ---------------------------------------------------------------

Request::~Request() {
  if (engine_ == nullptr) return;
  try {
    engine_->wait(id_);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bruck: coll::Request dropped before wait(); completing it "
                 "failed: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr,
                 "bruck: coll::Request dropped before wait(); completing it "
                 "failed\n");
  }
}

Request::Request(Request&& other) noexcept
    : engine_(other.engine_), id_(other.id_) {
  other.engine_ = nullptr;
  other.id_ = 0;
}

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    {
      // Completes (and error-reports) any operation this handle still owns.
      Request doomed(std::move(*this));
    }
    engine_ = other.engine_;
    id_ = other.id_;
    other.engine_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

bool Request::test() {
  if (engine_ == nullptr) return true;
  return engine_->test(id_);
}

int Request::wait() {
  if (engine_ == nullptr) return 0;
  ProgressEngine* engine = engine_;
  engine_ = nullptr;
  return engine->wait(id_);
}

void wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) r.wait();
  }
}

std::size_t wait_any(std::span<Request> requests) {
  ProgressEngine* engine = nullptr;
  for (const Request& r : requests) {
    if (r.valid()) {
      engine = r.engine_;
      break;
    }
  }
  BRUCK_REQUIRE_MSG(engine != nullptr,
                    "wait_any needs at least one active request");
  for (const Request& r : requests) {
    BRUCK_REQUIRE_MSG(!r.valid() || r.engine_ == engine,
                      "wait_any requests must share one communicator");
  }
  while (true) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Request& r = requests[i];
      if (r.valid() && r.test()) {
        r.wait();
        return i;
      }
    }
    engine->step_blocking();
  }
}

}  // namespace bruck::coll
