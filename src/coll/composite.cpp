// CompositePlan / CompositeCursor implementation and the hierarchical
// (two-level leader-model) lowerings.  See composite.hpp for the model.
//
// Splice-map derivations (all offsets in base blocks; g = nominal group
// size, G = group count, q' ranges over groups, p over group-local ranks):
//
// index (alltoall): the gather stage leaves member p's whole send vector at
// units [p·n, (p+1)·n) of the leader's staging — unit p·n + d is p's block
// for global rank d.  The leader transposes contiguous destination runs
// into per-group super-blocks of g² units: unit p·g + p' of super-block q'
// is "my member p → q''s member p'".  After the inter-leader index
// operation, received super-block q' holds unit ps·g + pd = "q''s member ps
// → my member pd", which len-1 splices re-transpose into per-member result
// vectors (unit pd·n + first(q') + ps) for the scatter stage.
//
// concat (allgather): gather leaves member j's block at unit j — already
// the leader's prefix of the final rank-ordered result, because groups are
// contiguous rank ranges.  One identity splice pads it to the g-unit
// super-block; after the inter-leader concat, super-block q' lands at units
// [first(q'), first(q') + |q'|) of the n-unit broadcast payload.
//
// reduce (reduce-scatter): gather leaves member p's whole contribution
// vector at [p·n, (p+1)·n).  For each destination group q' the leader
// splices the run [p·n + first(q'), …) onto super-block units [q'·g, …) —
// a plain copy for p = 0, ⊕-combines for p > 0, so zero padding is never
// folded into live slots.  The inter-leader reduce leaves the group's
// g-unit result block; an identity splice (trimmed to the real group size)
// feeds the single-block scatter.
#include "coll/composite.hpp"

#include <cstring>
#include <utility>

#include "mps/group.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/timing.hpp"

namespace bruck::coll {

CompositePlan::CompositePlan(std::string name, std::int64_t n,
                             std::int64_t block_bytes)
    : name_(std::move(name)), n_(n), block_bytes_(block_bytes) {
  BRUCK_REQUIRE(n_ >= 1);
  BRUCK_REQUIRE(block_bytes_ >= 0);
}

void CompositePlan::add_stage(CompositeStage stage) {
  BRUCK_REQUIRE(stage.round_stride >= 0);
  if (stage.plan) {
    BRUCK_REQUIRE_MSG(stage.plan->round_count() <= stage.round_stride,
                      "stage stride below the stage plan's own round count");
  }
  needs_op_ = needs_op_ || stage.reducing;
  for (const SpliceOp& s : stage.splices) {
    BRUCK_REQUIRE(s.len >= 1 && s.src >= 0 && s.dst >= 0);
    needs_op_ = needs_op_ || s.combine;
  }
  total_stride_ += stage.round_stride;
  stages_.push_back(std::move(stage));
}

void CompositePlan::check_contract(std::span<const std::byte> send,
                                   std::span<std::byte> recv,
                                   const ReduceOp* op) const {
  // Per-stage buffer sizes are enforced by each stage plan's own run
  // contract; the composite only checks what the stages cannot see.
  (void)send;
  (void)recv;
  BRUCK_REQUIRE_MSG(!needs_op_ || op != nullptr,
                    "composite has reducing stages or combine splices but no "
                    "ReduceOp was supplied");
}

void CompositePlan::apply_splices(const CompositeStage& st,
                                  std::span<const std::byte> out,
                                  std::span<std::byte> next_in,
                                  const ReduceOp* op) const {
  const std::int64_t b = block_bytes_;
  for (const SpliceOp& s : st.splices) {
    BRUCK_REQUIRE((s.src + s.len) * b <=
                  static_cast<std::int64_t>(out.size()));
    BRUCK_REQUIRE((s.dst + s.len) * b <=
                  static_cast<std::int64_t>(next_in.size()));
    const std::int64_t bytes = s.len * b;
    if (bytes == 0) continue;
    std::byte* dst = next_in.data() + s.dst * b;
    const std::byte* src = out.data() + s.src * b;
    if (s.combine) {
      BRUCK_ENSURE(op != nullptr);
      op->combine(dst, src, bytes);
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(bytes));
    }
  }
}

namespace {

PlanExecution run_stage_plan(const CompositeStage& st, mps::Communicator& comm,
                             std::span<const std::byte> in,
                             std::span<std::byte> out, std::int64_t stage_block,
                             const ReduceOp* op, int base) {
  return st.reducing ? st.plan->run(comm, in, out, stage_block, *op, base)
                     : st.plan->run(comm, in, out, stage_block, base);
}

}  // namespace

PlanExecution CompositePlan::run(mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv, const ReduceOp* op,
                                 int start_round) const {
  check_contract(send, recv, op);
  BRUCK_REQUIRE_MSG(comm.size() == n_,
                    "composite was lowered for a different communicator size");
  const std::int64_t b = block_bytes_;
  PlanExecution total;
  int base = start_round;
  std::vector<std::byte> stage_in;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const CompositeStage& st = stages_[s];
    const std::span<const std::byte> in =
        st.user_send_in ? send : std::span<const std::byte>(stage_in);
    std::vector<std::byte> out_store;
    std::span<std::byte> out;
    if (st.user_recv_out) {
      out = recv;
    } else {
      out_store.assign(static_cast<std::size_t>(st.out_units * b),
                       std::byte{0});
      out = out_store;
    }
    if (st.plan) {
      const std::int64_t stage_block = st.block_units * b;
      const auto started = std::chrono::steady_clock::now();
      PlanExecution r;
      if (st.members.empty()) {
        r = run_stage_plan(st, comm, in, out, stage_block, op, base);
      } else {
        mps::GroupComm sub(comm, st.members);
        r = run_stage_plan(st, sub, in, out, stage_block, op, base);
      }
      total.bytes_sent += r.bytes_sent;
      total.bytes_reduced += r.bytes_reduced;
      comm.record_plan_event(mps::PlanEvent{
          st.cache_hit, st.plan->round_count(), r.bytes_sent,
          r.bytes_reduced, /*tag=*/0, us_since(started)});
    }
    base += st.round_stride;
    if (s + 1 < stages_.size()) {
      const CompositeStage& next = stages_[s + 1];
      std::vector<std::byte> next_in(
          static_cast<std::size_t>(next.in_units * b), std::byte{0});
      apply_splices(st, out, next_in, op);
      stage_in = std::move(next_in);
    }
  }
  total.next_round = base;
  return total;
}

std::string CompositePlan::describe() const {
  std::string out = name_ + ": n=" + std::to_string(n_) +
                    ", base block=" + std::to_string(block_bytes_) + " B, " +
                    std::to_string(stages_.size()) + " stages, " +
                    std::to_string(total_stride_) + " rounds total\n";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const CompositeStage& st = stages_[s];
    out += "  stage " + std::to_string(s) + " [" + st.label + "]: ";
    if (st.plan) {
      out += st.plan->algorithm() + ", n=" + std::to_string(st.plan->n()) +
             ", block=" + std::to_string(st.block_units * block_bytes_) +
             " B, rounds=" + std::to_string(st.plan->round_count());
      if (!st.members.empty()) {
        out += ", members=" + std::to_string(st.members.size());
      }
    } else {
      out += "idle";
    }
    out += ", stride=" + std::to_string(st.round_stride);
    if (!st.splices.empty()) {
      out += ", splices=" + std::to_string(st.splices.size());
    }
    out += "\n";
  }
  return out;
}

// -- Hierarchical lowerings --------------------------------------------------

namespace {

/// Clamp the inter-leader radix into index/reduce Bruck's valid range
/// [2, max(2, G)] (a single-leader inter stage only admits radix 2).
std::int64_t clamp_inter_radix(std::int64_t radix, std::int64_t groups) {
  return std::min(std::max<std::int64_t>(radix, 2),
                  std::max<std::int64_t>(2, groups));
}

PlanCache::Lookup stage_lookup(const PlanKey& key) {
  return PlanCache::global().get_or_lower(key);
}

}  // namespace

CompositePlan CompositePlan::lower_index_hier(std::int64_t n, int k,
                                              std::int64_t rank,
                                              std::int64_t block_bytes,
                                              const HierShape& shape) {
  BRUCK_REQUIRE(rank >= 0 && rank < n);
  const topo::GroupGeometry geo(n, shape.group);
  const std::int64_t gm = geo.max_size();
  const std::int64_t G = geo.groups();
  const std::int64_t q = geo.group_of(rank);
  const std::int64_t gsz = geo.size_of(q);
  const bool leader = geo.is_leader(rank);
  const std::int64_t ir = clamp_inter_radix(shape.inter_radix, G);
  CompositePlan cp("hier-index", n, block_bytes);

  {  // Stage A: intra-group gather of whole alltoall send vectors.
    CompositeStage st;
    st.label = "intra gather";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kGather, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = n;
    st.user_send_in = true;
    st.out_units = gsz * n;
    st.round_stride = ceil_log(gm, 2);
    if (leader) {
      for (std::int64_t p = 0; p < gsz; ++p) {
        for (std::int64_t qq = 0; qq < G; ++qq) {
          st.splices.push_back(SpliceOp{p * n + geo.first(qq),
                                        qq * gm * gm + p * gm,
                                        geo.size_of(qq), false});
        }
      }
    }
    cp.add_stage(std::move(st));
  }

  {  // Stage B: inter-leader index Bruck over g²-block super-blocks.
    CompositeStage st;
    st.label = "inter index";
    st.round_stride =
        static_cast<int>(model::index_bruck_cost(G, ir, k, 1).c1);
    if (leader) {
      const PlanCache::Lookup lk = stage_lookup(
          index_plan_key(IndexAlgorithm::kBruck, G, k, ir, shape.segments));
      st.plan = lk.plan;
      st.cache_hit = lk.cache_hit;
      st.members = geo.leaders();
      st.block_units = gm * gm;
      st.in_units = G * gm * gm;
      st.out_units = G * gm * gm;
      for (std::int64_t pd = 0; pd < gsz; ++pd) {
        for (std::int64_t qq = 0; qq < G; ++qq) {
          for (std::int64_t ps = 0; ps < geo.size_of(qq); ++ps) {
            st.splices.push_back(SpliceOp{qq * gm * gm + ps * gm + pd,
                                          pd * n + geo.first(qq) + ps, 1,
                                          false});
          }
        }
      }
    }
    cp.add_stage(std::move(st));
  }

  {  // Stage C: intra-group scatter of per-member result vectors.
    CompositeStage st;
    st.label = "intra scatter";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kScatter, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = n;
    st.in_units = gsz * n;
    st.user_recv_out = true;
    st.round_stride = ceil_log(gm, 2);
    cp.add_stage(std::move(st));
  }
  return cp;
}

CompositePlan CompositePlan::lower_concat_hier(std::int64_t n, int k,
                                               std::int64_t rank,
                                               std::int64_t block_bytes,
                                               const HierShape& shape) {
  BRUCK_REQUIRE(rank >= 0 && rank < n);
  const topo::GroupGeometry geo(n, shape.group);
  const std::int64_t gm = geo.max_size();
  const std::int64_t G = geo.groups();
  const std::int64_t q = geo.group_of(rank);
  const std::int64_t gsz = geo.size_of(q);
  const bool leader = geo.is_leader(rank);
  const std::int64_t super = gm * block_bytes;
  const model::ConcatLastRound resolved =
      model::resolve_concat_last_round(G, k, super, shape.strategy);
  CompositePlan cp("hier-concat", n, block_bytes);

  {  // Stage A: intra-group gather of single blocks.
    CompositeStage st;
    st.label = "intra gather";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kGather, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = 1;
    st.user_send_in = true;
    st.out_units = gsz;
    st.round_stride = ceil_log(gm, 2);
    if (leader) st.splices.push_back(SpliceOp{0, 0, gsz, false});
    cp.add_stage(std::move(st));
  }

  {  // Stage B: inter-leader concat over g-block super-blocks.
    CompositeStage st;
    st.label = "inter concat";
    st.round_stride =
        static_cast<int>(model::concat_bruck_cost(G, k, super, resolved).c1);
    if (leader) {
      const PlanCache::Lookup lk = stage_lookup(
          concat_plan_key(ConcatAlgorithm::kBruck, G, k, resolved, super,
                          shape.segments));
      st.plan = lk.plan;
      st.cache_hit = lk.cache_hit;
      st.members = geo.leaders();
      st.block_units = gm;
      st.in_units = gm;
      st.out_units = G * gm;
      for (std::int64_t qq = 0; qq < G; ++qq) {
        st.splices.push_back(
            SpliceOp{qq * gm, geo.first(qq), geo.size_of(qq), false});
      }
    }
    cp.add_stage(std::move(st));
  }

  {  // Stage C: intra-group circulant broadcast of the n-block result.
    CompositeStage st;
    st.label = "intra bcast";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kBcast, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = n;
    st.in_units = n;
    st.user_recv_out = true;
    st.round_stride = ceil_log(gm, k + 1);
    cp.add_stage(std::move(st));
  }
  return cp;
}

CompositePlan CompositePlan::lower_reduce_hier(std::int64_t n, int k,
                                               std::int64_t rank,
                                               std::int64_t block_bytes,
                                               const ReduceOp& op,
                                               const HierShape& shape) {
  BRUCK_REQUIRE(rank >= 0 && rank < n);
  const topo::GroupGeometry geo(n, shape.group);
  const std::int64_t gm = geo.max_size();
  const std::int64_t G = geo.groups();
  const std::int64_t q = geo.group_of(rank);
  const std::int64_t gsz = geo.size_of(q);
  const bool leader = geo.is_leader(rank);
  const std::int64_t ir = clamp_inter_radix(shape.inter_radix, G);
  CompositePlan cp("hier-reduce", n, block_bytes);

  {  // Stage A: intra-group gather of whole contribution vectors.
    CompositeStage st;
    st.label = "intra gather";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kGather, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = n;
    st.user_send_in = true;
    st.out_units = gsz * n;
    st.round_stride = ceil_log(gm, 2);
    if (leader) {
      // p = 0 seeds each super-block run with a copy; later members fold in
      // with ⊕, so the zero padding beyond each run is never combined.
      for (std::int64_t p = 0; p < gsz; ++p) {
        for (std::int64_t qq = 0; qq < G; ++qq) {
          st.splices.push_back(SpliceOp{p * n + geo.first(qq), qq * gm,
                                        geo.size_of(qq), p > 0});
        }
      }
    }
    cp.add_stage(std::move(st));
  }

  {  // Stage B: inter-leader reduce Bruck over g-block super-blocks.
    CompositeStage st;
    st.label = "inter reduce";
    st.round_stride =
        static_cast<int>(model::reduce_bruck_cost(G, ir, k, 1).c1);
    if (leader) {
      const PlanCache::Lookup lk = stage_lookup(reduce_plan_key(
          ReduceAlgorithm::kBruck, G, k, ir, op, shape.segments));
      st.plan = lk.plan;
      st.cache_hit = lk.cache_hit;
      st.members = geo.leaders();
      st.block_units = gm;
      st.in_units = G * gm;
      st.out_units = gm;
      st.reducing = true;
      st.splices.push_back(SpliceOp{0, 0, gsz, false});
    }
    cp.add_stage(std::move(st));
  }

  {  // Stage C: intra-group scatter of single result blocks.
    CompositeStage st;
    st.label = "intra scatter";
    const PlanCache::Lookup lk = stage_lookup(
        rooted_plan_key(PlanCollective::kScatter, gsz, k, shape.segments));
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.members = geo.members(q);
    st.block_units = 1;
    st.in_units = gsz;
    st.user_recv_out = true;
    st.round_stride = ceil_log(gm, 2);
    cp.add_stage(std::move(st));
  }
  return cp;
}

CompositePlan CompositePlan::allreduce_chain(const PlanKey& reduce_key,
                                             const PlanKey& concat_key,
                                             std::int64_t n,
                                             std::int64_t block_bytes) {
  CompositePlan cp("allreduce-chain", n, block_bytes);
  {
    CompositeStage st;
    st.label = "reduce-scatter";
    const PlanCache::Lookup lk = stage_lookup(reduce_key);
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.block_units = 1;
    st.user_send_in = true;
    st.out_units = 1;
    st.reducing = true;
    st.round_stride = lk.plan->round_count();
    st.splices.push_back(SpliceOp{0, 0, 1, false});
    cp.add_stage(std::move(st));
  }
  {
    CompositeStage st;
    st.label = "allgather";
    const PlanCache::Lookup lk = stage_lookup(concat_key);
    st.plan = lk.plan;
    st.cache_hit = lk.cache_hit;
    st.block_units = 1;
    st.in_units = 1;
    st.user_recv_out = true;
    st.round_stride = lk.plan->round_count();
    cp.add_stage(std::move(st));
  }
  return cp;
}

// -- CompositeCursor ---------------------------------------------------------

CompositeCursor::CompositeCursor(CompositePlan plan, mps::Communicator& comm,
                                 std::span<const std::byte> send,
                                 std::span<std::byte> recv, const ReduceOp* op,
                                 int start_round, int tag)
    : plan_(std::move(plan)),
      comm_(&comm),
      send_(send),
      recv_(recv),
      op_(op),
      tag_(tag),
      base_round_(start_round) {
  plan_.check_contract(send_, recv_, op_);
  BRUCK_REQUIRE_MSG(!plan_.stages_.empty(), "empty composite");
  for (const CompositeStage& st : plan_.stages_) {
    BRUCK_REQUIRE_MSG(st.members.empty() && st.plan != nullptr,
                      "CompositeCursor drives world-scope composites only");
  }
  open_stage();
}

void CompositeCursor::open_stage() {
  const CompositeStage& st = plan_.stages_[stage_];
  const std::int64_t b = plan_.block_bytes_;
  const std::span<const std::byte> in =
      st.user_send_in ? send_ : std::span<const std::byte>(stage_in_);
  std::span<std::byte> out;
  if (st.user_recv_out) {
    out = recv_;
  } else {
    stage_out_.assign(static_cast<std::size_t>(st.out_units * b),
                      std::byte{0});
    out = stage_out_;
  }
  const std::int64_t stage_block = st.block_units * b;
  stage_started_ = std::chrono::steady_clock::now();
  if (st.reducing) {
    cursor_ = std::make_unique<PlanCursor>(st.plan, *comm_, in, out,
                                           stage_block, *op_, base_round_,
                                           tag_);
  } else {
    cursor_ = std::make_unique<PlanCursor>(st.plan, *comm_, in, out,
                                           stage_block, base_round_, tag_);
  }
}

void CompositeCursor::finish_stage() {
  const CompositeStage& st = plan_.stages_[stage_];
  const PlanExecution r = cursor_->result();
  out_.bytes_sent += r.bytes_sent;
  out_.bytes_reduced += r.bytes_reduced;
  comm_->record_plan_event(mps::PlanEvent{
      st.cache_hit, st.plan->round_count(), r.bytes_sent, r.bytes_reduced,
      tag_, us_since(stage_started_)});
  base_round_ += st.round_stride;
  const bool last = stage_ + 1 == plan_.stages_.size();
  if (!last) {
    const CompositeStage& next = plan_.stages_[stage_ + 1];
    std::vector<std::byte> next_in(
        static_cast<std::size_t>(next.in_units * plan_.block_bytes_),
        std::byte{0});
    const std::span<const std::byte> out =
        st.user_recv_out ? std::span<const std::byte>(recv_)
                         : std::span<const std::byte>(stage_out_);
    plan_.apply_splices(st, out, next_in, op_);
    stage_in_ = std::move(next_in);
  }
  cursor_.reset();
  ++stage_;
  if (last) {
    out_.next_round = base_round_;
    done_ = true;
  }
}

std::span<const mps::PortHandle> CompositeCursor::post_ready() {
  fresh_.clear();
  while (!done_) {
    if (!cursor_) open_stage();
    const std::span<const mps::PortHandle> batch = cursor_->post_ready();
    fresh_.insert(fresh_.end(), batch.begin(), batch.end());
    if (!cursor_->done()) break;
    finish_stage();
  }
  return fresh_;
}

void CompositeCursor::on_complete(mps::PortHandle h) {
  BRUCK_REQUIRE_MSG(cursor_ != nullptr && !done_,
                    "completion delivered to a finished composite cursor");
  cursor_->on_complete(h);
}

const PlanExecution& CompositeCursor::result() const {
  BRUCK_REQUIRE_MSG(done_, "composite cursor result read before done()");
  return out_;
}

}  // namespace bruck::coll
