#include "mps/port_engine.hpp"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "mps/backoff.hpp"
#include "util/assert.hpp"

namespace bruck::mps {

namespace {

/// True when the calling thread may run on exactly one CPU.
bool calling_thread_bound_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  return ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
         CPU_COUNT(&allowed) == 1;
}

}  // namespace

std::int64_t wire_segment_length(std::int64_t total, int segments, int i) {
  const std::int64_t base = total / segments;
  const std::int64_t rem = total % segments;
  return base + (i < rem ? 1 : 0);
}

int effective_wire_segments(std::int64_t total, int segments) {
  return static_cast<int>(
      std::clamp<std::int64_t>(segments, 1, std::max<std::int64_t>(1, total)));
}

WirePortEngine::WirePortEngine(std::int64_t peers)
    : send_seq0_(static_cast<std::size_t>(peers), 0),
      recv_seq0_(static_cast<std::size_t>(peers), 0),
      pending_per_src_(static_cast<std::size_t>(peers), 0) {
  BRUCK_REQUIRE(peers >= 1);
  stash_.reserve(256);
}

std::int64_t& WirePortEngine::tagged_seq(std::vector<TaggedSeq>& seqs,
                                         std::uint64_t key) {
  for (TaggedSeq& s : seqs) {
    if (s.key == key) return s.seq;
  }
  seqs.push_back(TaggedSeq{key, 0});
  return seqs.back().seq;
}

WirePortEngine::TagRoundState& WirePortEngine::round_state(int tag) {
  if (tag == 0) return tag0_rounds_;
  for (TaggedRounds& t : tag_rounds_) {
    if (t.tag == tag) return t.state;
  }
  tag_rounds_.push_back(TaggedRounds{tag, {}});
  return tag_rounds_.back().state;
}

std::int64_t& WirePortEngine::send_seq(int tag, std::int64_t dst) {
  if (tag == 0) return send_seq0_[static_cast<std::size_t>(dst)];
  return tagged_seq(send_seq_tagged_, tag_peer_key(tag, dst));
}

std::int64_t& WirePortEngine::recv_seq(int tag, std::int64_t src) {
  if (tag == 0) return recv_seq0_[static_cast<std::size_t>(src)];
  return tagged_seq(recv_seq_tagged_, tag_peer_key(tag, src));
}

void WirePortEngine::check_post(int round, std::int64_t peer,
                                std::int64_t bytes, bool is_send, int tag) {
  BRUCK_REQUIRE(round >= 0);
  BRUCK_REQUIRE_MSG(tag >= 0, "negative port-namespace tag");
  TagRoundState& rs = round_state(tag);
  BRUCK_REQUIRE_MSG(round >= rs.last_round,
                    "port-engine posts must use non-decreasing rounds "
                    "(within each tag namespace)");
  if (round > rs.last_round) {
    rs.last_round = round;
    rs.sends_in_round = 0;
    rs.recvs_in_round = 0;
  }
  BRUCK_REQUIRE_MSG(peer != rank(), is_send
                                        ? "self-send (local data needs no port)"
                                        : "self-receive");
  BRUCK_REQUIRE(peer >= 0 && peer < size());
  BRUCK_REQUIRE_MSG(bytes > 0, "empty message");
  if (is_send) {
    BRUCK_REQUIRE_MSG(++rs.sends_in_round <= ports(),
                      "more sends than ports in one round");
  } else {
    BRUCK_REQUIRE_MSG(++rs.recvs_in_round <= ports(),
                      "more receives than ports in one round");
  }
}

void WirePortEngine::wire_send(int round, std::int64_t dst,
                               std::span<const std::byte> payload,
                               int segments, int tag) {
  const std::int64_t total = static_cast<std::int64_t>(payload.size());
  // One logical send event, regardless of wire segmentation: C1/C2 stay the
  // paper's measures of the declared round structure.
  record_send_event(round, dst, total, tag);
  const int s = effective_wire_segments(total, segments);
  WireHeader h;
  h.src = rank();
  h.dst = dst;
  h.tag = tag;
  h.round = round;
  // Segments are views of the caller's payload: the fabric copies each one
  // straight into its channel, and the receiver can consume segment i while
  // later segments are still being pushed.
  std::int64_t offset = 0;
  for (int i = 0; i < s; ++i) {
    const std::int64_t len = wire_segment_length(total, s, i);
    h.seq = send_seq(tag, dst)++;
    wire_push(h, payload.subspan(static_cast<std::size_t>(offset),
                                 static_cast<std::size_t>(len)));
    offset += len;
  }
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::span<const std::byte> data, int segments,
                               int tag) {
  check_post(round, dst, static_cast<std::int64_t>(data.size()), true, tag);
  wire_send(round, dst, data, segments, tag);
}

void WirePortEngine::post_send(int round, std::int64_t dst,
                               std::vector<std::byte>&& data, int segments,
                               int tag) {
  post_send(round, dst, std::span<const std::byte>(data), segments, tag);
}

WirePortEngine::RecvOp* WirePortEngine::find_op(PortHandle h) {
  if (h == 0) return nullptr;
  for (RecvOp& op : ops_) {
    if (op.handle == h) return &op;
  }
  return nullptr;
}

WirePortEngine::RecvOp* WirePortEngine::oldest_pending(std::int64_t src,
                                                       int tag) {
  RecvOp* best = nullptr;
  for (RecvOp& op : ops_) {
    if (op.handle != 0 && !op.complete && op.src == src && op.tag == tag &&
        (best == nullptr || op.handle < best->handle)) {
      best = &op;
    }
  }
  return best;
}

PortHandle WirePortEngine::add_recv_op(RecvOp&& op) {
  op.handle = next_handle_++;
  op.segments = effective_wire_segments(op.total, op.segments);
  const PortHandle h = op.handle;
  const int tag = op.tag;
  const std::int64_t src = op.src;
  const auto free_it = std::find_if(
      ops_.begin(), ops_.end(), [](const RecvOp& o) { return o.handle == 0; });
  if (free_it != ops_.end()) {
    *free_it = std::move(op);
  } else {
    ops_.push_back(std::move(op));
  }
  ++pending_;
  if (pending_per_src_[static_cast<std::size_t>(src)]++ == 0) {
    waiting_srcs_.push_back(src);
  }
  // An early arrival for this (tag, src) may already be stashed (its wire
  // messages beat the post); deliver it now — this can complete the op.
  drain_stash(tag, src);
  return h;
}

PortHandle WirePortEngine::post_recv(int round, std::int64_t src,
                                     std::span<std::byte> data, int segments,
                                     int tag) {
  check_post(round, src, static_cast<std::int64_t>(data.size()), false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.landing = data;
  op.total = static_cast<std::int64_t>(data.size());
  op.segments = segments;
  return add_recv_op(std::move(op));
}

PortHandle WirePortEngine::post_recv_buffer(int round, std::int64_t src,
                                            std::int64_t bytes, int segments,
                                            int tag) {
  check_post(round, src, bytes, false, tag);
  RecvOp op;
  op.src = src;
  op.tag = tag;
  op.round = round;
  op.take_buffer = true;
  op.total = bytes;
  op.segments = segments;
  op.owned.resize(static_cast<std::size_t>(bytes));
  return add_recv_op(std::move(op));
}

void WirePortEngine::deliver(RecvOp& op, const WireHeader& h,
                             std::span<const std::byte> bytes) {
  const std::int64_t expected_seq = recv_seq(op.tag, h.src)++;
  const std::int64_t expected_len =
      wire_segment_length(op.total, op.segments, op.seg_done);
  if (h.seq != expected_seq ||
      static_cast<std::int64_t>(bytes.size()) != expected_len) {
    std::ostringstream os;
    os << "rank " << rank() << " round " << op.round << " tag " << op.tag
       << ": message from rank " << h.src << " has seq " << h.seq
       << " (expected " << expected_seq << ") and " << bytes.size()
       << " bytes (expected " << expected_len << ")";
    throw ContractViolation(os.str());
  }
  if (expected_len > 0) {
    std::byte* base = op.take_buffer ? op.owned.data() : op.landing.data();
    std::memcpy(base + op.offset, bytes.data(),
                static_cast<std::size_t>(expected_len));
  }
  op.offset += expected_len;
  if (++op.seg_done == op.segments) {
    op.complete = true;
    op.completed_at = completions_++;
    --pending_;
    ++unreported_;
    if (--pending_per_src_[static_cast<std::size_t>(op.src)] == 0) {
      std::erase(waiting_srcs_, op.src);
    }
  }
}

void WirePortEngine::on_wire(const WireHeader& h,
                             std::span<const std::byte> bytes) {
  RecvOp* op = oldest_pending(h.src, h.tag);
  if (op == nullptr) {
    // The wire can surface a message for another tag whose receive is not
    // posted yet (concurrent collectives progress independently per rank),
    // or — on fabrics that drain their inbound channel eagerly — a message
    // from a source with no pending receive at all.  Stash it in
    // per-channel FIFO order; add_recv_op delivers it when its receive
    // appears.  A genuinely unmatched message therefore surfaces as a
    // drain-deadline timeout reporting the stash, not an immediate throw.
    stash(h, bytes);
    return;
  }
  deliver(*op, h, bytes);
}

void WirePortEngine::defer_wire(const WireHeader& h,
                                std::span<const std::byte> bytes) {
  stash(h, bytes);
  deferred_ = true;
}

void WirePortEngine::stash(const WireHeader& h,
                           std::span<const std::byte> bytes) {
  const std::size_t len = bytes.size();
  const std::size_t spread_limit =
      std::max<std::size_t>(std::size_t{64} << 10, 4 * (stash_live_ + len));
  if (stash_end_ + len > std::min(stash_cap_, spread_limit)) {
    make_stash_room(len);
  }
  if (len > 0) std::memcpy(stash_bytes_.get() + stash_end_, bytes.data(), len);
  stash_.push_back(Stashed{h, stash_end_, len});
  stash_end_ += len;
  stash_live_ += len;
}

void WirePortEngine::reserve_stash(std::size_t bytes) {
  if (bytes > stash_cap_) {
    BRUCK_REQUIRE_MSG(stash_.empty(), "reserve_stash on a non-empty stash");
    stash_bytes_.reset(new std::byte[bytes]);
    stash_cap_ = bytes;
  }
}

void WirePortEngine::make_stash_room(std::size_t incoming) {
  std::unique_ptr<std::byte[]> grown;
  std::byte* dst = stash_bytes_.get();
  if (stash_live_ + incoming > stash_cap_) {
    // new[] leaves the bytes uninitialized: pages the stash never reaches
    // are never touched.
    stash_cap_ = std::max(
        {stash_live_ + incoming, 2 * stash_cap_, std::size_t{4096}});
    grown.reset(new std::byte[stash_cap_]);
    dst = grown.get();
  }
  // Slide live entries down in arrival order (offsets only decrease).
  std::size_t at = 0;
  for (Stashed& s : stash_) {
    if (s.len > 0) std::memmove(dst + at, stash_bytes_.get() + s.offset, s.len);
    s.offset = at;
    at += s.len;
  }
  if (grown) stash_bytes_ = std::move(grown);
  stash_end_ = at;
}

void WirePortEngine::deliver_stashed(std::size_t i, RecvOp& op) {
  const Stashed s = stash_[i];
  deliver(op, s.h,
          std::span<const std::byte>(stash_bytes_.get() + s.offset, s.len));
  stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
  stash_live_ -= s.len;
  if (stash_.empty()) {
    stash_end_ = 0;
  } else if (i == stash_.size()) {
    stash_end_ = stash_.back().offset + stash_.back().len;
  }
}

void WirePortEngine::drain_stash(int tag, std::int64_t src) {
  for (std::size_t i = 0; i < stash_.size();) {
    if (stash_[i].h.tag != tag || stash_[i].h.src != src) {
      ++i;
      continue;
    }
    RecvOp* op = oldest_pending(src, tag);
    if (op == nullptr) break;
    deliver_stashed(i, *op);
  }
}

bool WirePortEngine::redeliver_deferred() {
  if (!deferred_) return false;
  deferred_ = false;
  // Arrival order: an entry whose channel has no pending receive is
  // skipped, and so is every later entry of that channel — per-channel
  // FIFO order holds.
  bool delivered = false;
  for (std::size_t i = 0; i < stash_.size();) {
    RecvOp* op = oldest_pending(stash_[i].h.src, stash_[i].h.tag);
    if (op == nullptr) {
      ++i;
      continue;
    }
    deliver_stashed(i, *op);
    delivered = true;
  }
  return delivered;
}

bool WirePortEngine::try_progress() {
  return redeliver_deferred() ||
         wire_poll(waiting_srcs_, std::chrono::milliseconds{0});
}

bool WirePortEngine::spin_for_arrival(const DrainDeadline& deadline) {
  const auto stop = std::min(
      std::chrono::steady_clock::now() + kWaitSpinBudget, deadline.at());
  Backoff backoff;
  do {
    if (wire_poll(waiting_srcs_, std::chrono::milliseconds{0})) return true;
    backoff.spin();
  } while (std::chrono::steady_clock::now() < stop);
  return false;
}

void WirePortEngine::progress_blocking(const DrainDeadline& deadline) {
  if (redeliver_deferred()) return;
  if (!core_bound_.has_value()) {
    core_bound_ = calling_thread_bound_to_one_cpu();
  }
  if (*core_bound_ && spin_for_arrival(deadline)) return;
  // A park pays a kernel wake-up anyway; re-reading the binding here lets a
  // thread that is re-bound mid-run switch policy at its next wait.
  core_bound_ = calling_thread_bound_to_one_cpu();
  if (wire_poll(waiting_srcs_, deadline.remaining())) return;
  std::ostringstream os;
  os << "rank " << rank() << ": port-engine receive timed out after "
     << deadline.budget().count()
     << " ms (one whole-drain budget, BRUCK_RECV_TIMEOUT_MS) waiting on";
  const char* sep = " ";
  for (const RecvOp& op : ops_) {
    if (op.handle == 0 || op.complete) continue;
    os << sep << "(src " << op.src << ", tag " << op.tag << ", round "
       << op.round << ")";
    sep = ", ";
  }
  if (!stash_.empty()) {
    os << "; " << stash_.size()
       << " message(s) stashed for other tag namespaces";
  }
  os << " (deadlock or mismatched exchange?)";
  throw ContractViolation(os.str());
}

void WirePortEngine::free_slot(RecvOp& op) {
  op.handle = 0;
  op.landing = {};
  op.take_buffer = false;
  op.complete = false;
  op.reported = false;
  op.consumed = false;
}

PortHandle WirePortEngine::report(RecvOp& op) {
  const PortHandle h = op.handle;
  if (!op.reported) {
    op.reported = true;
    --unreported_;
  }
  if (!op.take_buffer || op.consumed) free_slot(op);
  return h;
}

WirePortEngine::RecvOp& WirePortEngine::oldest_unreported() {
  RecvOp* best = nullptr;
  for (RecvOp& op : ops_) {
    if (op.handle != 0 && op.complete && !op.reported &&
        (best == nullptr || op.completed_at < best->completed_at)) {
      best = &op;
    }
  }
  BRUCK_ENSURE(best != nullptr);
  return *best;
}

std::vector<std::byte> WirePortEngine::take_payload(PortHandle h) {
  RecvOp* op = find_op(h);
  BRUCK_REQUIRE_MSG(op != nullptr && op->complete && op->take_buffer &&
                        !op->consumed,
                    "take_payload needs a completed buffer-mode receive");
  std::vector<std::byte> out = std::move(op->owned);
  op->consumed = true;
  // An unreported op stays reportable; it frees its slot when reported.
  if (op->reported) free_slot(*op);
  return out;
}

bool WirePortEngine::test_recv(PortHandle h) {
  for (;;) {
    RecvOp* op = find_op(h);
    BRUCK_REQUIRE_MSG(op != nullptr && !op->consumed,
                      "unknown or already-consumed receive handle");
    if (op->complete) {
      report(*op);
      return true;
    }
    if (!try_progress()) return false;
  }
}

void WirePortEngine::wait_recv(PortHandle h) {
  const DrainDeadline deadline(recv_timeout());
  for (;;) {
    RecvOp* op = find_op(h);
    BRUCK_REQUIRE_MSG(op != nullptr && !op->consumed,
                      "unknown or already-consumed receive handle");
    if (op->complete) {
      report(*op);
      return;
    }
    progress_blocking(deadline);
  }
}

PortHandle WirePortEngine::wait_any_recv() {
  const DrainDeadline deadline(recv_timeout());
  return wait_any_recv_within(deadline);
}

PortHandle WirePortEngine::wait_any_recv_within(const DrainDeadline& deadline) {
  while (unreported_ == 0) {
    BRUCK_REQUIRE_MSG(pending_ > 0,
                      "wait_any_recv with no outstanding receive");
    progress_blocking(deadline);
  }
  return report(oldest_unreported());
}

void WirePortEngine::wait_all_recvs() {
  const DrainDeadline deadline(recv_timeout());
  while (pending_ > 0) progress_blocking(deadline);
  while (unreported_ > 0) report(oldest_unreported());
}

std::optional<PortHandle> WirePortEngine::poll_any_recv() {
  while (unreported_ == 0) {
    if (!try_progress()) return std::nullopt;
  }
  return report(oldest_unreported());
}

void WirePortEngine::release_tag(int tag) {
  BRUCK_REQUIRE_MSG(tag > 0, "release_tag needs a nonzero collective tag");
  for (const RecvOp& op : ops_) {
    BRUCK_REQUIRE_MSG(
        op.handle == 0 || op.complete || op.tag != tag,
        "release_tag with receives still outstanding under the tag");
  }
  for (const Stashed& s : stash_) {
    BRUCK_REQUIRE_MSG(s.h.tag != tag,
                      "release_tag with stashed wire messages still "
                      "undelivered under the tag");
  }
  std::erase_if(tag_rounds_,
                [tag](const TaggedRounds& t) { return t.tag == tag; });
  const auto in_tag = [tag](const TaggedSeq& s) {
    return static_cast<int>(s.key >> 32) == tag;
  };
  std::erase_if(send_seq_tagged_, in_tag);
  std::erase_if(recv_seq_tagged_, in_tag);
}

}  // namespace bruck::mps
