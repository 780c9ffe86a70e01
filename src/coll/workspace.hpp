// Reusable executor memory of one communicator.
//
// A repeated collective should touch the heap only the first time its
// geometry appears.  Everything the plan executor used to allocate per call
// — the n-block scratch, the staging that non-contiguous and ⊕-combine
// receives land in, the pack buffer of non-contiguous sends, the handle
// bookkeeping, and the facade's allreduce staging — comes from here.
//
// Ownership and lifetime: one workspace per communicator, owned by the
// communicator's coll::ProgressEngine (which lives in the communicator's
// extension slot), so it is created on first use and destroyed with the
// communicator.  Buffers are recycled, never shrunk: the workspace grows to
// the largest geometry seen and holds about one call's worth of it.
// Single-thread contract, like the communicator itself.
//
// Concurrent executions (the progress engine runs several cursors at once)
// each hold their own CursorState; the pack buffer and extent list are
// shared, because they only live for the duration of one post_send (the
// port engine captures a send's bytes before returning).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/pack.hpp"
#include "mps/communicator.hpp"

namespace bruck::coll {

struct PlanMessage;

/// The per-execution state of one PlanCursor.  Recycled whole through the
/// workspace, so every vector keeps its capacity from one execution to the
/// next.
struct CursorState {
  /// One posted receive: the plan message it lands in, the round to credit
  /// its completion to, and where its bytes were staged.
  struct Posted {
    mps::PortHandle handle = 0;
    const PlanMessage* message = nullptr;
    int round = 0;
    /// Byte offset in staging[round % 2]; −1 when it landed in place.
    std::int64_t staged_at = -1;
  };

  std::vector<std::byte> scratch;
  /// Landing buffers of staged receives.  At most two rounds are in flight
  /// (the cursor's posting discipline), so round i stages in
  /// staging[i % 2], which round i − 2 has finished with.
  std::array<std::vector<std::byte>, 2> staging;
  std::vector<int> open;  ///< per-round receives still in flight
  std::vector<Posted> posted;
  std::vector<mps::PortHandle> fresh;  ///< handles of the last post_ready()
};

class ExecWorkspace {
 public:
  /// The workspace of `comm`, created with its progress engine on first use.
  static ExecWorkspace& for_comm(mps::Communicator& comm);

  ExecWorkspace() = default;
  ExecWorkspace(const ExecWorkspace&) = delete;
  ExecWorkspace& operator=(const ExecWorkspace&) = delete;

  /// A cursor's state, recycled when available (contents are stale; the
  /// cursor resets what it reads).  Hand it back with give_back().
  [[nodiscard]] std::unique_ptr<CursorState> take_cursor_state();
  void give_back(std::unique_ptr<CursorState> state);

  /// Pack buffer and extent list of one send; valid until the next pack.
  [[nodiscard]] std::vector<std::byte>& pack_bytes() { return pack_bytes_; }
  [[nodiscard]] std::vector<ByteExtent>& extents() { return extents_; }

  /// A recycled byte buffer of at least `bytes`, held until destruction.
  /// Contents are stale, not zeroed.
  class Buffer {
   public:
    Buffer(ExecWorkspace& ws, std::size_t bytes);
    ~Buffer();
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    [[nodiscard]] std::span<std::byte> span() {
      return std::span<std::byte>(buf_.data(), bytes_);
    }

   private:
    ExecWorkspace* ws_;
    std::vector<std::byte> buf_;
    std::size_t bytes_;
  };

 private:
  std::vector<std::unique_ptr<CursorState>> cursor_states_;
  std::size_t cursor_states_made_ = 0;
  std::vector<std::vector<std::byte>> buffers_;
  std::size_t buffers_made_ = 0;
  std::vector<std::byte> pack_bytes_;
  std::vector<ByteExtent> extents_;
};

}  // namespace bruck::coll
