#include "coll/workspace.hpp"

#include <utility>

#include "coll/progress.hpp"

namespace bruck::coll {

ExecWorkspace& ExecWorkspace::for_comm(mps::Communicator& comm) {
  return ProgressEngine::for_comm(comm).workspace();
}

std::unique_ptr<CursorState> ExecWorkspace::take_cursor_state() {
  if (cursor_states_.empty()) {
    // Room for every state ever made, so give_back never reallocates (it
    // runs in destructors).
    cursor_states_.reserve(++cursor_states_made_);
    return std::make_unique<CursorState>();
  }
  std::unique_ptr<CursorState> state = std::move(cursor_states_.back());
  cursor_states_.pop_back();
  return state;
}

void ExecWorkspace::give_back(std::unique_ptr<CursorState> state) {
  cursor_states_.push_back(std::move(state));
}

ExecWorkspace::Buffer::Buffer(ExecWorkspace& ws, std::size_t bytes)
    : ws_(&ws), bytes_(bytes) {
  std::vector<std::vector<std::byte>>& pool = ws.buffers_;
  if (pool.empty()) {
    pool.reserve(++ws.buffers_made_);  // the destructor's push_back fits
  } else {
    // Best fit: the smallest buffer that holds `bytes`, else the largest
    // (which then grows) — a repeated geometry converges to no growth.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      const std::size_t have = pool[i].size();
      const std::size_t best = pool[pick].size();
      const bool fits = have >= bytes;
      const bool best_fits = best >= bytes;
      if (fits ? (!best_fits || have < best) : (!best_fits && have > best)) {
        pick = i;
      }
    }
    buf_ = std::move(pool[pick]);
    pool[pick] = std::move(pool.back());
    pool.pop_back();
  }
  if (buf_.size() < bytes) buf_.resize(bytes);
}

ExecWorkspace::Buffer::~Buffer() { ws_->buffers_.push_back(std::move(buf_)); }

}  // namespace bruck::coll
