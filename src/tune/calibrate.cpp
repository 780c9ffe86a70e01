#include "tune/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace bruck::tune {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             Clock::now() - start)
      .count();
}

/// Per-message wall time of a ring-neighbor round at `bytes`: the fastest
/// of `reps` rounds, each timed on its own.  A scheduler hiccup (a
/// preempted rank, an oversubscribed host) inflates the rounds it hits, and
/// a mean would carry it into the fit; the minimum keeps the fabric's own
/// cost.
double time_ring_us(mps::Communicator& comm, int tag, int& round,
                    std::int64_t bytes, int reps) {
  const std::int64_t n = comm.size();
  const std::int64_t next = (comm.rank() + 1) % n;
  const std::int64_t prev = (comm.rank() + n - 1) % n;
  std::vector<std::byte> out(static_cast<std::size_t>(bytes),
                             std::byte{0x3C});
  std::vector<std::byte> in(static_cast<std::size_t>(bytes));
  // One untimed warmup round absorbs first-touch costs (page faults,
  // socket buffer growth) that would inflate β.
  comm.post_send(round, next, out, 1, tag);
  comm.wait_recv(comm.post_recv(round, prev, in, 1, tag));
  ++round;
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    comm.post_send(round, next, out, 1, tag);
    comm.wait_recv(comm.post_recv(round, prev, in, 1, tag));
    ++round;
    best = std::min(best, elapsed_us(start));
  }
  return best;
}

/// Per-byte wall time of the reduction combine loop (local, no wire).
double time_combine_us_per_byte() {
  constexpr std::size_t kElems = 1 << 15;
  std::vector<double> acc(kElems, 1.0);
  std::vector<double> contrib(kElems, 2.0);
  constexpr int kReps = 8;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < kElems; ++i) acc[i] += contrib[i];
  }
  double us = elapsed_us(start);
  // Keep the accumulators observable so the loop can't be elided.
  volatile double sink = acc[0];
  (void)sink;
  return us / (kReps * static_cast<double>(kElems * sizeof(double)));
}

/// Binomial-tree broadcast of `values` from rank 0 over the calibrate tag:
/// every rank ends with rank 0's exact bytes (bit-identical constants).
void broadcast_doubles(mps::Communicator& comm, int tag, int& round,
                       double* values, std::size_t count) {
  const std::int64_t n = comm.size();
  const std::int64_t rank = comm.rank();
  auto span_of = [&](void* p) {
    return std::span<std::byte>(static_cast<std::byte*>(p),
                                count * sizeof(double));
  };
  for (std::int64_t d = 1; d < n; d *= 2) {
    if (rank < d && rank + d < n) {
      comm.post_send(round, rank + d,
                     std::span<const std::byte>(span_of(values)), 1, tag);
    } else if (rank >= d && rank < 2 * d) {
      comm.wait_recv(comm.post_recv(round, rank - d, span_of(values), 1, tag));
    }
    ++round;
  }
}

}  // namespace

Calibration calibrate(mps::Communicator& comm, const std::string& fabric_name,
                      const CalibrateOptions& options) {
  BRUCK_REQUIRE(options.base_reps >= 2);
  Calibration out;
  out.machine.name = fabric_name;
  if (comm.size() == 1 || !comm.native_port_engine()) {
    return out;  // nothing to measure / no tag namespace to measure in
  }

  const int tag = comm.allocate_collective_tag();
  int round = 0;
  comm.barrier();  // start the ladder with everyone past bootstrap

  // The ladder: small sizes pin β, the large end pins the τ slope.  Reps
  // shrink with size so the whole ladder stays ~milliseconds per fabric —
  // but only by half per rung: the τ fit is a slope through the large
  // anchors, and starving them of samples lets one scheduler hiccup
  // collapse the slope to the clamp floor.
  const std::int64_t sizes[] = {16, 1024, 16384, 131072};
  double per_msg_us[std::size(sizes)] = {};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const int reps = std::max(3, options.base_reps >> static_cast<int>(i));
    per_msg_us[i] = time_ring_us(comm, tag, round, sizes[i], reps);
  }
  const double gamma = time_combine_us_per_byte();

  // Rank 0 fits and broadcasts; everyone else adopts its constants
  // verbatim (ranks' raw timings differ — the model must not).
  double constants[3] = {0.0, 0.0, 0.0};
  if (comm.rank() == 0) {
    double mean_s = 0.0;
    double mean_t = 0.0;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      mean_s += static_cast<double>(sizes[i]);
      mean_t += per_msg_us[i];
    }
    mean_s /= std::size(sizes);
    mean_t /= std::size(sizes);
    double cov = 0.0;
    double var = 0.0;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const double ds = static_cast<double>(sizes[i]) - mean_s;
      cov += ds * (per_msg_us[i] - mean_t);
      var += ds * ds;
    }
    const double tau = std::max(var > 0.0 ? cov / var : 0.0, 1e-9);
    // β from the startup-dominated end of the ladder, with the (tiny)
    // transfer share of the smallest message removed; clamped positive.
    const double beta =
        std::max(per_msg_us[0] - tau * static_cast<double>(sizes[0]), 1e-3);
    constants[0] = beta;
    constants[1] = tau;
    constants[2] = std::max(gamma, 1e-9);
  }
  broadcast_doubles(comm, tag, round, constants, 3);
  comm.barrier();  // every rank drained before the tag is retired
  comm.release_tag(tag);

  out.machine.beta_us = constants[0];
  out.machine.tau_us_per_byte = constants[1];
  out.machine.gamma_us_per_byte = constants[2];
  out.ladder_points = static_cast<int>(std::size(sizes));
  out.measured = true;
  return out;
}

}  // namespace bruck::tune
