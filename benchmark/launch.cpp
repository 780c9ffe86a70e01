#include "launch.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "alloc_hook.hpp"
#include "coll/progress.hpp"
#include "model/tuner.hpp"
#include "mps/trace.hpp"
#include "timed_comm.hpp"
#include "tune/calibrate.hpp"

namespace bench {

namespace bc = bruck::coll;
namespace bm = bruck::model;
namespace mps = bruck::mps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// Quantile of sorted values, linear between closest ranks.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <class T>
void put(std::vector<std::byte>& out, const T* data, std::size_t count) {
  const std::size_t at = out.size();
  out.resize(at + count * sizeof(T));
  if (count > 0) std::memcpy(out.data() + at, data, count * sizeof(T));
}

template <class T>
std::vector<T> take(const std::vector<std::byte>& in, std::size_t& at,
                    std::size_t count) {
  std::vector<T> out(count);
  if (in.size() < at + count * sizeof(T)) {
    throw std::runtime_error("truncated rank report");
  }
  if (count > 0) std::memcpy(out.data(), in.data() + at, count * sizeof(T));
  at += count * sizeof(T);
  return out;
}

/// A rank's sums over the traced timed phase.
struct RankTotals {
  double op_ns = 0;
  std::array<double, kPortCallKinds> port_ns{};
  double port_total_ns = 0;
  double sends = 0;
  double send_bytes = 0;
  double segments = 0;
  double plan_rounds = 0;
  double plan_wall_us = 0;
  double bytes_reduced = 0;
  double blocking_ops = 0;
  double blocking_op_ns = 0;
  double blocking_port_ns = 0;
  double blocking_wall_us = 0;
  double alloc_count = 0;
  double alloc_bytes = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double tuner_hits = 0;
  double tuner_misses = 0;
  double submitted = 0;
  double fused_members = 0;
  double serial_fallback = 0;

  void add(const RankTotals& o) {
    op_ns += o.op_ns;
    for (std::size_t c = 0; c < kPortCallKinds; ++c) port_ns[c] += o.port_ns[c];
    port_total_ns += o.port_total_ns;
    sends += o.sends;
    send_bytes += o.send_bytes;
    segments += o.segments;
    plan_rounds += o.plan_rounds;
    plan_wall_us += o.plan_wall_us;
    bytes_reduced += o.bytes_reduced;
    blocking_ops += o.blocking_ops;
    blocking_op_ns += o.blocking_op_ns;
    blocking_port_ns += o.blocking_port_ns;
    blocking_wall_us += o.blocking_wall_us;
    alloc_count += o.alloc_count;
    alloc_bytes += o.alloc_bytes;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    tuner_hits += o.tuner_hits;
    tuner_misses += o.tuner_misses;
    submitted += o.submitted;
    fused_members += o.fused_members;
    serial_fallback += o.serial_fallback;
  }
};

/// Head of one rank's result payload; followed by timed_ops float
/// latencies (µs) and `failures` int64 op indices (set-up op i as −1−i).
struct RankReport {
  double t_enter_s = 0;
  double t_setup_s = 0;
  double core_ns = 0;  ///< core_probe_ns around the timed phase
  double max_rss_kb = 0;
  std::int64_t failures = 0;
  std::int32_t timed_round0 = 0;  ///< first tag-0 round of the timed phase
  std::int32_t timed_tag0 = 0;    ///< tags above this are the timed phase's
  RankTotals totals;
};

void add_tally(RankTotals& t, const CommTally& tally, const Op& op,
               std::int64_t op_ns) {
  const auto port = static_cast<double>(tally.port_total_ns());
  t.op_ns += static_cast<double>(op_ns);
  for (std::size_t c = 0; c < kPortCallKinds; ++c) {
    t.port_ns[c] += static_cast<double>(tally.port_ns[c]);
  }
  t.port_total_ns += port;
  t.sends += static_cast<double>(tally.sends);
  t.send_bytes += static_cast<double>(tally.send_bytes);
  t.segments += static_cast<double>(tally.segments);
  t.plan_rounds += static_cast<double>(tally.plan_rounds);
  t.plan_wall_us += tally.plan_wall_us;
  t.bytes_reduced += static_cast<double>(tally.bytes_reduced);
  if (is_blocking(op)) {
    t.blocking_ops += 1;
    t.blocking_op_ns += static_cast<double>(op_ns);
    t.blocking_port_ns += port;
    t.blocking_wall_us += tally.plan_wall_us;
  }
}

/// Bind the calling rank (process or thread) to the rank-th CPU it may run
/// on, as MPI launchers bind ranks: a rank that migrates mid-collective
/// stalls its peers.  Left unbound when there are fewer CPUs than ranks.
void pin_to_cpu(std::int64_t rank) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < kRanks) {
    return;
  }
  std::int64_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == rank) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

/// ns per step of a fixed chain of dependent multiply-adds on the calling
/// CPU: the host's core speed right now.  On a virtual machine that shares
/// its host, this reading drifted by up to 2× within hours and launch
/// times followed it; run_workload scales each launch's times by it.
double core_probe_ns() {
  constexpr int kSteps = 8'000'000;
  volatile std::uint64_t seed = 1;
  std::uint64_t x = seed;
  const std::int64_t t0 = TimedComm::now_ns();
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  const std::int64_t dt = TimedComm::now_ns() - t0;
  seed = x;
  return static_cast<double>(dt) / kSteps;
}

std::vector<std::byte> rank_body(mps::Communicator& comm, const Workload& w,
                                 bool traced) {
  pin_to_cpu(comm.rank());
  RankReport rep;
  rep.t_enter_s = now_s();
  RankData data(w, comm.rank());
  std::vector<std::int64_t> failed;

  // Set-up: every distinct geometry once, each op verified.
  int round = 0;
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    const Op& op = w.warmup[i];
    data.clear(op);
    round = data.run(comm, op, round);
    if (!data.verify(op)) failed.push_back(-1 - static_cast<std::int64_t>(i));
  }
  comm.barrier();
  rep.t_setup_s = now_s();
  const double core_ns_before = core_probe_ns();

  // Timed phase: closed loop, verification outside the timer.
  std::vector<float> lat(w.timed.size());
  const auto timed_loop = [&](mps::Communicator& c, auto&& after_op) {
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const Op& op = w.timed[i];
      const bool check = i % kVerifyEvery == 0;
      if (check) data.clear(op);
      const std::int64_t t0 = TimedComm::now_ns();
      round = data.run(c, op, round);
      const std::int64_t dt = TimedComm::now_ns() - t0;
      lat[i] = static_cast<float>(static_cast<double>(dt) / 1e3);
      after_op(op, dt);
      if (check && !data.verify(op)) {
        failed.push_back(static_cast<std::int64_t>(i));
      }
    }
  };
  if (!traced) {
    timed_loop(comm, [](const Op&, std::int64_t) {});
  } else {
    // Everything before the timed phase stays out of the sliced trace:
    // its tag-0 rounds are below timed_round0, its tags at most timed_tag0.
    rep.timed_round0 = round;
    rep.timed_tag0 = comm.allocate_collective_tag();
    TimedComm tc(comm);
    const bc::ProgressEngine& engine = bc::ProgressEngine::for_comm(tc);
    const bc::PlanCacheStats cache0 = bc::PlanCache::global().stats();
    const bm::TunerCacheStats tuner0 = bm::tuner_cache_stats();
    RankTotals& t = rep.totals;
    comm.barrier();
    arm_alloc_counting();
    timed_loop(tc, [&](const Op& op, std::int64_t dt) {
      add_tally(t, tc.take(), op, dt);
    });
    const AllocCounts allocs = disarm_alloc_counting();
    // The thread fabric shares one PlanCache and tuner: wait until every
    // rank's lookups are in before reading the counters.
    comm.barrier();
    const bc::PlanCacheStats cache1 = bc::PlanCache::global().stats();
    const bm::TunerCacheStats tuner1 = bm::tuner_cache_stats();
    t.alloc_count = static_cast<double>(allocs.count);
    t.alloc_bytes = static_cast<double>(allocs.bytes);
    t.cache_hits = static_cast<double>(cache1.hits - cache0.hits);
    t.cache_misses = static_cast<double>(cache1.misses - cache0.misses);
    t.cache_evictions =
        static_cast<double>(cache1.evictions - cache0.evictions);
    t.tuner_hits = static_cast<double>(tuner1.hits - tuner0.hits);
    t.tuner_misses = static_cast<double>(tuner1.misses - tuner0.misses);
    t.submitted = static_cast<double>(engine.stats().submitted);
    t.fused_members = static_cast<double>(engine.stats().fused_members);
    t.serial_fallback = static_cast<double>(engine.stats().serial_fallback);
  }
  rep.core_ns = (core_ns_before + core_probe_ns()) / 2;
  rep.max_rss_kb = max_rss_kb();
  rep.failures = static_cast<std::int64_t>(failed.size());

  std::vector<std::byte> out;
  put(out, &rep, 1);
  put(out, lat.data(), lat.size());
  put(out, failed.data(), failed.size());
  return out;
}

mps::SpawnOptions spawn_options(const Workload& w, bool record_trace) {
  mps::SpawnOptions so;
  so.n = kRanks;
  so.k = w.spec->k;
  so.backend = w.spec->fabric;
  so.record_trace = record_trace;
  so.tune = bruck::tune::TuneMode::kOff;
  return so;
}

/// Keeps timed loops' results observable to the optimizer.
volatile std::uint64_t g_sink = 0;

/// Mean ns of one op's facade resolution (tuner picks, segment knob, key),
/// warm, over every distinct geometry.
double time_picks(const Workload& w) {
  bc::PlanKey keys[2];
  std::uint64_t sink = 0;
  for (const Op& op : w.warmup) sink += plan_keys(w, op, keys);
  const std::size_t reps = std::max<std::size_t>(1, 20000 / w.warmup.size());
  const std::int64_t t0 = TimedComm::now_ns();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const Op& op : w.warmup) {
      sink += plan_keys(w, op, keys);
      sink += static_cast<std::uint64_t>(keys[0].radix);
    }
  }
  const std::int64_t dt = TimedComm::now_ns() - t0;
  g_sink = sink;
  return static_cast<double>(dt) / static_cast<double>(reps * w.warmup.size());
}

/// Every distinct PlanCache key the workload's ops resolve, in first-use
/// order.
std::vector<bc::PlanKey> distinct_plan_keys(const Workload& w) {
  std::vector<bc::PlanKey> distinct;
  std::unordered_set<bc::PlanKey, bc::PlanKeyHash> seen;
  bc::PlanKey keys[2];
  for (const Op& op : w.warmup) {
    const int n = plan_keys(w, op, keys);
    for (int i = 0; i < n; ++i) {
      if (seen.insert(keys[i]).second) distinct.push_back(keys[i]);
    }
  }
  return distinct;
}

/// Mean µs of one cold lowering on a private PlanCache, once per distinct
/// key the workload resolves.
double time_lowering(const Workload& w) {
  const std::vector<bc::PlanKey> distinct = distinct_plan_keys(w);
  bc::PlanCache cache(distinct.size() + 1);
  const std::int64_t t0 = TimedComm::now_ns();
  for (const bc::PlanKey& key : distinct) (void)cache.get_or_lower(key);
  const std::int64_t dt = TimedComm::now_ns() - t0;
  return static_cast<double>(dt) / 1e3 / static_cast<double>(distinct.size());
}

/// ReduceOp::combine throughput over the workload's reduction block sizes
/// (0 when it has none).
double time_combine(const Workload& w) {
  std::vector<std::pair<std::int64_t, bc::ReduceOp>> work;
  std::int64_t max_bytes = 0;
  for (const Op& op : w.warmup) {
    const std::int64_t b = w.sizes[op.shape];
    if (op.kind == OpKind::kReduceScatter) {
      work.emplace_back(b, bc::ReduceOp::sum(bc::ReduceElem::kI32));
    } else if (op.kind == OpKind::kAllreduce) {
      work.emplace_back(b, bc::ReduceOp::sum(bc::ReduceElem::kF32));
    } else {
      continue;
    }
    max_bytes = std::max(max_bytes, b);
  }
  if (work.empty()) return 0.0;
  std::vector<std::byte> acc(static_cast<std::size_t>(max_bytes));
  std::vector<std::byte> in(static_cast<std::size_t>(max_bytes));
  double bytes = 0;
  const std::int64_t t0 = TimedComm::now_ns();
  std::int64_t dt = 0;
  while (dt < 20'000'000) {
    for (int rep = 0; rep < 16; ++rep) {
      for (const auto& [b, op] : work) {
        op.combine(acc.data(), in.data(), b);
        bytes += static_cast<double>(b);
      }
    }
    dt = TimedComm::now_ns() - t0;
  }
  return bytes / static_cast<double>(dt);  // B/ns = GB/s
}

/// tune::calibrate on the workload's fabric, kCalibrations times: sets the
/// median call time and the median of each model constant in `s`.  One
/// call takes a few milliseconds, and its β alone ranged 1–27 µs on shm
/// across runs.
void calibrate(const Workload& w, LaunchSummary& s) {
  constexpr std::size_t kCalibrations = 9;
  struct Out {
    double ms, beta, tau, gamma;
  };
  const std::string fabric = mps::to_string(w.spec->fabric);
  const mps::SpawnResult run = mps::spawn_local(
      spawn_options(w, false),
      [&fabric](mps::Communicator& comm) -> std::vector<std::byte> {
        pin_to_cpu(comm.rank());
        std::vector<Out> calls;
        for (std::size_t i = 0; i < kCalibrations; ++i) {
          const double t0 = now_s();
          const bruck::tune::Calibration cal =
              bruck::tune::calibrate(comm, fabric);
          calls.push_back(Out{(now_s() - t0) * 1e3, cal.machine.beta_us,
                              cal.machine.tau_us_per_byte,
                              cal.machine.gamma_us_per_byte});
        }
        std::vector<std::byte> out;
        put(out, calls.data(), calls.size());
        return out;
      });
  // A call's time is its slowest rank's; the constants are rank 0's (every
  // rank holds the same ones).
  std::vector<double> ms(kCalibrations, 0.0);
  std::vector<Out> rank0;
  for (const std::vector<std::byte>& p : run.rank_payloads) {
    std::size_t at = 0;
    const std::vector<Out> calls = take<Out>(p, at, kCalibrations);
    for (std::size_t i = 0; i < kCalibrations; ++i) {
      ms[i] = std::max(ms[i], calls[i].ms);
    }
    if (rank0.empty()) rank0 = calls;
  }
  const auto median_of = [&](double Out::*field) {
    std::vector<double> v;
    for (const Out& o : rank0) v.push_back(o.*field);
    return median(std::move(v));
  };
  s.layer[kCalibrateMs] = median(ms);
  s.layer[kBetaUs] = median_of(&Out::beta);
  s.layer[kTauNsPerB] = median_of(&Out::tau) * 1e3;
  s.layer[kGammaNsPerB] = median_of(&Out::gamma) * 1e3;
}

/// The paper's measures of each op class, from a traced run of every
/// distinct geometry of the class (means per op).
void class_measures(const Workload& w, LaunchSummary& s) {
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    const OpClass& cls = w.classes[c];
    const mps::SpawnResult run = mps::spawn_local(
        spawn_options(w, true),
        [&](mps::Communicator& comm) -> std::vector<std::byte> {
          RankData data(w, comm.rank());
          int round = 0;
          for (const Op& op : cls.shapes) round = data.run(comm, op, round);
          return {};
        });
    const auto per_op = static_cast<double>(cls.shapes.size());
    const bm::CostMetrics m = run.trace->metrics();
    s.class_c1[c] = static_cast<double>(m.c1) / per_op;
    s.class_c2[c] = static_cast<double>(m.c2) / per_op;
    s.class_bytes_reduced[c] =
        static_cast<double>(run.trace->plan_stats().bytes_reduced) /
        static_cast<double>(kRanks) / per_op;
  }
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double at_reference_speed(const LaunchSummary& s, int m) {
  const double slowdown = s.core_ns / kReferenceCoreNs;
  switch (m) {
    case kOpP50Us:
    case kOpP99Us:
    case kSetupS:
      return s.e2e[m] / slowdown;
    case kBusbwMBps:
      return s.e2e[m] * slowdown;
    default:
      return s.e2e[m];
  }
}

LaunchSummary run_launch(const Workload& w, bool traced) {
  LaunchSummary s;
  try {
    if (w.classes.size() > kMaxClasses) {
      throw std::logic_error("more op classes than LaunchSummary holds");
    }
    const double t0 = now_s();
    const mps::SpawnResult run = mps::spawn_local(
        spawn_options(w, traced), [&](mps::Communicator& comm) {
          return rank_body(comm, w, traced);
        });

    const std::size_t ops = w.timed.size();
    std::vector<double> op_us(ops, 0.0);
    std::set<std::int64_t> failed;
    RankTotals all;
    double t_enter = 0;
    double t_setup = 0;
    double core_ns = 0;
    double rss_kb = 0;
    std::int32_t round0 = 0;
    std::int32_t tag0 = 0;
    for (const std::vector<std::byte>& payload : run.rank_payloads) {
      std::size_t at = 0;
      const RankReport rep = take<RankReport>(payload, at, 1)[0];
      const std::vector<float> lat = take<float>(payload, at, ops);
      for (const std::int64_t i : take<std::int64_t>(
               payload, at, static_cast<std::size_t>(rep.failures))) {
        failed.insert(i);
      }
      // Op latency is the slowest rank's call duration.
      for (std::size_t i = 0; i < ops; ++i) {
        op_us[i] = std::max(op_us[i], static_cast<double>(lat[i]));
      }
      t_enter = std::max(t_enter, rep.t_enter_s);
      t_setup = std::max(t_setup, rep.t_setup_s);
      core_ns += rep.core_ns / static_cast<double>(kRanks);
      rss_kb = std::max(rss_kb, rep.max_rss_kb);
      round0 = rep.timed_round0;
      tag0 = rep.timed_tag0;
      all.add(rep.totals);
    }

    double sum_bus = 0;
    double sum_us = 0;
    std::vector<std::vector<double>> by_class(w.classes.size());
    for (std::size_t i = 0; i < ops; ++i) {
      sum_bus += bus_bytes(w, w.timed[i]);
      sum_us += op_us[i];
      by_class[w.timed[i].cls].push_back(op_us[i]);
    }
    std::sort(op_us.begin(), op_us.end());
    s.attempted = static_cast<std::int64_t>(w.warmup.size() + ops);
    s.failed = static_cast<std::int64_t>(failed.size());
    s.e2e[kOpP50Us] = quantile(op_us, 0.50);
    s.e2e[kOpP99Us] = quantile(op_us, 0.99);
    s.e2e[kBusbwMBps] = ratio(sum_bus, sum_us);  // B/µs = MB/s
    s.e2e[kSetupS] = t_setup - t0;
    s.e2e[kPeakRssMB] = rss_kb * 1024.0 / 1e6;
    s.core_ns = core_ns;
    for (std::size_t c = 0; c < by_class.size(); ++c) {
      std::sort(by_class[c].begin(), by_class[c].end());
      s.class_p50_us[c] = quantile(by_class[c], 0.50);
    }

    if (traced) {
      double* L = s.layer;
      const double rank_ops =
          static_cast<double>(kRanks) * static_cast<double>(ops);
      const auto per_op = [&](double total) { return ratio(total, rank_ops); };
      const auto port_us = [&](PortCall call) {
        return per_op(all.port_ns[static_cast<std::size_t>(call)]) / 1e3;
      };
      L[kSpawnMs] = (t_enter - t0) * 1e3;
      L[kPostSendUs] = port_us(PortCall::kPostSend);
      L[kPostRecvUs] = port_us(PortCall::kPostRecv);
      L[kWaitUs] = port_us(PortCall::kWait);
      L[kPollUs] = port_us(PortCall::kPoll);
      L[kSends] = per_op(all.sends);
      L[kSendBytes] = per_op(all.send_bytes);
      L[kSegments] = per_op(all.segments);
      L[kExecUs] = per_op(all.plan_wall_us);
      L[kExecSelfUs] = ratio(all.blocking_wall_us * 1e3 - all.blocking_port_ns,
                             all.blocking_ops) / 1e3;
      L[kExecRounds] = per_op(all.plan_rounds);
      L[kCollSelfUs] = per_op(all.op_ns - all.port_total_ns) / 1e3;
      L[kFacadeSelfUs] = ratio(all.blocking_op_ns - all.blocking_wall_us * 1e3,
                               all.blocking_ops) / 1e3;
      L[kMemoHitRatio] =
          ratio(all.tuner_hits, all.tuner_hits + all.tuner_misses);
      L[kCacheHitRatio] =
          ratio(all.cache_hits, all.cache_hits + all.cache_misses);
      L[kEvictionsPerKop] = per_op(all.cache_evictions) * 1e3;
      L[kFusedRatio] = ratio(all.fused_members, all.submitted);
      L[kSerialFallback] = all.serial_fallback / static_cast<double>(kRanks);
      L[kBytesReduced] = per_op(all.bytes_reduced);
      L[kAllocCount] = per_op(all.alloc_count);
      L[kAllocBytes] = per_op(all.alloc_bytes);

      // Trace::metrics over the timed phase alone (its tag-0 rounds
      // renumbered from 0: a schedule may not open with empty rounds).
      mps::Trace timed_trace(kRanks, w.spec->k);
      for (std::int64_t r = 0; r < kRanks; ++r) {
        for (const mps::SendEvent& e : run.trace->sink(r).sends()) {
          if (e.tag == 0 && e.round >= round0) {
            timed_trace.sink(r).record_send(e.round - round0, e.dst,
                                            e.bytes, 0);
          } else if (e.tag > tag0) {
            timed_trace.sink(r).record_send(e.round, e.dst, e.bytes, e.tag);
          }
        }
      }
      const bm::CostMetrics m = timed_trace.metrics();
      L[kTraceC1] = static_cast<double>(m.c1) / static_cast<double>(ops);
      L[kTraceC2Bytes] = static_cast<double>(m.c2) / static_cast<double>(ops);

      L[kPickNs] = time_picks(w);
      L[kLowerUs] = time_lowering(w);
      L[kCombineGBps] = time_combine(w);
      calibrate(w, s);
      class_measures(w, s);
    }
    s.ok = 1;
  } catch (const std::exception& e) {
    std::snprintf(s.error, sizeof(s.error), "%s", e.what());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Self-check

namespace {

struct CheckReport {
  std::uint64_t digest = 0;
  std::int64_t failed = 0;
  std::uint64_t serial_fallback = 0;
  std::uint64_t fused_members = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct CheckRun {
  std::vector<CheckReport> ranks;
  bm::CostMetrics metrics;
  mps::PlanStats plans;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

CheckRun check_run(const Workload& w, mps::FabricBackend fabric,
                   bool wrapped) {
  bc::PlanCache::global().clear();
  bm::clear_tuner_cache();
  mps::SpawnOptions so = spawn_options(w, true);
  so.backend = fabric;
  const mps::SpawnResult run = mps::spawn_local(
      so, [&](mps::Communicator& comm) -> std::vector<std::byte> {
        RankData data(w, comm.rank());
        TimedComm tc(comm);
        mps::Communicator& c =
            wrapped ? static_cast<mps::Communicator&>(tc) : comm;
        CheckReport rep;
        rep.digest = 0xCBF29CE484222325ull;
        int round = 0;
        for (const Op& op : w.timed) {
          data.clear(op);
          round = data.run(c, op, round);
          if (!data.verify(op)) ++rep.failed;
          rep.digest = (rep.digest ^ data.digest(op)) * 0x100000001B3ull;
        }
        const bc::ProgressStats ps = bc::ProgressEngine::for_comm(c).stats();
        const bc::PlanCacheStats cs = bc::PlanCache::global().stats();
        rep.serial_fallback = ps.serial_fallback;
        rep.fused_members = ps.fused_members;
        rep.cache_hits = cs.hits;
        rep.cache_misses = cs.misses;
        std::vector<std::byte> out;
        put(out, &rep, 1);
        return out;
      });
  CheckRun out;
  for (const std::vector<std::byte>& p : run.rank_payloads) {
    std::size_t at = 0;
    out.ranks.push_back(take<CheckReport>(p, at, 1)[0]);
  }
  out.metrics = run.trace->metrics();
  out.plans = run.trace->plan_stats();
  if (fabric == mps::FabricBackend::kThread) {
    // One shared cache: read it once the ranks are done.
    const bc::PlanCacheStats cs = bc::PlanCache::global().stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
  } else {
    for (const CheckReport& r : out.ranks) {
      out.cache_hits += r.cache_hits;
      out.cache_misses += r.cache_misses;
    }
  }
  return out;
}

/// The keys plan_keys resolves for the last ops of `w.timed` must be in the
/// PlanCache the thread fabric just filled by running them: proof that the
/// benchmark's cold-lowering and tuner timings resolve the plans the facade
/// actually runs.  Only the most recent capacity/2 distinct keys are
/// checked, so the check never asks for one the LRU evicted (mixed.thread's
/// 600 allgather sizes overflow it); every op kind must still have a key
/// among them.  Sets `checked` to the number of keys checked.
std::string check_plan_keys(const Workload& w, std::size_t& checked) {
  std::vector<bc::PlanKey> recent;
  std::unordered_set<bc::PlanKey, bc::PlanKeyHash> seen;
  std::set<OpKind> kinds;
  std::set<OpKind> kinds_checked;
  bc::PlanKey keys[2];
  for (auto op = w.timed.rbegin(); op != w.timed.rend(); ++op) {
    kinds.insert(op->kind);
    if (recent.size() >= bc::PlanCache::kDefaultCapacity / 2) continue;
    kinds_checked.insert(op->kind);
    const int n = plan_keys(w, *op, keys);
    for (int i = 0; i < n; ++i) {
      if (seen.insert(keys[i]).second) recent.push_back(keys[i]);
    }
  }
  checked = recent.size();
  if (kinds_checked != kinds) {
    return "only " + std::to_string(kinds_checked.size()) + " of " +
           std::to_string(kinds.size()) + " op kinds have a recent plan key";
  }
  std::size_t missing = 0;
  for (const bc::PlanKey& key : recent) {
    if (!bc::PlanCache::global().get_or_lower(key).cache_hit) ++missing;
  }
  return missing == 0 ? ""
                      : std::to_string(missing) + " of " +
                            std::to_string(recent.size()) +
                            " resolved plan keys were never run";
}

}  // namespace

bool self_check() {
  constexpr std::int64_t ops = 2000;
  bool all_pass = true;
  for (const WorkloadSpec& spec : workload_specs()) {
    const Workload w = make_workload(spec, 1, ops);
    for (const mps::FabricBackend fabric :
         {mps::FabricBackend::kThread, mps::FabricBackend::kShm,
          mps::FabricBackend::kSocket}) {
      std::string why;
      std::size_t keys_checked = 0;
      try {
        const CheckRun plain = check_run(w, fabric, false);
        // Run the key check while the thread fabric's cache is still the
        // unwrapped run's.
        if (fabric == mps::FabricBackend::kThread) {
          why = check_plan_keys(w, keys_checked);
        }
        const CheckRun timed = check_run(w, fabric, true);
        for (std::size_t r = 0; r < plain.ranks.size() && why.empty(); ++r) {
          if (plain.ranks[r].failed != 0 || timed.ranks[r].failed != 0) {
            why = "rank " + std::to_string(r) + " received wrong data";
          } else if (plain.ranks[r].digest != timed.ranks[r].digest) {
            why = "rank " + std::to_string(r) + " payload digests differ";
          } else if (timed.ranks[r].serial_fallback != 0) {
            why = "TimedComm dropped the progress engine to its serial FIFO";
          } else if (timed.ranks[r].fused_members !=
                     plain.ranks[r].fused_members) {
            why = "fusion differs through TimedComm";
          }
        }
        if (why.empty() && (plain.metrics.c1 != timed.metrics.c1 ||
                            plain.metrics.c2 != timed.metrics.c2)) {
          why = "trace C1/C2 differ";
        }
        if (why.empty() && (plain.plans.hits != timed.plans.hits ||
                            plain.plans.misses != timed.plans.misses ||
                            plain.cache_hits != timed.cache_hits ||
                            plain.cache_misses != timed.cache_misses)) {
          why = "PlanCache hit/miss counts differ";
        }
        std::printf(
            "self-check %-13s %-6s %s  ops=%lld C1=%lld C2=%lld "
            "cache=%llu/%llu fused=%llu keys=%zu%s%s\n",
            std::string(spec.name).c_str(), mps::to_string(fabric),
            why.empty() ? "PASS" : "FAIL", static_cast<long long>(ops),
            static_cast<long long>(plain.metrics.c1),
            static_cast<long long>(plain.metrics.c2),
            static_cast<unsigned long long>(plain.cache_hits),
            static_cast<unsigned long long>(plain.cache_misses),
            static_cast<unsigned long long>(plain.ranks[0].fused_members),
            keys_checked, why.empty() ? "" : "  -- ", why.c_str());
      } catch (const std::exception& e) {
        why = e.what();
        std::printf("self-check %-13s %-6s FAIL  -- %s\n",
                    std::string(spec.name).c_str(), mps::to_string(fabric),
                    why.c_str());
      }
      std::fflush(stdout);
      all_pass = all_pass && why.empty();
    }
  }
  return all_pass;
}

}  // namespace bench
