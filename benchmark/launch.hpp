// One benchmark launch: one spawn_local of the workload's fabric, run in a
// process of its own (bench_report re-executes itself per launch, so the
// PlanCache, the tuner memos and peak RSS never carry over).
//
// A launch is a set-up phase (the fabric bootstrap plus one verified pass
// over every distinct geometry; its wall time is setup_s) followed by a
// timed phase (the seeded op sequence, closed loop, no think time).  A
// traced launch additionally wraps each rank's communicator in TimedComm,
// records the fabric trace, counts heap allocations, and then times the
// tuner, PlanCache lowering, combine kernels and calibration directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload.hpp"

namespace bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

enum E2E : int {
  kOpP50Us,
  kOpP99Us,
  kBusbwMBps,
  kSetupS,
  kPeakRssMB,
  kE2ECount,
};

inline constexpr MetricDef kE2EMetrics[kE2ECount] = {
    {"op_p50_us", "us"},   {"op_p99_us", "us"},     {"busbw_MBps", "MB/s"},
    {"setup_s", "s"},      {"peak_rss_MB", "MB"},
};

enum Layer : int {
  kSpawnMs,
  kPostSendUs,
  kPostRecvUs,
  kWaitUs,
  kPollUs,
  kSends,
  kSendBytes,
  kSegments,
  kExecUs,
  kExecSelfUs,
  kExecRounds,
  kCollSelfUs,
  kFacadeSelfUs,
  kPickNs,
  kMemoHitRatio,
  kCacheHitRatio,
  kEvictionsPerKop,
  kLowerUs,
  kFusedRatio,
  kSerialFallback,
  kCombineGBps,
  kBytesReduced,
  kAllocCount,
  kAllocBytes,
  kTraceC1,
  kTraceC2Bytes,
  kTraceOverheadRatio,
  kCalibrateMs,
  kBetaUs,
  kTauNsPerB,
  kGammaNsPerB,
  kModelRelErr,
  kCoreNs,
  kLayerCount,
};

inline constexpr MetricDef kLayerMetrics[kLayerCount] = {
    {"mps.bootstrap.spawn_ms", "ms"},
    {"mps.port.post_send_us", "us"},
    {"mps.port.post_recv_us", "us"},
    {"mps.port.wait_us", "us"},
    {"mps.port.poll_us", "us"},
    {"mps.port.sends", "count"},
    {"mps.port.send_bytes", "B"},
    {"mps.port.segments", "count"},
    {"coll.exec.us", "us"},
    {"coll.exec.self_us", "us"},
    {"coll.exec.rounds", "count"},
    {"coll.self_us", "us"},
    {"coll.facade.self_us", "us"},
    {"model.tuner.pick_ns", "ns"},
    {"model.tuner.memo_hit_ratio", "ratio"},
    {"coll.plan_cache.hit_ratio", "ratio"},
    {"coll.plan_cache.evictions_per_kop", "count/kop"},
    {"coll.plan_cache.lower_us", "us"},
    {"coll.progress.fused_ratio", "ratio"},
    {"coll.progress.serial_fallback", "count"},
    {"coll.reduction.combine_GBps", "GB/s"},
    {"coll.reduction.bytes_reduced", "B"},
    {"alloc.count", "count"},
    {"alloc.bytes", "B"},
    {"trace.C1", "count"},
    {"trace.C2_bytes", "B"},
    {"trace.overhead_ratio", "ratio"},
    {"tune.calibrate_ms", "ms"},
    {"model.beta_us", "us"},
    {"model.tau_ns_per_B", "ns/B"},
    {"model.gamma_ns_per_B", "ns/B"},
    {"model.rel_err", "ratio"},
    {"host.core_ns", "ns"},
};

inline constexpr int kMaxClasses = 16;

/// What one launch reports to the launcher (shipped raw over a pipe: both
/// ends are the same binary, so the struct is its own wire format).
/// Per-op layer values are means over timed ops and ranks.
struct LaunchSummary {
  std::int32_t ok = 0;
  std::int64_t attempted = 0;  ///< ops run, set-up pass included
  std::int64_t failed = 0;     ///< ops that failed verification on any rank
  double e2e[kE2ECount] = {};  ///< as measured
  double core_ns = 0;  ///< the ranks' mean core probe (see launch.cpp)
  double class_p50_us[kMaxClasses] = {};
  // Traced launches only.
  double layer[kLayerCount] = {};
  double class_c1[kMaxClasses] = {};
  double class_c2[kMaxClasses] = {};
  double class_bytes_reduced[kMaxClasses] = {};  ///< per rank
  char error[512] = {};
};

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// The core probe reading the end-to-end times are scaled to: about the
/// reference box's reading under the benchmark's load.
inline constexpr double kReferenceCoreNs = 1.5;

/// End-to-end metric `m` of launch `s` scaled to a core probe reading of
/// kReferenceCoreNs: times shrink and bandwidth grows in proportion to how
/// much slower than the reference the host ran during the launch.  Memory
/// is left as measured.
[[nodiscard]] double at_reference_speed(const LaunchSummary& s, int m);

/// Run one launch of `w` in this process (all of w.timed is the timed
/// phase).  Never throws: a failed launch comes back with ok = 0.
[[nodiscard]] LaunchSummary run_launch(const Workload& w, bool traced);

/// Run the first 2000 ops of every workload with and without TimedComm on
/// all three fabrics and compare payloads, trace measures and PlanCache
/// counts.  Prints one line per check; returns true when all pass.
[[nodiscard]] bool self_check();

}  // namespace bench
