// bench_report: the repository benchmark (see README.md beside this file).
//
//   bench_report [--seed N] [--seconds S] [--out PATH] [--git-sha SHA]
//       every workload: end-to-end metrics, per-layer metrics and model
//       rows; prints `name workload value unit` lines, writes PATH as JSON,
//       exits 1 if any op failed.
//   bench_report --workload W --seed N --seconds S --trace 0|1
//       one workload; the last stdout line is one JSON object with the
//       end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//   bench_report --self-check
//       the first 2000 ops of each workload with and without TimedComm on
//       all three fabrics must agree (payloads, trace C1/C2, PlanCache
//       counts).
//
// Run protocol per workload: one discarded warm-up launch, then timed
// launches (about a second of ops each) until --seconds have passed, each a
// fresh process (this binary re-executes itself with --launch); end-to-end
// metrics are medians over the timed launches, each launch's times first
// scaled to the reference core speed (at_reference_speed in launch.hpp), so
// that drift of the host's clock does not read as a change of the code.
// The measured medians go to the full run's report beside them.  A traced
// launch follows when per-layer metrics are wanted.  Every BRUCK_*
// environment variable is cleared first so no knob changes the picks.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "launch.hpp"
#include "workload.hpp"

extern char** environ;

namespace {

using namespace bench;

/// The traced launch runs this fraction of a timed launch's ops: enough
/// samples for per-op means while the recorded trace stays small.
constexpr std::int64_t kTracedOpsDivisor = 5;
/// Timed launches run until --seconds have passed, but never fewer than
/// this, so the medians have some launches to choose from on a slow host.
constexpr std::size_t kMinTimedLaunches = 3;
/// A launch that has not reported by then is killed and counted as lost.
constexpr int kLaunchTimeoutMs = 30'000;
/// With --workload, no launch starts this long after the program did (its
/// ops count as lost), so one invocation ends well within three minutes.
constexpr double kWorkloadBudgetS = 120.0;

const auto g_start = std::chrono::steady_clock::now();
double g_launch_budget_s = HUGE_VAL;

struct Args {
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  std::string workload;
  int trace = 0;
  bool self_check = false;
  std::string out;
  std::string git_sha = "unknown";
  // --launch (internal): run one launch and write its summary to result_fd.
  std::string launch;
  std::int64_t ops = 0;
  int result_fd = -1;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_report: %s\n"
               "usage: bench_report [--seed N] [--seconds S] [--out PATH]\n"
               "       bench_report --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "       bench_report --self-check\n",
               problem.c_str());
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const char* text,
                       std::int64_t lo, std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    usage("bad value for " + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int(flag, v, 0, INT64_MAX));
    } else if (flag == "--seconds") {
      a.seconds = parse_int(flag, v, 1, 60);
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_int(flag, v, 0, 1));
    } else if (flag == "--ops") {
      a.ops = parse_int(flag, v, 1, INT64_MAX / 2);
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--launch") {
      a.launch = v;
    } else if (flag == "--result-fd") {
      a.result_fd = static_cast<int>(parse_int(flag, v, 0, 1 << 20));
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

/// Unset every BRUCK_* variable; returns the names, sorted.
std::vector<std::string> clear_bruck_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.rfind("BRUCK_", 0) == 0) {
      names.emplace_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Launching

/// Run one launch as a fresh process and return its summary (ok = 0 when
/// the process failed, timed out or reported nothing).  The child leads its
/// own process group, so a stuck launch is killed together with the rank
/// processes it forked; as child subreaper this process then reaps those.
LaunchSummary launch(const WorkloadSpec& spec, std::uint64_t seed,
                     std::int64_t ops, bool traced) {
  LaunchSummary s;
  if (std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start)
          .count() > g_launch_budget_s) {
    std::snprintf(s.error, sizeof(s.error),
                  "%s launch skipped: time budget spent",
                  std::string(spec.name).c_str());
    std::fprintf(stderr, "bench_report: %s\n", s.error);
    return s;
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    std::snprintf(s.error, sizeof(s.error), "pipe() failed");
    return s;
  }
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  const std::string name(spec.name);
  const std::string seed_s = std::to_string(seed);
  const std::string ops_s = std::to_string(ops);
  const std::string fd_s = std::to_string(fds[1]);
  const char* argv[] = {"bench_report", "--launch", name.c_str(),
                        "--seed",       seed_s.c_str(), "--ops",
                        ops_s.c_str(),  "--trace",      traced ? "1" : "0",
                        "--result-fd",  fd_s.c_str(),   nullptr};
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    ::execv("/proc/self/exe", const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    std::snprintf(s.error, sizeof(s.error), "fork() failed");
    return s;
  }
  ::setpgid(pid, pid);

  std::vector<char> got;
  bool timed_out = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kLaunchTimeoutMs);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  ::close(fds[0]);
  if (timed_out) ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // Reap rank processes orphaned by a killed or crashed launch.
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }

  if (!timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
      got.size() == sizeof(LaunchSummary)) {
    std::memcpy(&s, got.data(), sizeof(s));
  } else {
    s = LaunchSummary{};
    std::snprintf(s.error, sizeof(s.error), "%s launch %s",
                  std::string(spec.name).c_str(),
                  timed_out ? "timed out" : "exited abnormally");
  }
  if (s.ok == 0) std::fprintf(stderr, "bench_report: %s\n", s.error);
  return s;
}

int run_launch_child(const Args& a) {
  const WorkloadSpec* spec = find_workload(a.launch);
  if (spec == nullptr || a.result_fd < 0 || a.ops < 1) usage("bad --launch");
  const Workload w = make_workload(*spec, a.seed, a.ops);
  const LaunchSummary s = run_launch(w, a.trace == 1);
  const auto* p = reinterpret_cast<const char*>(&s);
  std::size_t left = sizeof(s);
  while (left > 0) {
    const ssize_t n = ::write(a.result_fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 1;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(a.result_fd);
  return 0;
}

// ---------------------------------------------------------------------------
// One workload, all launches

struct ModelRow {
  std::string cls;
  double measured_p50_us = 0;
  double c1 = 0;
  double c2 = 0;
  double bytes_reduced = 0;
  double predicted_us = 0;
  double rel_err = 0;
};

struct WorkloadResult {
  const WorkloadSpec* spec = nullptr;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool launches_ok = true;
  /// Per timed launch, scaled to the reference core speed.
  std::vector<std::vector<double>> e2e_launches =
      std::vector<std::vector<double>>(kE2ECount);
  double e2e[kE2ECount] = {};      ///< medians of e2e_launches
  double raw_e2e[kE2ECount] = {};  ///< medians of the measured values
  double core_ns = 0;              ///< median core probe of the launches
  double layer[kLayerCount] = {};
  std::vector<ModelRow> model;

  [[nodiscard]] bool correct() const { return launches_ok && failed == 0; }
  [[nodiscard]] double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

WorkloadResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                            std::int64_t seconds, bool traced) {
  WorkloadResult r;
  r.spec = &spec;
  const std::int64_t ops = spec.ops_per_launch;
  const std::int64_t traced_ops =
      std::max<std::int64_t>(1, ops / kTracedOpsDivisor);
  // The launcher's own copy gives the op counts of lost launches and the
  // model classes.
  const Workload w = make_workload(spec, seed, ops);

  const auto account = [&](const LaunchSummary& s, std::int64_t ops) {
    if (s.ok == 0) {
      // Every op of a failed launch counts as attempted and lost.
      const auto lost = static_cast<std::int64_t>(w.warmup.size()) + ops;
      r.attempted += lost;
      r.failed += lost;
      r.launches_ok = false;
      return;
    }
    r.attempted += s.attempted;
    r.failed += s.failed;
  };

  account(launch(spec, seed, ops, false), ops);
  std::vector<LaunchSummary> timed;
  std::vector<std::vector<double>> raw(kE2ECount);
  std::vector<double> core_ns;
  const auto timed_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (timed.size() < kMinTimedLaunches ||
         std::chrono::steady_clock::now() < timed_end) {
    timed.push_back(launch(spec, seed, ops, false));
    const LaunchSummary& s = timed.back();
    account(s, ops);
    if (s.ok == 0) continue;
    for (int m = 0; m < kE2ECount; ++m) {
      const auto i = static_cast<std::size_t>(m);
      r.e2e_launches[i].push_back(at_reference_speed(s, m));
      raw[i].push_back(s.e2e[m]);
    }
    core_ns.push_back(s.core_ns);
  }
  for (int m = 0; m < kE2ECount; ++m) {
    const auto i = static_cast<std::size_t>(m);
    r.e2e[m] = median(r.e2e_launches[i]);
    r.raw_e2e[m] = median(raw[i]);
  }
  r.core_ns = median(core_ns);
  if (!traced) return r;

  const LaunchSummary t = launch(spec, seed, traced_ops, true);
  account(t, traced_ops);
  if (t.ok == 0) return r;
  std::copy(std::begin(t.layer), std::end(t.layer), r.layer);
  r.layer[kTraceOverheadRatio] =
      r.e2e[kOpP50Us] > 0
          ? at_reference_speed(t, kOpP50Us) / r.e2e[kOpP50Us]
          : 0.0;
  r.layer[kCoreNs] = r.core_ns;

  // One model row per op class: the linear model with this fabric's
  // calibrated constants against the measured median.
  const double beta_us = t.layer[kBetaUs];
  const double tau_us_per_byte = t.layer[kTauNsPerB] / 1e3;
  const double gamma_us_per_byte = t.layer[kGammaNsPerB] / 1e3;
  std::vector<double> errors;
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    ModelRow row;
    row.cls = w.classes[c].name;
    std::vector<double> p50s;
    for (const LaunchSummary& s : timed) {
      if (s.ok != 0) p50s.push_back(s.class_p50_us[c]);
    }
    row.measured_p50_us = median(p50s);
    row.c1 = t.class_c1[c];
    row.c2 = t.class_c2[c];
    row.bytes_reduced = t.class_bytes_reduced[c];
    row.predicted_us = beta_us * row.c1 + tau_us_per_byte * row.c2 +
                       gamma_us_per_byte * row.bytes_reduced;
    row.rel_err = row.measured_p50_us > 0
                      ? std::abs(row.predicted_us - row.measured_p50_us) /
                            row.measured_p50_us
                      : 0.0;
    errors.push_back(row.rel_err);
    r.model.push_back(row);
  }
  r.layer[kModelRelErr] = median(errors);
  return r;
}

// ---------------------------------------------------------------------------
// Output

/// Minimal JSON emitter: objects and arrays, newline-indented up to
/// `max_depth` levels so the committed result files diff line by line.
class JsonWriter {
 public:
  explicit JsonWriter(int max_depth = 0) : max_depth_(max_depth) {}

  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    ++depth_;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char bracket) {
    --depth_;
    if (!first_) newline();
    out_ += bracket;
    first_ = false;
    return *this;
  }
  JsonWriter& key(std::string_view k) {
    separate();
    string(k);
    out_ += ": ";
    pending_key_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    separate();
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separate();
    string(v);
    return *this;
  }
  /// {"value": v, "unit": unit}
  JsonWriter& metric(std::string_view name, double v, std::string_view unit) {
    key(name).open('{');
    key("value").value(v);
    key("unit").value(unit);
    return close('}');
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      first_ = false;
      return;
    }
    if (!first_) out_ += ',';
    if (depth_ > 0) newline();
    first_ = false;
  }
  void newline() {
    if (max_depth_ == 0 || depth_ > max_depth_) {
      if (out_.back() == ',') out_ += ' ';
      return;
    }
    out_ += '\n';
    out_.append(static_cast<std::size_t>(2 * depth_), ' ');
  }
  void string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  int depth_ = 0;
  int max_depth_;
  bool first_ = true;
  bool pending_key_ = false;
};

/// The --workload result line: the last line of stdout.
void print_result_line(const WorkloadResult& r, bool traced) {
  JsonWriter j;
  j.open('{');
  j.key("correct").value(r.correct());
  j.key("attempted").value(r.attempted);
  j.key("failed").value(r.failed);
  j.key("metrics").open('{');
  if (traced) {
    for (int m = 0; m < kLayerCount; ++m) {
      j.metric(kLayerMetrics[m].name, r.layer[m], kLayerMetrics[m].unit);
    }
  } else {
    for (int m = 0; m < kE2ECount; ++m) {
      j.metric(kE2EMetrics[m].name, r.e2e[m], kE2EMetrics[m].unit);
    }
  }
  j.close('}').close('}');
  std::printf("%s\n", j.str().c_str());
}

std::string read_first_line_with(const char* path, std::string_view prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      const std::size_t start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

void write_report(const Args& a, const std::vector<std::string>& cleared,
                  const std::vector<WorkloadResult>& results) {
  JsonWriter j(4);
  j.open('{');
  j.key("schema").value(std::string_view("bench_report/1"));
  j.key("seed").value(static_cast<std::int64_t>(a.seed));
  j.key("seconds").value(a.seconds);
  j.key("host").open('{');
  j.key("nproc").value(
      static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  j.key("cpu").value(read_first_line_with("/proc/cpuinfo", "model name"));
  utsname u{};
  ::uname(&u);
  j.key("kernel").value(std::string_view(u.release));
#ifdef __clang__
  j.key("compiler").value(std::string("clang ") + __clang_version__);
#else
  j.key("compiler").value(std::string("gcc ") + __VERSION__);
#endif
  j.key("git_sha").value(a.git_sha);
  j.close('}');
  j.key("settings").open('{');
  j.key("ranks").value(kRanks);
  j.key("tune").value(std::string_view("off"));
  j.key("warmup_launches").value(std::int64_t{1});
  j.key("timed_seconds").value(a.seconds);
  j.key("verify_every").value(static_cast<std::int64_t>(kVerifyEvery));
  j.key("reference_core_ns").value(kReferenceCoreNs);
  j.key("cleared_env").open('[');
  for (const std::string& name : cleared) j.value(name);
  j.close(']');
  j.close('}');

  j.key("workloads").open('{');
  for (const WorkloadResult& r : results) {
    j.key(r.spec->name).open('{');
    j.key("fabric").value(
        std::string_view(bruck::mps::to_string(r.spec->fabric)));
    j.key("k").value(static_cast<std::int64_t>(r.spec->k));
    j.key("ops_per_launch").value(r.spec->ops_per_launch);
    j.key("why").value(r.spec->why);
    j.key("correct").value(r.correct());
    j.key("attempted").value(r.attempted);
    j.key("failed").value(r.failed);
    j.key("op_error_rate").value(r.error_rate());
    j.key("core_ns").value(r.core_ns);
    j.key("end_to_end").open('{');
    for (int m = 0; m < kE2ECount; ++m) {
      j.key(kE2EMetrics[m].name).open('{');
      j.key("median").value(r.e2e[m]);
      j.key("raw_median").value(r.raw_e2e[m]);
      j.key("unit").value(std::string_view(kE2EMetrics[m].unit));
      j.key("launches").open('[');
      for (const double v : r.e2e_launches[static_cast<std::size_t>(m)]) {
        j.value(v);
      }
      j.close(']');
      j.close('}');
    }
    j.close('}');
    j.key("per_layer").open('{');
    for (int m = 0; m < kLayerCount; ++m) {
      j.metric(kLayerMetrics[m].name, r.layer[m], kLayerMetrics[m].unit);
    }
    j.close('}');
    j.key("model_rows").open('[');
    for (const ModelRow& row : r.model) {
      j.open('{');
      j.key("class").value(row.cls);
      j.key("measured_p50_us").value(row.measured_p50_us);
      j.key("C1").value(row.c1);
      j.key("C2_bytes").value(row.c2);
      j.key("bytes_reduced").value(row.bytes_reduced);
      j.key("predicted_us").value(row.predicted_us);
      j.key("rel_err").value(row.rel_err);
      j.close('}');
    }
    j.close(']');
    j.close('}');
  }
  j.close('}');
  j.close('}');

  std::ofstream out(a.out);
  out << j.str() << '\n';
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", a.out.c_str());
  }
}

void print_lines(const WorkloadResult& r) {
  const std::string w(r.spec->name);
  for (int m = 0; m < kE2ECount; ++m) {
    std::printf("%s %s %.6g %s\n", kE2EMetrics[m].name, w.c_str(), r.e2e[m],
                kE2EMetrics[m].unit);
    std::printf("%s.raw %s %.6g %s\n", kE2EMetrics[m].name, w.c_str(),
                r.raw_e2e[m], kE2EMetrics[m].unit);
  }
  std::printf("op_error_rate %s %.6g fraction\n", w.c_str(), r.error_rate());
  for (int m = 0; m < kLayerCount; ++m) {
    std::printf("%s %s %.6g %s\n", kLayerMetrics[m].name, w.c_str(),
                r.layer[m], kLayerMetrics[m].unit);
  }
  for (const ModelRow& row : r.model) {
    std::printf("model.row %s %s measured=%.4gus C1=%.4g C2=%.6gB "
                "reduced=%.6gB predicted=%.4gus rel_err=%.3g\n",
                w.c_str(), row.cls.c_str(), row.measured_p50_us, row.c1,
                row.c2, row.bytes_reduced, row.predicted_us, row.rel_err);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (!a.launch.empty()) return run_launch_child(a);

  const std::vector<std::string> cleared = clear_bruck_env();
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  if (a.self_check) return self_check() ? 0 : 1;

  if (!a.workload.empty()) {
    const WorkloadSpec* spec = find_workload(a.workload);
    if (spec == nullptr) usage("unknown workload " + a.workload);
    g_launch_budget_s = kWorkloadBudgetS;
    for (const std::string& name : cleared) {
      std::fprintf(stderr, "bench_report: cleared %s\n", name.c_str());
    }
    const WorkloadResult r =
        run_workload(*spec, a.seed, a.seconds, a.trace == 1);
    print_result_line(r, a.trace == 1);
    return 0;
  }

  if (a.out.empty()) usage("--out is required for a full run");
  std::vector<WorkloadResult> results;
  bool all_correct = true;
  for (const WorkloadSpec& spec : workload_specs()) {
    const auto t0 = std::chrono::steady_clock::now();
    results.push_back(run_workload(spec, a.seed, a.seconds, true));
    print_lines(results.back());
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr, "bench_report: %s took %.1f s\n",
                 std::string(spec.name).c_str(), took.count());
    all_correct = all_correct && results.back().correct();
  }
  write_report(a, cleared, results);
  return all_correct ? 0 : 1;
}
