// Shared plumbing of the end-to-end benchmark: run configuration, the
// result every workload returns, timing and percentile helpers, and
// readers that copy engine result columns into plain vectors for the
// output checks.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/common/rng.h"
#include "src/runtime/session.h"
#include "src/storage/table.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Collects output-check failures from any thread. A run with one
/// recorded failure prints `"correct": false` and exits non-zero.
class CheckLog {
 public:
  /// Records `error` when it is non-empty; returns true when it was empty.
  bool Expect(const std::string& error, const std::string& what);
  bool ok() const;
  std::vector<std::string> first_errors() const;

  /// Records an operation that returned an error status. It counts in
  /// `failed`, not against correctness, which speaks of the operations
  /// that succeeded. Returns true when `status` is empty (no failure).
  bool NoteFailure(const std::string& status, const std::string& what);
  std::vector<std::string> first_failures() const;

 private:
  mutable std::mutex mu_;
  int64_t failures_ = 0;
  std::vector<std::string> first_;
  std::vector<std::string> first_failed_ops_;
};

/// What a workload hands back to main. `e2e` holds the end-to-end metrics
/// of an untraced run; `layer` the per-layer metrics of a traced run.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics e2e;
  Metrics layer;
};

Outcome RunServe(const RunConfig& config, CheckLog& log);
Outcome RunAnalytics(const RunConfig& config, CheckLog& log);
Outcome RunMl(const RunConfig& config, CheckLog& log);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile (`q` in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Median set-up seconds over `repeats` calls of `setup`; the last call's
/// state is the one the workload keeps.
template <typename SetupFn>
double MedianSetupSeconds(int repeats, SetupFn setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  std::fprintf(stderr, "set-up s:");
  for (double s : seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  return Median(seconds);
}

/// One client round: `counts[k]` requests of kind k in a seeded random
/// order. Clients run whole rounds, so every run's mix is exact.
std::vector<int> ShuffledRound(const std::vector<int>& counts, tdp::Rng& rng);

/// What one measured stretch of a workload did: operations attempted and
/// failed, and the workload's headline rate.
struct Slice {
  int64_t ops = 0, failed = 0;
  double rate = 0;
};

/// Traced runs measure `seconds` in four alternating untraced and traced
/// slices, so drift in the machine's load falls on both sides of the
/// tracing-overhead comparison. Leaves tracing disabled.
struct TracedSlices {
  int64_t ops = 0, failed = 0;
  double untraced_rate = 0, traced_rate = 0;
};
template <typename MeasureFn>
TracedSlices MeasureAlternating(double seconds, MeasureFn measure) {
  TracedSlices out;
  for (int slice = 0; slice < 4; ++slice) {
    const bool traced = slice % 2 == 1;
    trace::SetEnabled(traced);
    const Slice part = measure(seconds / 4);
    out.ops += part.ops;
    out.failed += part.failed;
    (traced ? out.traced_rate : out.untraced_rate) += part.rate / 2;
  }
  trace::SetEnabled(false);
  return out;
}

// ---- Reading result tables ---------------------------------------------

std::vector<int64_t> IntColumn(const tdp::Table& table, int64_t column);
std::vector<double> NumColumn(const tdp::Table& table, int64_t column);
std::vector<std::string> StringColumn(const tdp::Table& table,
                                      int64_t column);

/// Plan-cache hits, lookups and hit ratio into `layer`.
void AddPlanCache(const tdp::PlanCacheStats& stats, Metrics& layer);

/// Per-layer self time and span count of `records`, plus the tracing
/// overhead: how much higher the untraced run's headline rate was than
/// the traced run's, in percent.
void AddTraceSummary(const std::vector<trace::Record>& records,
                     double untraced_rate, double traced_rate,
                     Metrics& layer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
