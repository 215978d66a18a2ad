// End-to-end benchmark driver for the engine's three uses: serving
// (`serve`), analytical SQL (`analytics`) and models inside SQL plus a
// trainable query (`ml`).
//
//   tdp_perfbench --workload serve --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones of an untraced run;
// with --trace 1 they are the per-layer ones the workload's traced run
// measured (only those), and --spans PATH receives every span (one JSON
// object per line). The exit code is non-zero when any output check or
// check self-test fails.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tdp_perfbench --workload serve|analytics|ml --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(bool correct, const Outcome& outcome,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintLayerSummary(const std::vector<trace::Record>& records) {
  std::fprintf(stderr, "%-10s %12s %10s\n", "layer", "self_ms", "spans");
  for (const auto& [layer, time] : trace::SelfTimes(records)) {
    std::fprintf(stderr, "%-10s %12.3f %10lld\n", layer.c_str(), time.self_ms,
                 static_cast<long long>(time.spans));
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string spans_path;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return Usage();
  }

  const int bad_self_tests = checks::RunSelfTests();
  if (bad_self_tests != 0) {
    std::fprintf(stderr, "%d check self-test(s) misbehaved\n", bad_self_tests);
    return 3;
  }

  CheckLog log;
  Outcome outcome;
  if (config.workload == "serve") {
    outcome = RunServe(config, log);
  } else if (config.workload == "analytics") {
    outcome = RunAnalytics(config, log);
  } else if (config.workload == "ml") {
    outcome = RunMl(config, log);
  } else {
    return Usage();
  }

  Metrics metrics;
  if (config.trace) {
    const std::vector<trace::Record> records = trace::Collect();
    PrintLayerSummary(records);
    if (!spans_path.empty() && !trace::WriteJsonl(records, spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
      return 4;
    }
    metrics = outcome.layer;
  } else {
    metrics = outcome.e2e;
    metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
  }

  const bool correct = log.ok();
  for (const std::string& error : log.first_errors()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const std::string& failure : log.first_failures()) {
    std::fprintf(stderr, "operation failed: %s\n", failure.c_str());
  }
  PrintResult(correct, outcome, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
