#include "perfbench/src/common.h"

#include "src/tensor/tensor.h"

namespace perfbench {

bool CheckLog::Expect(const std::string& error, const std::string& what) {
  if (error.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (first_.size() < 8) first_.push_back(what + ": " + error);
  return false;
}

bool CheckLog::NoteFailure(const std::string& status, const std::string& what) {
  if (status.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (first_failed_ops_.size() < 8) first_failed_ops_.push_back(what + ": " + status);
  return false;
}

std::vector<std::string> CheckLog::first_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failed_ops_;
}

bool CheckLog::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

std::vector<std::string> CheckLog::first_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::vector<int> ShuffledRound(const std::vector<int>& counts,
                               tdp::Rng& rng) {
  std::vector<int> round;
  for (size_t kind = 0; kind < counts.size(); ++kind) {
    round.insert(round.end(), static_cast<size_t>(counts[kind]),
                 static_cast<int>(kind));
  }
  for (size_t i = round.size() - 1; i > 0; --i) {
    std::swap(round[i], round[rng.NextUint64(i + 1)]);
  }
  return round;
}

namespace {

tdp::Tensor HostValues(const tdp::Table& table, int64_t column,
                       tdp::DType dtype) {
  return table.column(column).DecodeValues().To(tdp::Device::kCpu).To(dtype);
}

}  // namespace

std::vector<int64_t> IntColumn(const tdp::Table& table, int64_t column) {
  return HostValues(table, column, tdp::DType::kInt64).ToVector<int64_t>();
}

std::vector<double> NumColumn(const tdp::Table& table, int64_t column) {
  return HostValues(table, column, tdp::DType::kFloat64).ToVector<double>();
}

std::vector<std::string> StringColumn(const tdp::Table& table,
                                      int64_t column) {
  return table.column(column).DecodeStrings();
}

void AddPlanCache(const tdp::PlanCacheStats& stats, Metrics& layer) {
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  layer["runtime.plan_cache_hits"] = {static_cast<double>(stats.hits),
                                      "count"};
  layer["runtime.plan_cache_lookups"] = {lookups, "count"};
  layer["runtime.plan_cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0, "ratio"};
}

void AddTraceSummary(const std::vector<trace::Record>& records,
                     double untraced_rate, double traced_rate,
                     Metrics& layer) {
  for (const auto& [name, time] : trace::SelfTimes(records)) {
    layer["self_ms." + name] = {time.self_ms, "ms"};
    layer["spans." + name] = {static_cast<double>(time.spans), "count"};
  }
  layer["trace.overhead_pct"] = {(untraced_rate / traced_rate - 1) * 100, "%"};
}

}  // namespace perfbench
