#include "perfbench/src/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_span{1};
std::atomic<int64_t> g_next_request{1};

/// One buffer per recording thread; owned by the registry so it outlives
/// the thread and can be collected after the workload joins it.
struct ThreadBuffer {
  std::vector<Record> records;
  std::vector<int64_t> open;  // ids of the spans open on this thread
  int64_t request = 0;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::make_unique<ThreadBuffer>());
    return Registry().back().get();
  }();
  return *buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteEscaped(std::FILE* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, out);
  }
}

}  // namespace

void SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetRequest(int64_t request) {
  if (Enabled()) Local().request = request;
}
int64_t NextRequestId() { return g_next_request.fetch_add(1); }

Span::Span(const char* name, std::string label) {
  if (!Enabled()) return;
  active_ = true;
  ThreadBuffer& local = Local();
  record_.name = name;
  record_.label = std::move(label);
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  record_.parent = local.open.empty() ? 0 : local.open.back();
  record_.request = local.request;
  local.open.push_back(record_.id);
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer& local = Local();
  local.open.pop_back();
  local.records.push_back(std::move(record_));
}

std::vector<Record> Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Record> all;
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

bool WriteJsonl(const std::vector<Record>& records, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Record& r : records) {
    std::fprintf(out, "{\"name\":\"");
    WriteEscaped(out, r.name);
    std::fprintf(out, "\",\"label\":\"");
    WriteEscaped(out, r.label);
    std::fprintf(out,
                 "\",\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.request),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, LayerTime> SelfTimes(
    const std::vector<Record>& records) {
  // Children run on their parent's thread and nest inside it, so a
  // parent's covered time is the sum of its direct children's durations.
  std::unordered_map<int64_t, double> child_us;
  for (const Record& r : records) {
    if (r.parent != 0) child_us[r.parent] += r.micros();
  }
  std::map<std::string, LayerTime> layers;
  for (const Record& r : records) {
    LayerTime& layer = layers[r.layer()];
    const auto it = child_us.find(r.id);
    const double covered = it == child_us.end() ? 0 : it->second;
    layer.self_ms += (r.micros() - covered) / 1e3;
    ++layer.spans;
  }
  return layers;
}

std::vector<double> Durations(const std::vector<Record>& records,
                              const std::string& name,
                              const std::string& label) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (r.name == name && (label.empty() || r.label == label)) {
      out.push_back(r.micros());
    }
  }
  return out;
}

}  // namespace trace
}  // namespace perfbench
