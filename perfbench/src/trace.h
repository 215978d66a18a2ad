// In-memory spans around the benchmark's own calls into each engine layer.
//
// A span records its name (`<layer>.<call>`), an optional label (the
// request kind or query shape), start and end, the span that encloses it
// on the same thread, and the request id current on that thread. Spans
// are buffered per thread and only leave memory when the run ends
// (`WriteJsonl`). While tracing is disabled a `Span` costs one relaxed
// load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

struct Record {
  std::string name;   // "<layer>.<call>", e.g. "server.sql"
  std::string label;  // request kind / query shape; may be empty
  int64_t id = 0;
  int64_t parent = 0;   // 0: no enclosing span on this thread
  int64_t request = 0;  // 0: not part of a client request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

void SetEnabled(bool enabled);
bool Enabled();

/// Sets the request id that spans opened on this thread record.
void SetRequest(int64_t request);
int64_t NextRequestId();

class Span {
 public:
  explicit Span(const char* name, std::string label = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  Record record_;
};

/// Every span recorded so far, across threads. Call only while no thread
/// is recording.
std::vector<Record> Collect();

/// One JSON object per line.
bool WriteJsonl(const std::vector<Record>& records, const std::string& path);

struct LayerTime {
  double self_ms = 0;  // span time not covered by child spans
  int64_t spans = 0;
};
std::map<std::string, LayerTime> SelfTimes(const std::vector<Record>& records);

/// Durations in microseconds of spans named `name` (and labelled `label`,
/// when given).
std::vector<double> Durations(const std::vector<Record>& records,
                              const std::string& name,
                              const std::string& label = {});

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
