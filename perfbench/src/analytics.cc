// `analytics`: one client runs a fixed list of named queries over a
// 1M-row fact table in whole rounds. Each round runs the eleven shapes
// and a cursor export in memory, then three of the shapes again under a
// per-query memory budget small enough that their breakers spill.
// Morsel-parallel operator and kernel work dominates; compile time is
// negligible (plans are cached).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/common/rng.h"
#include "src/exec/memory_budget.h"
#include "src/exec/result_cursor.h"
#include "src/runtime/session.h"
#include "src/tensor/dtype.h"

namespace perfbench {
namespace {

using checks::Group;
using checks::Groups;

constexpr int64_t kFactRows = 1'000'000;
constexpr int64_t kDimRows = 10'000;
constexpr int64_t kGroups = 1000;
constexpr int64_t kCats = 6;
constexpr int64_t kRegions = 8;
/// Small enough that the sort, the join build and the 1000-group
/// aggregate all take their spill paths.
constexpr int64_t kBudgetBytes = 1 << 20;
constexpr int kSetupRepeats = 15;
const int64_t kInList[16] = {3,   41,  97,  150, 222, 287, 333, 404,
                             478, 512, 599, 640, 711, 808, 876, 955};

/// The generated inputs, kept by the benchmark so every result can be
/// recomputed with plain loops.
struct Data {
  std::vector<int64_t> g, v, d, cat;  // fact columns (id is the row index)
  std::vector<double> f;
  std::vector<int64_t> dim_region, dim_w;  // indexed by d
};

std::string Cat(int64_t c) { return "c" + std::to_string(c); }
std::string Region(int64_t r) { return "r" + std::to_string(r); }

Data Generate(uint64_t seed) {
  tdp::Rng rng(seed);
  Data data;
  const auto n = static_cast<size_t>(kFactRows);
  data.g.resize(n);
  data.v.resize(n);
  data.d.resize(n);
  data.cat.resize(n);
  data.f.resize(n);
  std::iota(data.v.begin(), data.v.end(), 0);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(data.v[i], data.v[rng.NextUint64(i + 1)]);
  }
  for (size_t i = 0; i < n; ++i) {
    data.g[i] = static_cast<int64_t>(rng.NextUint64(kGroups));
    data.d[i] = static_cast<int64_t>(rng.NextUint64(kDimRows));
    data.cat[i] = static_cast<int64_t>(rng.NextUint64(kCats));
    data.f[i] = rng.Uniform(0, 100);
  }
  for (int64_t i = 0; i < kDimRows; ++i) {
    data.dim_region.push_back(static_cast<int64_t>(rng.NextUint64(kRegions)));
    data.dim_w.push_back(static_cast<int64_t>(rng.NextUint64(100)));
  }
  return data;
}

std::unique_ptr<tdp::Session> Register(const Data& data) {
  auto session = std::make_unique<tdp::Session>();
  std::vector<int64_t> ids(static_cast<size_t>(kFactRows));
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<std::string> cats;
  for (int64_t c = 0; c < kCats; ++c) cats.push_back(Cat(c));
  auto fact =
      tdp::TableBuilder("fact")
          .AddInt64("id", ids)
          .AddInt64("g", data.g)
          .AddColumn("cat", tdp::Column::Dictionary(
                                tdp::Tensor::FromVector(data.cat), cats))
          .AddInt64("v", data.v)
          .AddFloat64("f", data.f)
          .AddInt64("d", data.d)
          .Build();
  std::vector<int64_t> dim_ids(static_cast<size_t>(kDimRows));
  std::iota(dim_ids.begin(), dim_ids.end(), 0);
  std::vector<std::string> regions;
  for (int64_t r = 0; r < kRegions; ++r) regions.push_back(Region(r));
  auto dim = tdp::TableBuilder("dim")
                 .AddInt64("d", dim_ids)
                 .AddColumn("region",
                            tdp::Column::Dictionary(
                                tdp::Tensor::FromVector(data.dim_region),
                                regions))
                 .AddInt64("w", data.dim_w)
                 .Build();
  TDP_CHECK(fact.ok() && dim.ok());
  TDP_CHECK(session->RegisterTable("fact", fact.value()).ok());
  TDP_CHECK(session->RegisterTable("dim", dim.value()).ok());
  return session;
}

/// One named query: its SQL, the fact columns it reads (for bytes_in),
/// and whether it also runs under the memory budget.
struct Shape {
  std::string name;
  std::string sql;
  std::vector<std::string> columns;
  bool budgeted = false;
};

std::string InList() {
  std::string list;
  for (int64_t x : kInList) {
    list += (list.empty() ? "" : ", ") + std::to_string(x);
  }
  return list;
}

const std::vector<Shape>& Shapes() {
  static const auto* shapes = new std::vector<Shape>{
      {"groupby_high", "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g",
       {"g", "v"}, true},
      {"groupby_low", "SELECT cat, COUNT(*), SUM(f) FROM fact GROUP BY cat",
       {"cat", "f"}, false},
      {"distinct", "SELECT DISTINCT d FROM fact", {"d"}, false},
      {"count_distinct",
       "SELECT COUNT(DISTINCT d) FROM fact WHERE v < " +
           std::to_string(kFactRows / 4),
       {"d", "v"}, false},
      {"topk", "SELECT id, v FROM fact ORDER BY v DESC LIMIT 10", {"id", "v"},
       true},
      {"sort_limit",
       "SELECT id, g, v FROM fact WHERE cat = 'c2' ORDER BY g, v DESC LIMIT "
       "100",
       {"id", "g", "v", "cat"}, false},
      {"join_agg",
       "SELECT dim.region, COUNT(*), SUM(fact.v) FROM fact JOIN dim ON "
       "fact.d = dim.d WHERE dim.w < 50 GROUP BY dim.region",
       {"d", "v"}, true},
      {"filter_and",
       "SELECT COUNT(*), SUM(v) FROM fact WHERE g < 300 AND f > 50.0",
       {"g", "f", "v"}, false},
      {"filter_or",
       "SELECT COUNT(*), SUM(v) FROM fact WHERE g < 100 OR cat = 'c5'",
       {"g", "cat", "v"}, false},
      {"filter_in",
       "SELECT COUNT(*), SUM(v) FROM fact WHERE g IN (" + InList() + ")",
       {"g", "v"}, false},
      {"case_sum",
       "SELECT COUNT(*), SUM(CASE WHEN f > 50.0 THEN v ELSE 0 END) FROM fact",
       {"f", "v"}, false},
  };
  return *shapes;
}

using ShapeCheck = std::function<std::string(const tdp::Table&)>;

Groups GroupsOf(const tdp::Table& t, bool string_key) {
  Groups out;
  const std::vector<int64_t> counts = IntColumn(t, 1);
  const std::vector<double> sums = NumColumn(t, 2);
  std::vector<std::string> keys;
  if (string_key) {
    keys = StringColumn(t, 0);
  } else {
    for (int64_t k : IntColumn(t, 0)) keys.push_back(std::to_string(k));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Group& group = out[keys[i]];
    group.count += counts[i];
    group.sum += sums[i];
  }
  return out;
}

/// Each shape's check against the reference computed with plain loops
/// over the generated arrays.
std::map<std::string, ShapeCheck> MakeChecks(const Data& data) {
  const size_t n = data.v.size();
  std::map<std::string, ShapeCheck> out;
  auto count_sum = [&](auto keep) -> ShapeCheck {
    int64_t count = 0, sum = 0;
    for (size_t i = 0; i < n; ++i) {
      if (keep(i)) {
        ++count;
        sum += data.v[i];
      }
    }
    return [count, sum](const tdp::Table& t) {
      return checks::CheckCountSum(t, count, sum);
    };
  };
  auto groups = [](Groups want, bool string_key, double tol) -> ShapeCheck {
    return [want = std::move(want), string_key, tol](const tdp::Table& t) {
      return checks::CompareGroups(want, GroupsOf(t, string_key), tol);
    };
  };
  auto ids = [](std::vector<int64_t> want, const char* what) -> ShapeCheck {
    return [want = std::move(want), what](const tdp::Table& t) {
      return checks::CompareInts(want, IntColumn(t, 0), what);
    };
  };

  Groups high, low, join;
  std::set<int64_t> distinct, distinct_low_v;
  std::vector<int64_t> row_of(n), cat2;
  for (size_t i = 0; i < n; ++i) {
    Group& h = high[std::to_string(data.g[i])];
    ++h.count;
    h.sum += static_cast<double>(data.v[i]);
    Group& l = low[Cat(data.cat[i])];
    ++l.count;
    l.sum += data.f[i];
    distinct.insert(data.d[i]);
    if (data.v[i] < kFactRows / 4) distinct_low_v.insert(data.d[i]);
    row_of[static_cast<size_t>(data.v[i])] = static_cast<int64_t>(i);
    if (data.cat[i] == 2) cat2.push_back(static_cast<int64_t>(i));
    const auto d = static_cast<size_t>(data.d[i]);
    if (data.dim_w[d] < 50) {
      Group& j = join[Region(data.dim_region[d])];
      ++j.count;
      j.sum += static_cast<double>(data.v[i]);
    }
  }
  out["groupby_high"] = groups(high, false, 0);
  out["groupby_low"] = groups(low, true, checks::kFloatSumRelTol);
  out["join_agg"] = groups(join, true, 0);
  out["distinct"] = [want = std::vector<int64_t>(distinct.begin(),
                                                   distinct.end())](
                           const tdp::Table& t) {
    std::vector<int64_t> got = IntColumn(t, 0);
    std::sort(got.begin(), got.end());
    return checks::CompareInts(want, got, "DISTINCT d");
  };
  out["count_distinct"] =
      ids({static_cast<int64_t>(distinct_low_v.size())}, "COUNT(DISTINCT d)");
  // v is a permutation of 0..n-1: the top ten hold n-1 down to n-10.
  std::vector<int64_t> top;
  for (size_t r = 0; r < 10; ++r) top.push_back(row_of[n - 1 - r]);
  out["topk"] = ids(top, "top-10 ids");
  const auto before = [&](int64_t a, int64_t b) {
    const auto x = static_cast<size_t>(a), y = static_cast<size_t>(b);
    if (data.g[x] != data.g[y]) return data.g[x] < data.g[y];
    return data.v[x] > data.v[y];
  };
  const size_t keep = std::min<size_t>(100, cat2.size());
  std::partial_sort(cat2.begin(), cat2.begin() + keep, cat2.end(), before);
  cat2.resize(keep);
  out["sort_limit"] = ids(cat2, "sorted ids");
  out["filter_and"] = count_sum(
      [&](size_t i) { return data.g[i] < 300 && data.f[i] > 50.0; });
  out["filter_or"] = count_sum(
      [&](size_t i) { return data.g[i] < 100 || data.cat[i] == 5; });
  const std::set<int64_t> in(std::begin(kInList), std::end(kInList));
  out["filter_in"] =
      count_sum([&](size_t i) { return in.count(data.g[i]) > 0; });
  int64_t case_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    if (data.f[i] > 50.0) case_sum += data.v[i];
  }
  out["case_sum"] = [count = static_cast<int64_t>(n),
                        case_sum](const tdp::Table& t) {
    return checks::CheckCountSum(t, count, case_sum);
  };
  return out;
}

constexpr const char* kExportSql = "SELECT id, v FROM fact WHERE g < 50";

struct ExportReference {
  int64_t rows = 0, id_sum = 0, v_sum = 0;
};

ExportReference MakeExportReference(const Data& data) {
  ExportReference ref;
  for (size_t i = 0; i < data.g.size(); ++i) {
    if (data.g[i] < 50) {
      ++ref.rows;
      ref.id_sum += static_cast<int64_t>(i);
      ref.v_sum += data.v[i];
    }
  }
  return ref;
}

/// Fact bytes a shape reads: rows times the width of each column read.
double BytesIn(const tdp::Session& session, const std::vector<std::string>& cols) {
  auto fact = session.catalog().GetTable("fact");
  TDP_CHECK(fact.ok());
  double bytes = 0;
  for (const std::string& name : cols) {
    const tdp::Column& c = (*fact)->column((*fact)->ColumnIndex(name).value());
    bytes += static_cast<double>(c.data().numel() *
                                 tdp::DTypeSize(c.data().dtype()));
  }
  return bytes;
}

struct Measured {
  int64_t ops = 0;
  double round_rows = 0;             // fact rows one round's in-memory
                                     // queries scan
  std::vector<double> rounds_s;      // their time, per round
  std::vector<double> latencies_ms;  // unbudgeted shapes and export
  std::map<std::string, std::vector<double>> shape_ms;  // the same, by shape
  std::vector<double> budgeted_ms;
  /// Fact rows per second over the median round: a stall of the machine
  /// in one round stays out of the figure.
  double rate() const { return round_rows / Median(rounds_s); }
};

class Analytics {
 public:
  Analytics(const RunConfig& config, CheckLog& log) : config_(config), log_(log) {}

  Outcome Run() {
    Outcome outcome;
    std::unique_ptr<Data> data;
    const double setup_s =
        MedianSetupSeconds(config_.trace ? 1 : kSetupRepeats, [&] {
          session_.reset();
          data = std::make_unique<Data>(Generate(config_.seed));
          session_ = Register(*data);
          for (const std::string& sql : AllSql()) {
            TDP_CHECK(session_->Prepare(sql).ok()) << sql;
          }
        });
    // References are the benchmark's own computation, outside any timing.
    checks_ = MakeChecks(*data);
    export_ref_ = MakeExportReference(*data);
    data.reset();

    if (!config_.trace) {
      const Measured m = Measure(config_.seconds);
      outcome.attempted = m.ops;
      outcome.e2e = EndToEnd(m, setup_s);
      return outcome;
    }
    const TracedSlices slices =
        MeasureAlternating(config_.seconds, [&](double s) {
          const Measured m = Measure(s);
          return Slice{m.ops, 0, m.rate()};
        });
    outcome.attempted = slices.ops;
    outcome.layer = Layers(slices.untraced_rate, slices.traced_rate);
    return outcome;
  }

 private:
  static std::vector<std::string> AllSql() {
    std::vector<std::string> sql = {kExportSql};
    for (const Shape& s : Shapes()) sql.push_back(s.sql);
    return sql;
  }

  std::shared_ptr<tdp::Table> RunShape(const Shape& shape, bool budgeted) {
    const std::string label = budgeted ? shape.name + "@budget" : shape.name;
    trace::Span request("client.query", label);
    std::shared_ptr<tdp::exec::CompiledQuery> query;
    {
      trace::Span span("runtime.prepare", label);
      auto prepared = session_->Prepare(shape.sql);
      TDP_CHECK(prepared.ok()) << prepared.status().ToString();
      query = *prepared;
    }
    tdp::exec::RunOptions run;
    if (budgeted) run.memory_budget_bytes = kBudgetBytes;
    trace::Span span("exec.run", label);
    auto result = query->Run(run);
    TDP_CHECK(result.ok()) << shape.name << ": " << result.status().ToString();
    return *result;
  }

  /// Drains the export cursor; returns (first chunk ms, total ms).
  std::pair<double, double> RunExport() {
    const auto start = Clock::now();
    double first_ms = 0;
    int64_t rows = 0, id_sum = 0, v_sum = 0;
    std::vector<tdp::exec::Chunk> chunks;
    {
      trace::Span request("client.query", "export");
      std::unique_ptr<tdp::exec::ResultCursor> cursor;
      {
        trace::Span span("exec.cursor_open", "export");
        auto opened = session_->Execute(kExportSql);
        TDP_CHECK(opened.ok()) << opened.status().ToString();
        cursor = std::move(*opened);
      }
      while (true) {
        trace::Span span("exec.cursor_next", "export");
        auto next = cursor->Next();
        TDP_CHECK(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        if (chunks.empty()) first_ms = MicrosSince(start) / 1e3;
        chunks.push_back(std::move(**next));
      }
    }
    const double total_ms = MicrosSince(start) / 1e3;
    for (const tdp::exec::Chunk& chunk : chunks) {
      const auto ids = chunk.columns[0].DecodeValues().To(tdp::Device::kCpu)
                           .ToVector<int64_t>();
      const auto vs = chunk.columns[1].DecodeValues().To(tdp::Device::kCpu)
                          .ToVector<int64_t>();
      rows += static_cast<int64_t>(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        id_sum += ids[i];
        v_sum += vs[i];
      }
    }
    log_.Expect(checks::CompareInts(
                    {export_ref_.rows, export_ref_.id_sum, export_ref_.v_sum},
                    {rows, id_sum, v_sum}, "rows, SUM(id), SUM(v)"),
                "export");
    return {first_ms, total_ms};
  }

  Measured Measure(double seconds) {
    Measured m;
    const auto start = Clock::now();
    do {
      double round_s = 0, round_rows = 0;
      std::map<std::string, std::shared_ptr<tdp::Table>> unbudgeted;
      for (const Shape& shape : Shapes()) {
        const auto t0 = Clock::now();
        auto result = RunShape(shape, false);
        const double ms = MicrosSince(t0) / 1e3;
        m.latencies_ms.push_back(ms);
        m.shape_ms[shape.name].push_back(ms);
        round_s += ms / 1e3;
        round_rows += static_cast<double>(
            kFactRows + (shape.name == "join_agg" ? kDimRows : 0));
        log_.Expect(checks_.at(shape.name)(*result), shape.name);
        unbudgeted[shape.name] = std::move(result);
      }
      const auto [first_ms, total_ms] = RunExport();
      export_first_ms_.push_back(first_ms);
      export_total_ms_.push_back(total_ms);
      m.latencies_ms.push_back(total_ms);
      m.shape_ms["export"].push_back(total_ms);
      m.rounds_s.push_back(round_s + total_ms / 1e3);
      m.round_rows = round_rows + static_cast<double>(kFactRows);
      for (const Shape& shape : Shapes()) {
        if (!shape.budgeted) continue;
        const int64_t spilled_before =
            tdp::exec::QueryMemory::TotalBytesSpilled();
        const auto t0 = Clock::now();
        auto result = RunShape(shape, true);
        m.budgeted_ms.push_back(MicrosSince(t0) / 1e3);
        spill_bytes_[shape.name].push_back(static_cast<double>(
            tdp::exec::QueryMemory::TotalBytesSpilled() - spilled_before));
        log_.Expect(checks::CompareTablesBytes(*unbudgeted[shape.name], *result),
                    shape.name + " under budget vs in memory");
        log_.Expect(checks::CheckNoLiveSpillFiles(
                        tdp::exec::QueryMemory::LiveSpillFiles()),
                    shape.name + " under budget");
      }
      m.ops += static_cast<int64_t>(Shapes().size()) + 1 + 3;
    } while (SecondsSince(start) < seconds);
    return m;
  }

  Metrics EndToEnd(const Measured& m, double setup_s) const {
    Metrics e;
    e["setup_s"] = {setup_s, "s"};
    e["throughput_per_s"] = {m.rate(), "1/s"};
    // The median query: each in-memory shape's median latency over the
    // rounds, then the median over the twelve shapes, so every shape counts
    // once whatever its cost (the row rate is dominated by the slow
    // shapes). Pooling single latencies instead put the median on the gap
    // between two shapes' times, and it jumped across it from run to run.
    std::vector<double> shape_medians;
    std::fprintf(stderr, "median ms by shape:");
    for (const auto& [name, ms] : m.shape_ms) {
      shape_medians.push_back(Median(ms));
      std::fprintf(stderr, " %s=%.2f", name.c_str(), shape_medians.back());
    }
    std::fprintf(stderr, "\n");
    e["latency_p50_ms"] = {Median(shape_medians), "ms"};
    // Twelve in-memory queries a round: p90 has seven or more samples
    // beyond it from six rounds on.
    e["latency_tail_ms"] = {Percentile(m.latencies_ms, 0.9), "ms"};
    e["slow_path_ms"] = {Median(m.budgeted_ms), "ms"};
    return e;
  }

  Metrics Layers(double untraced_rate, double traced_rate) const {
    const std::vector<trace::Record> records = trace::Collect();
    Metrics l;
    for (const Shape& shape : Shapes()) {
      l["exec.run_ms." + shape.name] = {
          Median(trace::Durations(records, "exec.run", shape.name)) / 1e3, "ms"};
      l["exec.bytes_in." + shape.name] = {BytesIn(*session_, shape.columns),
                                          "bytes"};
      if (!shape.budgeted) continue;
      l["exec.spill_ms." + shape.name] = {
          Median(trace::Durations(records, "exec.run", shape.name + "@budget")) /
              1e3,
          "ms"};
      l["exec.spill_bytes." + shape.name] = {
          Median(spill_bytes_.at(shape.name)), "bytes"};
    }
    l["exec.run_ms.export"] = {
        Median(trace::Durations(records, "client.query", "export")) / 1e3, "ms"};
    l["exec.bytes_in.export"] = {BytesIn(*session_, {"id", "g", "v"}), "bytes"};
    l["exec.cursor_first_chunk_ms"] = {Median(export_first_ms_), "ms"};
    l["exec.cursor_drain_ms"] = {Median(export_total_ms_), "ms"};

    AddPlanCache(session_->plan_cache_stats(), l);
    int64_t join_hits = 0, join_lookups = 0, scan_hits = 0, scan_lookups = 0;
    for (const std::string& sql : AllSql()) {
      auto query = session_->Prepare(sql);
      TDP_CHECK(query.ok());
      const auto& cache = (*query)->primitive_cache();
      join_hits += cache.join_hits();
      join_lookups += cache.join_hits() + cache.join_misses();
      scan_hits += cache.scan_hits();
      scan_lookups += cache.scan_hits() + cache.scan_misses();
    }
    l["exec.join_cache_hit_ratio"] = {
        join_lookups > 0 ? static_cast<double>(join_hits) / join_lookups : 0,
        "ratio"};
    l["exec.scan_cache_hit_ratio"] = {
        scan_lookups > 0 ? static_cast<double>(scan_hits) / scan_lookups : 0,
        "ratio"};
    AddTraceSummary(records, untraced_rate, traced_rate, l);
    return l;
  }

 private:
  const RunConfig& config_;
  CheckLog& log_;
  std::unique_ptr<tdp::Session> session_;
  std::map<std::string, ShapeCheck> checks_;
  ExportReference export_ref_;
  std::map<std::string, std::vector<double>> spill_bytes_;
  std::vector<double> export_first_ms_, export_total_ms_;
};

}  // namespace

Outcome RunAnalytics(const RunConfig& config, CheckLog& log) {
  return Analytics(config, log).Run();
}

}  // namespace perfbench
