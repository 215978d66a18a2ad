// `serve`: multi-tenant serving through `server::Engine`, closed loop.
// Three reader clients spread a seeded request mix over four tenants,
// each with a private 16K-row `events` table and a 64-row `dims` table;
// a fourth client owns a `ledger` table (its own tenant) and cycles
// insert / update / delete while readers aggregate it. The working set is
// a few MB, so admission, plan caches, cold compiles, small-query
// execution and copy-on-write writes are what the clock sees.
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/common/rng.h"
#include "src/plan/optimizer.h"
#include "src/runtime/inference_scheduler.h"
#include "src/server/engine.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"

namespace perfbench {
namespace {

using checks::Group;
using checks::Groups;
using checks::LedgerRow;
using tdp::exec::ScalarValue;

constexpr int kReadTenants = 4;
constexpr int kReaders = 3;
constexpr int64_t kEventRows = 16384;
constexpr int64_t kDims = 64;
constexpr int64_t kTags = 8;
constexpr int64_t kInitialPairs = 256;
constexpr int kSetupRepeats = 31;
constexpr int kReplays = 200;
const char* const kLedgerTenant = "ledger";

enum Kind { kPoint, kMultiget, kAgg, kTopk, kJoin, kLedgerRead, kNumKinds };
const char* const kKindNames[kNumKinds] = {"point", "multiget", "agg",
                                           "topk",  "join",     "ledger_read"};
/// One reader round of 100 requests; point reads on a cached plan
/// dominate.
const std::vector<int> kRound = {60, 10, 8, 8, 7, 7};

const char* const kPointSql = "SELECT v, tag FROM events WHERE k = ?";
const char* const kAggSql =
    "SELECT tag, COUNT(*), SUM(v) FROM events GROUP BY tag";
const char* const kTopkSql = "SELECT k, v FROM events ORDER BY v DESC LIMIT 10";
const char* const kJoinSql =
    "SELECT dims.name, COUNT(*), SUM(events.v) FROM events JOIN dims ON "
    "events.d = dims.d WHERE dims.w < 50 GROUP BY dims.name";
const char* const kLedgerReadSql = "SELECT COUNT(*), SUM(v) FROM ledger";
const char* const kInsertSql =
    "INSERT INTO ledger VALUES (?, ?, ?, ?), (?, ?, ?, ?)";
const char* const kUpdateSql = "UPDATE ledger SET n = n + 1 WHERE id = ?";
const char* const kDeleteSql = "DELETE FROM ledger WHERE pair = ?";

const char* FixedSql(Kind kind) {
  switch (kind) {
    case kPoint: return kPointSql;
    case kAgg: return kAggSql;
    case kTopk: return kTopkSql;
    case kJoin: return kJoinSql;
    case kLedgerRead: return kLedgerReadSql;
    default: return nullptr;
  }
}

std::string TenantName(int t) { return "t" + std::to_string(t); }
std::string Tag(int64_t t) { return "tag" + std::to_string(t); }
std::string DimName(int64_t d) { return "dim" + std::to_string(d % 16); }

/// One read tenant's generated data plus the answers to its fixed
/// queries, computed with plain loops.
struct Tenant {
  std::vector<int64_t> v_by_k, tag_by_k;
  Groups agg, join;
  std::vector<int64_t> topk_keys;
};

Tenant MakeTenant(tdp::Rng& rng, tdp::server::Engine& engine, int t) {
  Tenant tenant;
  const auto n = static_cast<size_t>(kEventRows);
  std::vector<int64_t> k(n), v(n), d(n), tag(n), w(kDims);
  std::iota(k.begin(), k.end(), 0);
  for (size_t i = n - 1; i > 0; --i) std::swap(k[i], k[rng.NextUint64(i + 1)]);
  std::vector<int64_t> order(n);  // distinct values: no ties in the top-k
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextUint64(i + 1)]);
  }
  for (int64_t& x : w) x = static_cast<int64_t>(rng.NextUint64(100));
  tenant.v_by_k.resize(n);
  tenant.tag_by_k.resize(n);
  std::vector<std::string> tag_names;
  for (int64_t x = 0; x < kTags; ++x) tag_names.push_back(Tag(x));
  std::vector<std::pair<int64_t, int64_t>> by_v;
  for (size_t i = 0; i < n; ++i) {
    v[i] = order[i] * 1000 + static_cast<int64_t>(rng.NextUint64(1000));
    tag[i] = static_cast<int64_t>(rng.NextUint64(kTags));
    d[i] = static_cast<int64_t>(rng.NextUint64(kDims));
    const auto key = static_cast<size_t>(k[i]);
    tenant.v_by_k[key] = v[i];
    tenant.tag_by_k[key] = tag[i];
    Group& a = tenant.agg[Tag(tag[i])];
    ++a.count;
    a.sum += static_cast<double>(v[i]);
    if (w[static_cast<size_t>(d[i])] < 50) {
      Group& j = tenant.join[DimName(d[i])];
      ++j.count;
      j.sum += static_cast<double>(v[i]);
    }
    by_v.push_back({v[i], k[i]});
  }
  std::partial_sort(by_v.begin(), by_v.begin() + 10, by_v.end(),
                    std::greater<>());
  for (int r = 0; r < 10; ++r) tenant.topk_keys.push_back(by_v[r].second);

  std::vector<int64_t> dim_ids(kDims);
  std::iota(dim_ids.begin(), dim_ids.end(), 0);
  std::vector<std::string> dim_names;
  for (int64_t x : dim_ids) dim_names.push_back(DimName(x));
  auto events = tdp::TableBuilder("events")
                    .AddInt64("k", k)
                    .AddInt64("v", v)
                    .AddColumn("tag", tdp::Column::Dictionary(
                                          tdp::Tensor::FromVector(tag),
                                          tag_names))
                    .AddInt64("d", d)
                    .Build();
  auto dims = tdp::TableBuilder("dims")
                  .AddInt64("d", dim_ids)
                  .AddStrings("name", dim_names)
                  .AddInt64("w", w)
                  .Build();
  TDP_CHECK(events.ok() && dims.ok());
  tdp::Session& session = engine.tenant(TenantName(t));
  TDP_CHECK(session.RegisterTable("events", *events).ok());
  TDP_CHECK(session.RegisterTable("dims", *dims).ok());
  return tenant;
}

/// The writer's own copy of every acknowledged ledger write.
struct Ledger {
  std::map<int64_t, LedgerRow> rows;
  std::deque<int64_t> live_pairs;
  int64_t next_pair = 0;
};

Ledger MakeLedger(tdp::Rng& rng, tdp::server::Engine& engine) {
  Ledger ledger;
  std::vector<int64_t> id, pair, v, n;
  for (int64_t p = 0; p < kInitialPairs; ++p) {
    const auto x = static_cast<int64_t>(1 + rng.NextUint64(1'000'000));
    for (int64_t side = 0; side < 2; ++side) {
      id.push_back(2 * p + side);
      pair.push_back(p);
      v.push_back(side == 0 ? x : -x);
      n.push_back(0);
      ledger.rows[2 * p + side] = {p, side == 0 ? x : -x, 0};
    }
    ledger.live_pairs.push_back(p);
  }
  ledger.next_pair = kInitialPairs;
  auto table = tdp::TableBuilder("ledger")
                   .AddInt64("id", id)
                   .AddInt64("pair", pair)
                   .AddInt64("v", v)
                   .AddInt64("n", n)
                   .Build();
  TDP_CHECK(table.ok());
  TDP_CHECK(engine.tenant(kLedgerTenant).RegisterTable("ledger", *table).ok());
  return ledger;
}

struct ClientStats {
  int64_t ops = 0, failed = 0;
  double round_s = 0;             // time in engine calls, current round
  std::vector<double> rounds_s;   // the same, per finished round
  std::vector<double> read_ms, multiget_ms;
};

struct Measured {
  int64_t ops = 0, failed = 0;
  /// Requests per second: each client's round size over its median round
  /// time in engine calls, summed over clients. The median keeps a stall
  /// of the machine out of the figure; result checks are not timed.
  double rate = 0;
  std::vector<double> read_ms, multiget_ms;
};

class Serve {
 public:
  Serve(const RunConfig& config, CheckLog& log) : config_(config), log_(log) {}

  Outcome Run() {
    Outcome outcome;
    const double setup_s =
        MedianSetupSeconds(config_.trace ? 1 : kSetupRepeats, [&] { Setup(); });
    if (!config_.trace) {
      const Measured m = Measure(config_.seconds);
      outcome.attempted = m.ops;
      outcome.failed = m.failed;
      outcome.e2e["setup_s"] = {setup_s, "s"};
      outcome.e2e["throughput_per_s"] = {m.rate, "1/s"};
      outcome.e2e["latency_p50_ms"] = {Median(m.read_ms), "ms"};
      // p95: joins and cold IN lists make up its tail; p99 would mostly
      // time the machine's own stalls on a shared host.
      outcome.e2e["latency_tail_ms"] = {Percentile(m.read_ms, 0.95), "ms"};
      outcome.e2e["slow_path_ms"] = {Median(m.multiget_ms), "ms"};
    } else {
      const TracedSlices slices =
          MeasureAlternating(config_.seconds, [&](double s) {
            const Measured m = Measure(s);
            return Slice{m.ops, m.failed, m.rate};
          });
      trace::SetEnabled(true);
      Replay();
      trace::SetEnabled(false);
      outcome.attempted = slices.ops;
      outcome.failed = slices.failed;
      outcome.layer = Layers(slices.untraced_rate, slices.traced_rate);
    }
    CheckFinalLedger();
    return outcome;
  }

 private:
  void Setup() {
    engine_.reset();
    engine_ = std::make_unique<tdp::server::Engine>();
    tdp::Rng rng(config_.seed);
    tenants_.clear();
    for (int t = 0; t < kReadTenants; ++t) {
      tenants_.push_back(MakeTenant(rng, *engine_, t));
    }
    ledger_ = MakeLedger(rng, *engine_);
    // Warm-up: every fixed statement compiled into every plan cache once.
    for (int kind = 0; kind < kNumKinds; ++kind) {
      if (FixedSql(Kind(kind)) == nullptr) continue;
      for (int t = 0; t < kReadTenants; ++t) {
        if (kind == kLedgerRead && t > 0) break;
        tdp::exec::RunOptions run;
        if (kind == kPoint) run.params = {ScalarValue::Int(0)};
        auto result = engine_->Sql(
            {kind == kLedgerRead ? kLedgerTenant : TenantName(t),
             FixedSql(Kind(kind)), {}, run});
        TDP_CHECK(result.ok()) << result.status().ToString();
      }
    }
  }

  /// Issues one read of `kind`; checks its result outside the timing.
  void Read(Kind kind, int t, tdp::Rng& rng, ClientStats& stats) {
    const Tenant& tenant = tenants_[static_cast<size_t>(t)];
    tdp::server::Engine::Request request;
    request.tenant = kind == kLedgerRead ? kLedgerTenant : TenantName(t);
    std::vector<int64_t> keys;
    if (kind == kPoint) {
      keys = {static_cast<int64_t>(rng.NextUint64(kEventRows))};
      request.sql = kPointSql;
      request.run.params = {ScalarValue::Int(keys[0])};
    } else if (kind == kMultiget) {
      // A literal IN list of 8-64 fresh keys: new statement text every
      // time, so every request pays parse, bind, optimize and compile.
      std::set<int64_t> picked;
      const auto count = static_cast<size_t>(8 + rng.NextUint64(57));
      while (picked.size() < count) {
        picked.insert(static_cast<int64_t>(rng.NextUint64(kEventRows)));
      }
      keys.assign(picked.begin(), picked.end());
      std::vector<int64_t> shuffled = keys;
      for (size_t i = shuffled.size() - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[rng.NextUint64(i + 1)]);
      }
      request.sql = "SELECT k, v FROM events WHERE k IN (";
      for (size_t i = 0; i < shuffled.size(); ++i) {
        request.sql += (i ? ", " : "") + std::to_string(shuffled[i]);
      }
      request.sql += ")";
    } else {
      request.sql = FixedSql(kind);
    }

    trace::Span span("client.request", kKindNames[kind]);
    const auto start = Clock::now();
    tdp::StatusOr<std::shared_ptr<tdp::Table>> result =
        std::shared_ptr<tdp::Table>();
    {
      trace::Span sql("server.sql", kKindNames[kind]);
      result = engine_->Sql(request);
    }
    const double ms = MicrosSince(start) / 1e3;
    stats.round_s += ms / 1e3;
    ++stats.ops;
    if (!log_.NoteFailure(result.ok() ? "" : result.status().ToString(),
                     kKindNames[kind])) {
      ++stats.failed;
    } else {
      stats.read_ms.push_back(ms);
      if (kind == kMultiget) stats.multiget_ms.push_back(ms);
      log_.Expect(CheckRead(kind, tenant, keys, **result), kKindNames[kind]);
    }
  }

  static std::string CheckRead(Kind kind, const Tenant& tenant,
                               const std::vector<int64_t>& keys,
                               const tdp::Table& t) {
    switch (kind) {
      case kPoint: {
        const auto k = static_cast<size_t>(keys[0]);
        if (t.num_rows() != 1) return "expected one row";
        if (StringColumn(t, 1)[0] != Tag(tenant.tag_by_k[k])) return "tag";
        return checks::CompareInts({tenant.v_by_k[k]}, IntColumn(t, 0), "v");
      }
      case kMultiget: {
        std::vector<std::pair<int64_t, int64_t>> got;
        const auto ks = IntColumn(t, 0), vs = IntColumn(t, 1);
        for (size_t i = 0; i < ks.size(); ++i) got.push_back({ks[i], vs[i]});
        std::sort(got.begin(), got.end());
        std::vector<int64_t> want_flat, got_flat;
        for (int64_t k : keys) {
          want_flat.push_back(k);
          want_flat.push_back(tenant.v_by_k[static_cast<size_t>(k)]);
        }
        for (const auto& [k, v] : got) {
          got_flat.push_back(k);
          got_flat.push_back(v);
        }
        return checks::CompareInts(want_flat, got_flat, "(k, v) pairs");
      }
      case kAgg:
      case kJoin: {
        Groups got;
        const auto names = StringColumn(t, 0);
        const auto counts = IntColumn(t, 1);
        const auto sums = NumColumn(t, 2);
        for (size_t i = 0; i < names.size(); ++i) {
          got[names[i]] = {counts[i], sums[i]};
        }
        return checks::CompareGroups(kind == kAgg ? tenant.agg : tenant.join,
                                     got, 0);
      }
      case kTopk:
        return checks::CompareInts(tenant.topk_keys, IntColumn(t, 0),
                                   "top-10 keys");
      case kLedgerRead:
        if (t.num_rows() != 1) return "expected one row";
        return checks::CheckLedgerRead(IntColumn(t, 0)[0], IntColumn(t, 1)[0]);
      default:
        return "unknown kind";
    }
  }

  /// One writer statement; updates the writer's copy once acknowledged.
  void Write(tdp::Rng& rng, int step, ClientStats& stats) {
    tdp::server::Engine::Request request;
    request.tenant = kLedgerTenant;
    const char* kind = "insert";
    std::map<int64_t, LedgerRow> inserted;
    int64_t updated = -1, deleted = -1;
    if (step % 3 == 0) {
      const int64_t p = ledger_.next_pair;
      const auto x = static_cast<int64_t>(1 + rng.NextUint64(1'000'000));
      inserted[2 * p] = {p, x, 0};
      inserted[2 * p + 1] = {p, -x, 0};
      request.sql = kInsertSql;
      for (const auto& [id, row] : inserted) {
        for (int64_t value : {id, row.pair, row.v, row.n}) {
          request.run.params.push_back(ScalarValue::Int(value));
        }
      }
    } else if (step % 3 == 1) {
      kind = "update";
      const int64_t p = ledger_.live_pairs[rng.NextUint64(
          ledger_.live_pairs.size())];
      updated = 2 * p + static_cast<int64_t>(rng.NextUint64(2));
      request.sql = kUpdateSql;
      request.run.params = {ScalarValue::Int(updated)};
    } else {
      kind = "delete";
      deleted = ledger_.live_pairs.front();
      request.sql = kDeleteSql;
      request.run.params = {ScalarValue::Int(deleted)};
    }

    trace::Span span("client.request", kind);
    const auto start = Clock::now();
    tdp::StatusOr<std::shared_ptr<tdp::Table>> result =
        std::shared_ptr<tdp::Table>();
    {
      trace::Span dml("storage.dml", kind);
      result = engine_->Sql(request);
    }
    stats.round_s += SecondsSince(start);
    ++stats.ops;
    if (!log_.NoteFailure(result.ok() ? "" : result.status().ToString(), kind)) {
      ++stats.failed;
      return;
    }
    if (!inserted.empty()) {
      ledger_.rows.insert(inserted.begin(), inserted.end());
      ledger_.live_pairs.push_back(ledger_.next_pair++);
    } else if (updated >= 0) {
      ++ledger_.rows[updated].n;
    } else {
      ledger_.rows.erase(2 * deleted);
      ledger_.rows.erase(2 * deleted + 1);
      ledger_.live_pairs.pop_front();
    }
  }

  Measured Measure(double seconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<ClientStats> stats(kReaders + 1);
    const uint64_t phase = ++phase_;
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c <= kReaders; ++c) {
        clients.emplace_back([&, c] {
          tdp::Rng rng(config_.seed * 7919 + phase * 131 + c);
          ClientStats& mine = stats[static_cast<size_t>(c)];
          do {  // whole rounds, at least one
            if (c == kReaders) {
              for (int step = 0; step < 3; ++step) {
                trace::SetRequest(trace::NextRequestId());
                Write(rng, step, mine);
              }
            } else {
              for (int kind : ShuffledRound(kRound, rng)) {
                trace::SetRequest(trace::NextRequestId());
                Read(Kind(kind),
                     static_cast<int>(rng.NextUint64(kReadTenants)), rng, mine);
              }
            }
            mine.rounds_s.push_back(mine.round_s);
            mine.round_s = 0;
          } while (Clock::now() < deadline);
          trace::SetRequest(0);
        });
      }
    }
    Measured m;
    for (ClientStats& s : stats) {
      m.ops += s.ops;
      m.failed += s.failed;
      m.rate += static_cast<double>(s.ops) /
                static_cast<double>(s.rounds_s.size()) / Median(s.rounds_s);
      m.read_ms.insert(m.read_ms.end(), s.read_ms.begin(), s.read_ms.end());
      m.multiget_ms.insert(m.multiget_ms.end(), s.multiget_ms.begin(),
                           s.multiget_ms.end());
    }
    return m;
  }

  /// Single-threaded, traced replays of the layers an engine call hides:
  /// each kind's cached plan run alone, a plan-cache hit, and parse /
  /// bind / optimize / compile of fresh IN lists, step by step.
  void Replay() {
    tdp::Rng rng(config_.seed + 17);
    for (int kind = 0; kind < kNumKinds; ++kind) {
      if (FixedSql(Kind(kind)) == nullptr) continue;
      tdp::Session& session =
          engine_->tenant(kind == kLedgerRead ? kLedgerTenant : TenantName(0));
      for (int i = 0; i < kReplays; ++i) {
        std::shared_ptr<tdp::exec::CompiledQuery> query;
        {
          trace::Span span("runtime.prepare", kKindNames[kind]);
          query = session.Prepare(FixedSql(Kind(kind))).value();
        }
        tdp::exec::RunOptions run;
        if (kind == kPoint) {
          run.params = {ScalarValue::Int(
              static_cast<int64_t>(rng.NextUint64(kEventRows)))};
        }
        trace::Span span("exec.run", kKindNames[kind]);
        TDP_CHECK(query->Run(run).ok());
      }
    }
    tdp::Session& session = engine_->tenant(TenantName(0));
    for (int i = 0; i < kReplays / 2; ++i) {
      std::string sql = "SELECT k, v FROM events WHERE k IN (";
      const int64_t count = 8 + static_cast<int64_t>(rng.NextUint64(57));
      for (int64_t j = 0; j < count; ++j) {
        sql += (j ? ", " : "") + std::to_string(rng.NextUint64(kEventRows));
      }
      sql += ")";
      std::unique_ptr<tdp::sql::Statement> statement;
      {
        trace::Span span("sql.parse", "multiget");
        statement = std::move(tdp::sql::ParseStatement(sql).value());
      }
      const auto snapshot = session.catalog().Snapshot();
      tdp::plan::LogicalNodePtr plan;
      {
        trace::Span span("sql.bind", "multiget");
        tdp::sql::Binder binder(*snapshot, session.functions());
        plan = binder.Bind(*statement).value();
      }
      {
        trace::Span span("plan.optimize", "multiget");
        plan = tdp::plan::Optimize(std::move(plan), snapshot.get());
      }
      // The rest of Session::Query: compiling the optimized plan. The
      // catalog pointer does not own; the session outlives the query.
      std::shared_ptr<tdp::exec::CompiledQuery> query;
      {
        trace::Span span("plan.compile", "multiget");
        query = std::make_shared<tdp::exec::CompiledQuery>(
            std::move(plan),
            std::shared_ptr<tdp::SharedCatalog>(
                std::shared_ptr<tdp::SharedCatalog>(), &session.catalog()),
            tdp::Device::kAccel, /*trainable=*/false,
            &tdp::runtime::InferenceScheduler::Global());
      }
      trace::Span span("exec.run", "multiget");
      TDP_CHECK(query->Run().ok());
    }
  }

  Metrics Layers(double plain_rate, double traced_rate) {
    const std::vector<trace::Record> records = trace::Collect();
    Metrics l;
    auto median_us = [&](const char* name, const std::string& label) {
      return Median(trace::Durations(records, name, label));
    };
    for (int kind = 0; kind < kNumKinds; ++kind) {
      l[std::string("server.sql_us.") + kKindNames[kind]] = {
          median_us("server.sql", kKindNames[kind]), "us"};
      l[std::string("exec.run_us.") + kKindNames[kind]] = {
          median_us("exec.run", kKindNames[kind]), "us"};
    }
    const double parse = median_us("sql.parse", "multiget");
    const double bind = median_us("sql.bind", "multiget");
    const double optimize = median_us("plan.optimize", "multiget");
    l["sql.parse_us"] = {parse, "us"};
    l["sql.bind_us"] = {bind, "us"};
    l["plan.optimize_us"] = {optimize, "us"};
    l["plan.compile_us"] = {median_us("plan.compile", "multiget"), "us"};
    l["runtime.prepare_hit_us"] = {median_us("runtime.prepare", "point"), "us"};

    const tdp::server::EngineStats stats = engine_->stats();
    l["server.admitted"] = {static_cast<double>(stats.admitted), "count"};
    l["server.peak_queue_depth"] = {static_cast<double>(stats.peak_queue_depth),
                                    "count"};
    l["server.shed"] = {static_cast<double>(stats.shed), "count"};

    tdp::PlanCacheStats cache;
    int64_t join_hits = 0, join_lookups = 0, scan_hits = 0, scan_lookups = 0;
    for (int t = 0; t <= kReadTenants; ++t) {
      tdp::Session& session = engine_->tenant(
          t == kReadTenants ? kLedgerTenant : TenantName(t));
      const tdp::PlanCacheStats s = session.plan_cache_stats();
      cache.hits += s.hits;
      cache.misses += s.misses;
      for (int kind = 0; kind < kNumKinds; ++kind) {
        if (FixedSql(Kind(kind)) == nullptr ||
            (kind == kLedgerRead) != (t == kReadTenants)) {
          continue;
        }
        const auto& pc =
            session.Prepare(FixedSql(Kind(kind))).value()->primitive_cache();
        join_hits += pc.join_hits();
        join_lookups += pc.join_hits() + pc.join_misses();
        scan_hits += pc.scan_hits();
        scan_lookups += pc.scan_hits() + pc.scan_misses();
      }
    }
    AddPlanCache(cache, l);
    l["exec.join_cache_hit_ratio"] = {
        join_lookups ? static_cast<double>(join_hits) / join_lookups : 0,
        "ratio"};
    l["exec.scan_cache_hit_ratio"] = {
        scan_lookups ? static_cast<double>(scan_hits) / scan_lookups : 0,
        "ratio"};

    for (const char* kind : {"insert", "update", "delete"}) {
      l[std::string("storage.dml_us.") + kind] = {
          median_us("storage.dml", kind), "us"};
    }
    auto ledger = engine_->tenant(kLedgerTenant).catalog().GetTable("ledger");
    TDP_CHECK(ledger.ok());
    l["storage.physical_per_live_rows"] = {
        static_cast<double>((*ledger)->num_physical_rows()) /
            static_cast<double>((*ledger)->num_rows()),
        "ratio"};
    l["storage.segments"] = {static_cast<double>((*ledger)->num_segments()),
                             "count"};
    AddTraceSummary(records, plain_rate, traced_rate, l);
    return l;
  }

  /// At run end the ledger must equal the writer's copy of its writes.
  void CheckFinalLedger() {
    auto result =
        engine_->Sql({kLedgerTenant, "SELECT id, pair, v, n FROM ledger", {}, {}});
    if (!log_.Expect(result.ok() ? "" : result.status().ToString(),
                     "final ledger")) {
      return;
    }
    std::map<int64_t, LedgerRow> got;
    const auto id = IntColumn(**result, 0), pair = IntColumn(**result, 1),
               v = IntColumn(**result, 2), n = IntColumn(**result, 3);
    for (size_t i = 0; i < id.size(); ++i) got[id[i]] = {pair[i], v[i], n[i]};
    log_.Expect(checks::CompareLedger(ledger_.rows, got), "final ledger");
  }

  const RunConfig& config_;
  CheckLog& log_;
  std::unique_ptr<tdp::server::Engine> engine_;
  std::vector<Tenant> tenants_;
  Ledger ledger_;
  uint64_t phase_ = 0;
};

}  // namespace

Outcome RunServe(const RunConfig& config, CheckLog& log) {
  return Serve(config, log).Run();
}

}  // namespace perfbench
