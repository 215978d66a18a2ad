#include "perfbench/src/checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>

#include "perfbench/src/common.h"
#include "src/exec/spill.h"
#include "src/tensor/dtype.h"

namespace perfbench {
namespace checks {
namespace {

std::string Describe(const std::string& what, double expected, double got) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": expected " << expected << ", got " << got;
  return out.str();
}

}  // namespace

std::string CompareGroups(const Groups& expected, const Groups& got,
                          double sum_rel_tol) {
  if (expected.size() != got.size()) {
    return Describe("group count", static_cast<double>(expected.size()),
                    static_cast<double>(got.size()));
  }
  for (const auto& [key, want] : expected) {
    const auto it = got.find(key);
    if (it == got.end()) return "group '" + key + "' missing";
    if (it->second.count != want.count) {
      return Describe("COUNT of group '" + key + "'",
                      static_cast<double>(want.count),
                      static_cast<double>(it->second.count));
    }
    std::string error = CompareClose(want.sum, it->second.sum, sum_rel_tol,
                                     "SUM of group '" + key + "'");
    if (!error.empty()) return error;
  }
  return "";
}

std::string CheckCountSum(const tdp::Table& result, int64_t count,
                          int64_t sum) {
  if (result.num_rows() != 1) {
    return Describe("row count", 1, static_cast<double>(result.num_rows()));
  }
  return CompareInts({count, sum}, {IntColumn(result, 0)[0], IntColumn(result, 1)[0]},
                     "COUNT(*), SUM(v)");
}

std::string CompareInts(const std::vector<int64_t>& expected,
                        const std::vector<int64_t>& got,
                        const std::string& what) {
  if (expected.size() != got.size()) {
    return Describe(what + " length", static_cast<double>(expected.size()),
                    static_cast<double>(got.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return Describe(what + " at " + std::to_string(i),
                      static_cast<double>(expected[i]),
                      static_cast<double>(got[i]));
    }
  }
  return "";
}

std::string CompareClose(double expected, double got, double rel_tol,
                         const std::string& what) {
  const double limit = rel_tol * std::max(1.0, std::fabs(expected));
  if (std::isnan(got) || std::fabs(expected - got) > limit) {
    return Describe(what, expected, got);
  }
  return "";
}

std::string CompareFloats(const std::vector<double>& expected,
                          const std::vector<double>& got, double abs_tol,
                          const std::string& what) {
  if (expected.size() != got.size()) {
    return Describe(what + " length", static_cast<double>(expected.size()),
                    static_cast<double>(got.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!(std::fabs(expected[i] - got[i]) <= abs_tol)) {
      return Describe(what + " at " + std::to_string(i), expected[i], got[i]);
    }
  }
  return "";
}

std::string CheckLedgerRead(int64_t count, int64_t sum) {
  if (sum != 0) return Describe("ledger SUM(v)", 0, static_cast<double>(sum));
  if (count % 2 != 0) {
    return Describe("ledger COUNT(*) parity", 0, static_cast<double>(count));
  }
  return "";
}

std::string CompareLedger(const std::map<int64_t, LedgerRow>& expected,
                          const std::map<int64_t, LedgerRow>& got) {
  if (expected.size() != got.size()) {
    return Describe("ledger rows", static_cast<double>(expected.size()),
                    static_cast<double>(got.size()));
  }
  for (const auto& [id, row] : expected) {
    const auto it = got.find(id);
    if (it == got.end()) return "ledger row " + std::to_string(id) + " missing";
    if (!(it->second == row)) {
      return "ledger row " + std::to_string(id) + " differs from the writer's";
    }
  }
  return "";
}

std::string CompareTablesBytes(const tdp::Table& expected,
                               const tdp::Table& got) {
  if (expected.column_names() != got.column_names()) return "column names";
  if (expected.num_rows() != got.num_rows()) {
    return Describe("rows", static_cast<double>(expected.num_rows()),
                    static_cast<double>(got.num_rows()));
  }
  for (int64_t c = 0; c < expected.num_columns(); ++c) {
    const tdp::Column& a = expected.column(c);
    const tdp::Column& b = got.column(c);
    const std::string name = expected.column_names()[static_cast<size_t>(c)];
    if (a.encoding() != b.encoding() || a.dictionary() != b.dictionary() ||
        a.domain() != b.domain()) {
      return "column " + name + " encoding";
    }
    const tdp::Tensor x = a.data().To(tdp::Device::kCpu).Contiguous();
    const tdp::Tensor y = b.data().To(tdp::Device::kCpu).Contiguous();
    if (x.dtype() != y.dtype() || x.shape() != y.shape()) {
      return "column " + name + " dtype or shape";
    }
    const size_t bytes = static_cast<size_t>(x.numel()) *
                         static_cast<size_t>(tdp::DTypeSize(x.dtype()));
    if (bytes > 0 && std::memcmp(tdp::exec::TensorRawBytes(x),
                                 tdp::exec::TensorRawBytes(y), bytes) != 0) {
      return "column " + name + " bytes";
    }
  }
  return "";
}

std::string CheckNoLiveSpillFiles(int64_t live) {
  if (live != 0) return Describe("live spill files", 0, static_cast<double>(live));
  return "";
}

std::string CheckTopKValid(const ScoreFn& score, int64_t k,
                           const std::vector<int64_t>& ids,
                           const std::vector<double>& scores, double tol) {
  if (static_cast<int64_t>(ids.size()) != k || scores.size() != ids.size()) {
    return Describe("top-k rows", static_cast<double>(k),
                    static_cast<double>(ids.size()));
  }
  std::set<int64_t> seen;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!seen.insert(ids[i]).second) {
      return "top-k row " + std::to_string(ids[i]) + " repeated";
    }
    const double exact = score(ids[i]);
    if (std::isnan(exact)) {
      return "top-k row " + std::to_string(ids[i]) + " fails the predicate";
    }
    if (!(std::fabs(exact - scores[i]) <= tol)) {
      return Describe("score of row " + std::to_string(ids[i]), exact,
                      scores[i]);
    }
    if (i > 0 && scores[i] > scores[i - 1] + tol) {
      return "top-k scores not descending at " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckTopKExact(const ScoreFn& score, int64_t k, double exact_kth,
                           const std::vector<int64_t>& ids,
                           const std::vector<double>& scores, double tol) {
  std::string error = CheckTopKValid(score, k, ids, scores, tol);
  if (!error.empty()) return error;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (score(ids[i]) < exact_kth - tol) {
      return Describe("row " + std::to_string(ids[i]) +
                          " scores below the exact k-th best",
                      exact_kth, score(ids[i]));
    }
  }
  return "";
}

std::string CheckTraining(const std::vector<double>& losses, int64_t window,
                          bool params_finite) {
  if (!params_finite) return "a parameter became non-finite";
  const int64_t n = static_cast<int64_t>(losses.size());
  if (n < 2 * window) {
    return Describe("training steps", static_cast<double>(2 * window),
                    static_cast<double>(n));
  }
  double first = 0, last = 0;
  for (int64_t i = 0; i < window; ++i) {
    first += losses[static_cast<size_t>(i)];
    last += losses[static_cast<size_t>(n - window + i)];
  }
  for (double loss : losses) {
    if (!std::isfinite(loss)) return "a training loss is non-finite";
  }
  if (!(last < first)) {
    return Describe("mean loss of the last window (first window's shown)",
                    first / static_cast<double>(window),
                    last / static_cast<double>(window));
  }
  return "";
}

// ---- Self-tests ----------------------------------------------------------

namespace {

int g_bad = 0;

void Expect(const char* check, const std::string& on_good,
            const std::string& on_wrong) {
  if (!on_good.empty()) {
    std::fprintf(stderr, "self-test %s: rejected a correct result: %s\n",
                 check, on_good.c_str());
    ++g_bad;
  }
  if (on_wrong.empty()) {
    std::fprintf(stderr, "self-test %s: accepted a wrong result\n", check);
    ++g_bad;
  }
}

std::shared_ptr<tdp::Table> SmallTable(int64_t last) {
  auto table = tdp::TableBuilder("t")
                   .AddInt64("k", {1, 2, last})
                   .AddStrings("s", {"a", "b", "a"})
                   .Build();
  return table.ok() ? table.value() : nullptr;
}

std::shared_ptr<tdp::Table> CountSumTable(std::vector<int64_t> counts,
                                         std::vector<int64_t> sums) {
  auto table = tdp::TableBuilder("t")
                   .AddInt64("count", std::move(counts))
                   .AddInt64("sum", std::move(sums))
                   .Build();
  return table.ok() ? table.value() : nullptr;
}

}  // namespace

int RunSelfTests() {
  g_bad = 0;
  const Groups groups = {{"a", {3, 10}}, {"b", {1, 0.5}}};
  Groups wrong_count = groups;
  wrong_count["a"].count = 4;
  Groups wrong_sum = groups;
  wrong_sum["b"].sum = 0.5 + 1e-6;
  Groups missing = groups;
  missing.erase("b");
  Expect("CompareGroups/count", CompareGroups(groups, groups, 0),
         CompareGroups(groups, wrong_count, 0));
  Expect("CompareGroups/sum", CompareGroups(groups, groups, kFloatSumRelTol),
         CompareGroups(groups, wrong_sum, kFloatSumRelTol));
  Expect("CompareGroups/keys", CompareGroups(groups, groups, 0),
         CompareGroups(groups, missing, 0));

  Expect("CompareInts", CompareInts({5, 3, 9}, {5, 3, 9}, "ids"),
         CompareInts({5, 3, 9}, {5, 9, 3}, "ids"));
  Expect("CompareClose", CompareClose(1e6, 1e6 * (1 + 1e-12), 1e-9, "x"),
         CompareClose(1e6, 1e6 + 1, 1e-9, "x"));
  Expect("CompareFloats", CompareFloats({0.5, 0.25}, {0.5, 0.25}, 1e-6, "s"),
         CompareFloats({0.5, 0.25}, {0.5, 0.2501}, 1e-6, "s"));
  Expect("CheckLedgerRead/sum", CheckLedgerRead(4, 0), CheckLedgerRead(4, 7));
  Expect("CheckLedgerRead/parity", CheckLedgerRead(4, 0),
         CheckLedgerRead(3, 0));

  const std::map<int64_t, LedgerRow> ledger = {{0, {0, 5, 0}}, {1, {0, -5, 2}}};
  auto ledger_wrong = ledger;
  ledger_wrong[1].n = 1;
  Expect("CompareLedger", CompareLedger(ledger, ledger),
         CompareLedger(ledger, ledger_wrong));

  const auto a = SmallTable(3);
  const auto a2 = SmallTable(3);
  const auto b = SmallTable(4);
  if (a == nullptr || b == nullptr) {
    std::fprintf(stderr, "self-test CompareTablesBytes: cannot build tables\n");
    ++g_bad;
  } else {
    Expect("CompareTablesBytes", CompareTablesBytes(*a, *a2),
           CompareTablesBytes(*a, *b));
  }
  const auto count_sum = CountSumTable({4}, {10});
  const auto empty = CountSumTable({}, {});
  if (count_sum == nullptr || empty == nullptr) {
    std::fprintf(stderr, "self-test CheckCountSum: cannot build tables\n");
    ++g_bad;
  } else {
    Expect("CheckCountSum/sum", CheckCountSum(*count_sum, 4, 10),
           CheckCountSum(*count_sum, 4, 11));
    Expect("CheckCountSum/rows", CheckCountSum(*count_sum, 4, 10),
           CheckCountSum(*empty, 4, 10));
  }
  Expect("CheckNoLiveSpillFiles", CheckNoLiveSpillFiles(0),
         CheckNoLiveSpillFiles(2));

  // Rows 0..9 score 9 - id / 10; odd rows fail the predicate.
  const ScoreFn score = [](int64_t id) {
    return id % 2 == 1 ? std::numeric_limits<double>::quiet_NaN()
                       : 9.0 - static_cast<double>(id) / 10;
  };
  const std::vector<int64_t> best = {0, 2, 4};
  const std::vector<double> best_scores = {9.0, 8.8, 8.6};
  Expect("CheckTopKValid/predicate",
         CheckTopKValid(score, 3, best, best_scores, 1e-9),
         CheckTopKValid(score, 3, {0, 1, 4}, best_scores, 1e-9));
  Expect("CheckTopKValid/score",
         CheckTopKValid(score, 3, best, best_scores, 1e-9),
         CheckTopKValid(score, 3, best, {9.0, 8.8, 8.5}, 1e-9));
  Expect("CheckTopKValid/order",
         CheckTopKValid(score, 3, best, best_scores, 1e-9),
         CheckTopKValid(score, 3, {2, 0, 4}, {8.8, 9.0, 8.6}, 1e-9));
  Expect("CheckTopKExact", CheckTopKExact(score, 3, 8.6, best, best_scores, 1e-9),
         CheckTopKExact(score, 3, 8.6, {0, 2, 6}, {9.0, 8.8, 8.4}, 1e-9));

  const std::vector<double> falling = {4, 3, 2, 1};
  Expect("CheckTraining/progress", CheckTraining(falling, 2, true),
         CheckTraining({1, 2, 3, 4}, 2, true));
  Expect("CheckTraining/finite", CheckTraining(falling, 2, true),
         CheckTraining(falling, 2, false));
  return g_bad;
}

}  // namespace checks
}  // namespace perfbench
