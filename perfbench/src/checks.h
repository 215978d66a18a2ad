// Output checks: each compares an engine result against a computation
// the benchmark made apart from the engine (plain loops over its own
// generated arrays, or a direct model call), or checks a property the
// result must have. Every check returns "" on success and a description
// of the first mismatch otherwise. `RunSelfTests` feeds each check a
// correct and a deliberately wrong result and verifies that only the
// wrong one is caught. No check compares against a stored copy of an
// earlier run's output.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/storage/table.h"

namespace perfbench {
namespace checks {

/// Relative tolerance for float sums: the engine reduces morsel partials
/// in a different order than a sequential loop.
inline constexpr double kFloatSumRelTol = 1e-9;

struct Group {
  int64_t count = 0;
  double sum = 0;
};
using Groups = std::map<std::string, Group>;

/// Same keys, equal counts, sums equal within `sum_rel_tol` (0: exact).
std::string CompareGroups(const Groups& expected, const Groups& got,
                          double sum_rel_tol);

/// A one-row result of COUNT(*) and an integer SUM against the
/// plain-loop pair. Any other row count fails before a column is read.
std::string CheckCountSum(const tdp::Table& result, int64_t count,
                          int64_t sum);

/// Equal sequences (ids of a top-k or sorted result, in order).
std::string CompareInts(const std::vector<int64_t>& expected,
                        const std::vector<int64_t>& got,
                        const std::string& what);

/// |expected - got| <= rel_tol * max(1, |expected|).
std::string CompareClose(double expected, double got, double rel_tol,
                         const std::string& what);

/// Element-wise |expected - got| <= abs_tol.
std::string CompareFloats(const std::vector<double>& expected,
                          const std::vector<double>& got, double abs_tol,
                          const std::string& what);

/// A read of a ledger whose writer only ever inserts and deletes
/// cancelling pairs must see SUM(v) = 0 over an even row count.
std::string CheckLedgerRead(int64_t count, int64_t sum);

struct LedgerRow {
  int64_t pair = 0;
  int64_t v = 0;
  int64_t n = 0;
  bool operator==(const LedgerRow&) const = default;
};
/// Final ledger (id -> row) against the writer's copy of its acked writes.
std::string CompareLedger(const std::map<int64_t, LedgerRow>& expected,
                          const std::map<int64_t, LedgerRow>& got);

/// Byte-identical tables: same column names, encodings, dictionaries,
/// dtypes, shapes and data bytes.
std::string CompareTablesBytes(const tdp::Table& expected,
                               const tdp::Table& got);

/// No spill file may outlive the run that created it.
std::string CheckNoLiveSpillFiles(int64_t live);

/// `score(id)` gives the exact score of row `id`, or NaN when the row
/// fails the query's predicate. A valid top-k result has k distinct rows
/// that pass the predicate, reported scores equal to the exact ones
/// within `tol`, in descending order.
using ScoreFn = std::function<double(int64_t)>;
std::string CheckTopKValid(const ScoreFn& score, int64_t k,
                           const std::vector<int64_t>& ids,
                           const std::vector<double>& scores, double tol);
/// A valid result that is also the exact top-k: no row scores above the
/// k-th exact score by more than `tol` is missing. `exact_kth` is the
/// brute-force k-th best score.
std::string CheckTopKExact(const ScoreFn& score, int64_t k, double exact_kth,
                           const std::vector<int64_t>& ids,
                           const std::vector<double>& scores, double tol);

/// Training made progress and stayed numerically sound: the mean loss
/// over the last `window` steps is below the mean over the first
/// `window`, and every loss and parameter is finite.
std::string CheckTraining(const std::vector<double>& losses, int64_t window,
                          bool params_finite);

/// Runs every check on a correct and a wrong input; returns the number of
/// checks that passed the wrong input or failed the correct one.
int RunSelfTests();

}  // namespace checks
}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
