#ifndef TDP_EXEC_SPILL_KERNELS_H_
#define TDP_EXEC_SPILL_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/key_codes.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

// Spill-to-disk (out-of-budget) variants of the three breaker kernels.
// Each produces BIT-IDENTICAL results to its in-memory sibling — the spill
// paths re-derive the exact same row permutations, group orderings, and
// floating-point reduction trees; only where the scratch lives changes.
// `ExecuteSort` / `BuildJoinHashTable` / `FinalizeAggregate` dispatch here
// when `ExecContext::memory` reports the in-memory footprint over budget.

// ---- External merge sort ----------------------------------------------------

/// Out-of-budget full ORDER BY (a fused-limit sort never spills: its
/// resident set is the key codes this path keeps too). Splits the input
/// into row-order runs sized to the budget, sorts each run and spills it
/// (sorted key codes + exact column pages), then k-way merges the runs —
/// ties broken by run order, i.e. by original row index, reproducing the
/// in-memory permutation exactly. Output columns are assembled one at a
/// time by scattering spilled pages into place, so peak scratch is one
/// output column + one page instead of keys+permutation+copy of the whole
/// relation. `keys` are the sort's codes over the whole `input`.
StatusOr<Chunk> ExternalSortChunk(const Chunk& input, const SortKeys& keys,
                                  const ExecContext& ctx);

// ---- Grace hash join (spilled build payload) --------------------------------

/// Out-of-budget join build: the build payload is hash-partitioned by key
/// into per-partition spill files; the key -> local-row map of each
/// partition stays resident (keys and indices are the cheap part — the
/// wide payload columns are what spills). A key lands in exactly one
/// partition and partitions preserve build-row order, so probe emission
/// (probe-row-major, ascending build row per probe row) is reproduced
/// exactly by per-partition gathers.
struct SpilledJoinBuild {
  int64_t num_partitions = 0;
  int64_t build_rows = 0;
  /// 0-row zero-copy view of the build input: schema, encodings, and
  /// shared dictionary/domain metadata for assembling probe outputs.
  Chunk prototype;
  std::vector<std::string> files;      // one payload file per partition
  std::vector<int64_t> partition_rows;
  /// Per partition: normalized key -> partition-local build rows,
  /// ascending (local order == global build-row order by construction).
  std::vector<
      std::unordered_map<std::vector<int64_t>, std::vector<int64_t>,
                         RowKeyHash>>
      rows;
};

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const plan::JoinNode& node, const Chunk& build_input,
    const ExecContext& ctx);

/// Probe one morsel against a spilled build: partitions are loaded one at
/// a time and their matched rows scattered into the emission-order output.
StatusOr<Chunk> ProbeSpilledJoin(const plan::JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx);

// ---- Paged two-pass aggregation ---------------------------------------------

/// Out-of-budget GROUP BY: spills the evaluated key/argument columns in
/// 4096-row pages (aligned with the in-memory kernel's accumulation
/// blocks), discovers groups in a first streaming pass (order codes give
/// globally consistent group identity and order), then re-streams the
/// pages accumulating each aggregate — folding block partials in block
/// order exactly when the in-memory kernel would have parallelized, and
/// sequentially otherwise — so the floating-point reduction tree is
/// reproduced operation for operation. Never materializes the whole-
/// relation code/argument/group arrays.
StatusOr<Chunk> SpilledFinalizeAggregate(const plan::AggregateNode& node,
                                         const AggInputs& inputs,
                                         const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_SPILL_KERNELS_H_
