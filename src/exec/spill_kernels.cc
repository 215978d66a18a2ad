#include "src/exec/spill_kernels.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/bound_expr.h"
#include "src/exec/memory_budget.h"
#include "src/exec/spill.h"
#include "src/tensor/dtype.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::JoinNode;

EvalOptions EvalOpts(const ExecContext& ctx) {
  EvalOptions opts;
  opts.device = ctx.device;
  opts.params = ctx.params;
  opts.udf_dispatch = ctx.udf_dispatch;
  opts.cancel = ctx.cancel;
  return opts;
}

// Rows-per-run / partition-count sizing against the budget. The spill
// paths must work at ANY positive budget (the differential suite runs
// pathological 1-byte budgets), so sizes are floored rather than failed.
int64_t ClampRows(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(v, hi));
}

// Copies row `i` of contiguous `src` into row `pos[i]` of contiguous
// `dst` for every row of `src`. Exact byte copies — no value re-encoding.
void ScatterRows(Tensor& dst, const Tensor& src, const int64_t* pos) {
  const int64_t src_rows = src.size(0);
  if (src_rows == 0) return;
  const int64_t row_elems = src.numel() / src_rows;
  const int64_t row_bytes = row_elems * DTypeSize(src.dtype());
  const uint8_t* sp = TensorRawBytes(src);
  uint8_t* dp = TensorRawBytesMutable(dst);
  for (int64_t i = 0; i < src_rows; ++i) {
    std::memcpy(dp + pos[i] * row_bytes, sp + i * row_bytes,
                static_cast<size_t>(row_bytes));
  }
}

// Allocates the assembly target for `prototype`'s payload with `rows`
// rows (same dtype, same per-row shape, same device).
Tensor AllocLike(const Tensor& prototype, int64_t rows) {
  std::vector<int64_t> shape = prototype.shape();
  TDP_CHECK(!shape.empty());
  shape[0] = rows;
  return Tensor::Empty(shape, prototype.dtype(), prototype.device());
}

// Wraps an assembled payload tensor in `prototype`'s encoding (dictionary
// strings / PE domain copied from the prototype — same contents, so codes
// stay meaningful and decoded values are bit-identical).
Column WrapLike(const Column& prototype, Tensor payload) {
  switch (prototype.encoding()) {
    case Encoding::kPlain:
      return Column::Plain(std::move(payload));
    case Encoding::kDictionary:
      return Column::Dictionary(std::move(payload), prototype.dictionary());
    case Encoding::kProbability:
      return Column::Probability(std::move(payload), prototype.domain());
  }
  return Column::Plain(std::move(payload));
}

}  // namespace

// ---- External merge sort ----------------------------------------------------

StatusOr<Chunk> ExternalSortChunk(const Chunk& input, const SortKeys& keys,
                                  const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const int64_t rows = input.num_rows();
  const size_t num_keys = keys.codes.size();
  TDP_CHECK(rows > 0 && num_keys > 0);

  // The code arrays are this path's resident working set — 8 bytes/row/key
  // vs the payload+permutation+copy footprint the in-memory sort holds.
  const ScopedReservation code_reservation(
      mem, static_cast<int64_t>(num_keys) * rows * 8);

  const int64_t row_bytes =
      ChunkFootprintBytes(input) / std::max<int64_t>(rows, 1) +
      static_cast<int64_t>(num_keys) * 8 + 16;
  const int64_t run_rows = ClampRows(
      mem->budget_bytes() / 3 / std::max<int64_t>(row_bytes, 1), 1024, rows);
  const int64_t num_runs = (rows + run_rows - 1) / run_rows;
  const int64_t page_rows = std::min<int64_t>(run_rows, 4096);

  // Full-tie comparator over all keys; stability supplies the original-
  // index tiebreak, reproducing the in-memory order exactly.
  const auto row_less = [&keys](int64_t a, int64_t b) {
    return keys.Compare(a, b) < 0;
  };

  // Phase 1: sort + spill each row-order run. Run file layout:
  //   [run_rows][num_pages] then per page:
  //   [page_rows][sorted key codes: num_keys x page_rows]
  //   [num_cols][column][column]...
  std::vector<std::string> run_files(static_cast<size_t>(num_runs));
  for (int64_t r = 0; r < num_runs; ++r) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t lo = r * run_rows;
    const int64_t n = std::min(run_rows, rows - lo);
    std::vector<int64_t> perm(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = lo + i;
    std::stable_sort(perm.begin(), perm.end(), row_less);

    Tensor perm_t = Tensor::FromVector(perm, {}, ctx.device);
    const Chunk run_chunk = input.Select(perm_t);
    const ScopedReservation run_reservation(mem,
                                            ChunkFootprintBytes(run_chunk));

    TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("sortrun"));
    run_files[static_cast<size_t>(r)] = path;
    SpillWriter w(path);
    const int64_t pages = (n + page_rows - 1) / page_rows;
    TDP_RETURN_NOT_OK(w.WriteInt64(n));
    TDP_RETURN_NOT_OK(w.WriteInt64(pages));
    std::vector<int64_t> page_codes;
    for (int64_t p = 0; p < pages; ++p) {
      const int64_t plo = p * page_rows;
      const int64_t pn = std::min(page_rows, n - plo);
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      page_codes.resize(static_cast<size_t>(num_keys) *
                        static_cast<size_t>(pn));
      for (size_t k = 0; k < num_keys; ++k) {
        for (int64_t i = 0; i < pn; ++i) {
          const size_t row = static_cast<size_t>(
              perm[static_cast<size_t>(plo + i)]);
          page_codes[k * static_cast<size_t>(pn) + static_cast<size_t>(i)] =
              keys.codes[k][row];
        }
      }
      TDP_RETURN_NOT_OK(w.WriteInt64Span(page_codes.data(),
                                         page_codes.size()));
      const Chunk page = run_chunk.SliceRows(plo, pn);
      TDP_RETURN_NOT_OK(
          w.WriteInt64(static_cast<int64_t>(page.columns.size())));
      for (const Column& c : page.columns) {
        TDP_RETURN_NOT_OK(w.WriteColumn(c));
      }
    }
    TDP_RETURN_NOT_OK(w.Close());
    mem->AddSpilledBytes(w.bytes_written());
  }

  // Phase 2: codes-only k-way merge. Each pop appends its run to the
  // merge sequence; ties pick the lower run (= smaller original indices,
  // since runs partition rows in order). The per-run output-position
  // lists are the only whole-relation state this phase keeps (~8
  // bytes/row, small next to the materialized output the kernel must
  // return regardless).
  struct RunCursor {
    SpillReader reader;
    int64_t rows_left = 0;
    int64_t pages_left = 0;
    int64_t page_rows = 0;   // rows in the loaded page
    int64_t page_pos = 0;    // cursor within the loaded page
    std::vector<int64_t> page_codes;  // [key][row] flattened
    explicit RunCursor(const std::string& path) : reader(path) {}
  };
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(static_cast<size_t>(num_runs));
  const auto load_page = [&](RunCursor& rc) -> Status {
    TDP_ASSIGN_OR_RETURN(rc.page_rows, rc.reader.ReadInt64());
    rc.page_codes.resize(static_cast<size_t>(num_keys) *
                         static_cast<size_t>(rc.page_rows));
    TDP_RETURN_NOT_OK(rc.reader.ReadInt64Span(rc.page_codes.data(),
                                              rc.page_codes.size()));
    TDP_ASSIGN_OR_RETURN(int64_t cols, rc.reader.ReadInt64());
    for (int64_t c = 0; c < cols; ++c) {
      TDP_RETURN_NOT_OK(rc.reader.SkipColumn());
    }
    rc.page_pos = 0;
    --rc.pages_left;
    return Status::OK();
  };
  for (int64_t r = 0; r < num_runs; ++r) {
    auto rc = std::make_unique<RunCursor>(run_files[static_cast<size_t>(r)]);
    TDP_ASSIGN_OR_RETURN(rc->rows_left, rc->reader.ReadInt64());
    TDP_ASSIGN_OR_RETURN(rc->pages_left, rc->reader.ReadInt64());
    if (rc->rows_left > 0) TDP_RETURN_NOT_OK(load_page(*rc));
    cursors.push_back(std::move(rc));
  }
  const auto head_code = [&](int64_t r, size_t k) {
    const RunCursor& rc = *cursors[static_cast<size_t>(r)];
    return rc.page_codes[k * static_cast<size_t>(rc.page_rows) +
                         static_cast<size_t>(rc.page_pos)];
  };
  // priority_queue comparator: true when `a` merges AFTER `b`.
  const auto merge_after = [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < num_keys; ++k) {
      const int64_t ca = head_code(a, k);
      const int64_t cb = head_code(b, k);
      if (ca != cb) return ca > cb;
    }
    return a > b;  // tie: lower run index first (earlier original rows)
  };
  std::priority_queue<int64_t, std::vector<int64_t>, decltype(merge_after)>
      heap(merge_after);
  for (int64_t r = 0; r < num_runs; ++r) {
    if (cursors[static_cast<size_t>(r)]->rows_left > 0) heap.push(r);
  }
  std::vector<std::vector<int64_t>> out_pos(static_cast<size_t>(num_runs));
  int64_t emitted = 0;
  while (!heap.empty()) {
    const int64_t r = heap.top();
    heap.pop();
    RunCursor& rc = *cursors[static_cast<size_t>(r)];
    out_pos[static_cast<size_t>(r)].push_back(emitted++);
    ++rc.page_pos;
    --rc.rows_left;
    if (rc.rows_left > 0) {
      if (rc.page_pos == rc.page_rows) TDP_RETURN_NOT_OK(load_page(rc));
      heap.push(r);
    }
  }

  // Phase 3: per-column assembly — one pass over each run's pages per
  // column, scattering rows into their merge positions. Peak scratch: one
  // output column + one page.
  Chunk out;
  out.names = input.names;
  for (size_t j = 0; j < input.columns.size(); ++j) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const Column& prototype = input.columns[j];
    Tensor payload = AllocLike(prototype.data(), rows);
    for (int64_t r = 0; r < num_runs; ++r) {
      const std::vector<int64_t>& positions = out_pos[static_cast<size_t>(r)];
      SpillReader reader(run_files[static_cast<size_t>(r)]);
      TDP_ASSIGN_OR_RETURN(int64_t run_total, reader.ReadInt64());
      TDP_ASSIGN_OR_RETURN(int64_t pages, reader.ReadInt64());
      (void)run_total;
      int64_t consumed = 0;
      for (int64_t p = 0; p < pages; ++p) {
        TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
        TDP_RETURN_NOT_OK(reader.Skip(
            static_cast<int64_t>(num_keys) * pn * 8));
        TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
        TDP_CHECK(static_cast<int64_t>(j) < cols);
        for (size_t c = 0; c < j; ++c) {
          TDP_RETURN_NOT_OK(reader.SkipColumn());
        }
        TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
        for (int64_t c = static_cast<int64_t>(j) + 1; c < cols; ++c) {
          TDP_RETURN_NOT_OK(reader.SkipColumn());
        }
        ScatterRows(payload, page_col.data().Contiguous(),
                    positions.data() + consumed);
        consumed += pn;
      }
    }
    out.columns.push_back(WrapLike(prototype, std::move(payload)));
  }
  return out;
}

// ---- Grace hash join --------------------------------------------------------

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const JoinNode& node, const Chunk& build_input, const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  TDP_CHECK(!build_key_cols.empty());
  const int64_t rows = build_input.num_rows();

  TDP_ASSIGN_OR_RETURN(auto keys, JoinRowKeys(build_input, build_key_cols));

  const int64_t footprint = ChunkFootprintBytes(build_input) + rows * 48;
  const int64_t part_budget = std::max<int64_t>(mem->budget_bytes() / 4, 1);
  const int64_t parts = ClampRows(
      (footprint + part_budget - 1) / part_budget, 2, 64);

  auto build = std::make_shared<SpilledJoinBuild>();
  build->num_partitions = parts;
  build->build_rows = rows;
  build->prototype = build_input.SliceRows(0, 0);
  build->files.resize(static_cast<size_t>(parts));
  build->partition_rows.assign(static_cast<size_t>(parts), 0);
  build->rows.resize(static_cast<size_t>(parts));

  // Assign rows to partitions in build-row order: partition-local index
  // order == global build-row order, the property probe emission relies
  // on. A key hashes to exactly one partition.
  std::vector<std::vector<int64_t>> partition_sel(
      static_cast<size_t>(parts));
  const RowKeyHash hasher;
  for (int64_t r = 0; r < rows; ++r) {
    const size_t key_row = static_cast<size_t>(r);
    const size_t p = hasher(keys[key_row]) % static_cast<size_t>(parts);
    const int64_t local = build->partition_rows[p]++;
    build->rows[p][keys[key_row]].push_back(local);
    partition_sel[p].push_back(r);
  }

  // Spill each partition's payload. Partition file layout:
  //   [rows][num_pages] then per page: [page_rows][num_cols][column]...
  constexpr int64_t kJoinPageRows = 4096;
  for (int64_t p = 0; p < parts; ++p) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const std::vector<int64_t>& sel = partition_sel[static_cast<size_t>(p)];
    const int64_t n = static_cast<int64_t>(sel.size());
    Tensor sel_t = Tensor::FromVector(sel, {}, ctx.device);
    const Chunk part = build_input.Select(sel_t);
    const ScopedReservation part_reservation(mem, ChunkFootprintBytes(part));
    TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("joinpart"));
    build->files[static_cast<size_t>(p)] = path;
    SpillWriter w(path);
    const int64_t pages = n == 0 ? 0 : (n + kJoinPageRows - 1) / kJoinPageRows;
    TDP_RETURN_NOT_OK(w.WriteInt64(n));
    TDP_RETURN_NOT_OK(w.WriteInt64(pages));
    for (int64_t pg = 0; pg < pages; ++pg) {
      const int64_t plo = pg * kJoinPageRows;
      const int64_t pn = std::min(kJoinPageRows, n - plo);
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      const Chunk page = part.SliceRows(plo, pn);
      TDP_RETURN_NOT_OK(
          w.WriteInt64(static_cast<int64_t>(page.columns.size())));
      for (const Column& c : page.columns) {
        TDP_RETURN_NOT_OK(w.WriteColumn(c));
      }
    }
    TDP_RETURN_NOT_OK(w.Close());
    mem->AddSpilledBytes(w.bytes_written());
  }
  return build;
}

StatusOr<Chunk> ProbeSpilledJoin(const JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx) {
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;
  TDP_ASSIGN_OR_RETURN(auto probe_keys, JoinRowKeys(probe, probe_key_cols));

  // Emission order (identical to the in-memory probe): probe-row-major,
  // matches of one probe row in ascending build-row order — which is
  // ascending partition-local order, since every match of a key lives in
  // one partition and partitions preserve build-row order.
  std::vector<int64_t> probe_idx;
  std::vector<int32_t> match_part;
  std::vector<int64_t> match_local;
  const RowKeyHash hasher;
  for (size_t r = 0; r < probe_keys.size(); ++r) {
    const size_t p =
        hasher(probe_keys[r]) % static_cast<size_t>(build.num_partitions);
    const auto it = build.rows[p].find(probe_keys[r]);
    if (it == build.rows[p].end()) continue;
    for (int64_t local : it->second) {
      probe_idx.push_back(static_cast<int64_t>(r));
      match_part.push_back(static_cast<int32_t>(p));
      match_local.push_back(local);
    }
  }
  const int64_t total = static_cast<int64_t>(probe_idx.size());

  // Build-side columns: load matched partitions one at a time, gather
  // their matched rows, scatter into emission positions.
  std::vector<Tensor> build_payloads;
  build_payloads.reserve(build.prototype.columns.size());
  for (const Column& c : build.prototype.columns) {
    build_payloads.push_back(AllocLike(c.data(), total));
  }
  // Per-partition match entries (emission position, local row), in
  // ascending local order so one sequential pass over the pages suffices.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> entries(
      static_cast<size_t>(build.num_partitions));
  for (int64_t s = 0; s < total; ++s) {
    entries[static_cast<size_t>(match_part[static_cast<size_t>(s)])]
        .emplace_back(match_local[static_cast<size_t>(s)], s);
  }
  std::vector<int64_t> scatter_pos;
  for (int64_t p = 0; p < build.num_partitions; ++p) {
    auto& part_entries = entries[static_cast<size_t>(p)];
    if (part_entries.empty()) continue;
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    std::sort(part_entries.begin(), part_entries.end());
    SpillReader reader(build.files[static_cast<size_t>(p)]);
    TDP_ASSIGN_OR_RETURN(int64_t part_rows, reader.ReadInt64());
    TDP_ASSIGN_OR_RETURN(int64_t pages, reader.ReadInt64());
    (void)part_rows;
    size_t cursor = 0;  // next unconsumed entry
    int64_t page_lo = 0;
    for (int64_t pg = 0; pg < pages && cursor < part_entries.size(); ++pg) {
      TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
      TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
      TDP_CHECK(cols == static_cast<int64_t>(build_payloads.size()));
      // A build row may match many probe rows: every entry of this page
      // scatters one copy. The per-column inner loop re-reads nothing —
      // columns arrive in file order.
      const size_t page_begin = cursor;
      size_t page_end = cursor;
      while (page_end < part_entries.size() &&
             part_entries[page_end].first < page_lo + pn) {
        ++page_end;
      }
      for (int64_t c = 0; c < cols; ++c) {
        TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
        const Tensor src = page_col.data().Contiguous();
        const int64_t row_elems = pn == 0 ? 0 : src.numel() / pn;
        const int64_t row_bytes = row_elems * DTypeSize(src.dtype());
        const uint8_t* sp = TensorRawBytes(src);
        uint8_t* dp =
            TensorRawBytesMutable(build_payloads[static_cast<size_t>(c)]);
        for (size_t e = page_begin; e < page_end; ++e) {
          const int64_t local = part_entries[e].first - page_lo;
          const int64_t out_s = part_entries[e].second;
          std::memcpy(dp + out_s * row_bytes, sp + local * row_bytes,
                      static_cast<size_t>(row_bytes));
        }
      }
      cursor = page_end;
      page_lo += pn;
    }
  }

  // Assemble in schema order (left columns first), exactly like the
  // in-memory probe.
  Tensor psel = Tensor::FromVector(probe_idx, {}, ctx.device);
  const Chunk probe_selected = probe.Select(psel);
  Chunk joined;
  const size_t left_cols = node.build_left
                               ? build.prototype.columns.size()
                               : probe.columns.size();
  const auto push_build = [&](size_t schema_offset) {
    for (size_t i = 0; i < build.prototype.columns.size(); ++i) {
      joined.names.push_back(node.schema[schema_offset + i].name);
      joined.columns.push_back(WrapLike(build.prototype.columns[i],
                                        std::move(build_payloads[i])));
    }
  };
  const auto push_probe = [&](size_t schema_offset) {
    for (size_t i = 0; i < probe_selected.columns.size(); ++i) {
      joined.names.push_back(node.schema[schema_offset + i].name);
      joined.columns.push_back(probe_selected.columns[i]);
    }
  };
  if (node.build_left) {
    push_build(0);
    push_probe(left_cols);
  } else {
    push_probe(0);
    push_build(left_cols);
  }

  if (node.residual) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask, EvaluatePredicate(*node.residual, joined, EvalOpts(ctx)));
    joined = joined.Select(NonZero(mask));
  }
  return joined;
}

// ---- Paged two-pass aggregation ---------------------------------------------

StatusOr<Chunk> SpilledFinalizeAggregate(const AggregateNode& node,
                                         const AggInputs& inputs,
                                         const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const int64_t rows = inputs.rows;
  const size_t num_key_cols = inputs.key_columns.size();
  constexpr int64_t kAggBlock = 4096;  // == the in-memory kernel's block
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;

  // Mirror the in-memory kernel's per-def argument checks up front (same
  // first error, same message) so the spill path never writes pages for a
  // query that would have failed in memory.
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    if (!def.arg) continue;
    const Column& arg_col = inputs.arg_columns[d];
    if (arg_col.encoding() == Encoding::kDictionary &&
        def.kind != AggKind::kCount) {
      return Status::TypeError("cannot " +
                               std::string(plan::AggKindName(def.kind)) +
                               " a string column");
    }
    if (arg_col.DecodeValues().dim() != 1) {
      return Status::TypeError("aggregate argument must be a scalar column");
    }
  }
  // Which defs carry an argument blob / a distinct-codes blob per page.
  std::vector<int64_t> arg_blob(node.aggregates.size(), -1);
  std::vector<int64_t> distinct_blob(node.aggregates.size(), -1);
  int64_t num_arg_blobs = 0, num_distinct_blobs = 0;
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    if (node.aggregates[d].arg) arg_blob[d] = num_arg_blobs++;
    if (node.aggregates[d].distinct && node.aggregates[d].arg) {
      distinct_blob[d] = num_distinct_blobs++;
    }
  }

  // Pass A: spill pages (key order codes + per-def argument doubles +
  // distinct codes) while discovering groups. Order codes are row-local,
  // so the page-wise key table sees exactly the key equivalences (and its
  // sorted ranks exactly the group order) of the in-memory kernel.
  TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("aggpages"));
  SpillWriter w(path);
  KeyTable groups(num_key_cols);
  std::vector<int64_t> first_rows;  // per first-seen group id
  std::vector<int64_t> key(num_key_cols);
  {
    std::vector<std::vector<int64_t>> page_key_codes(num_key_cols);
    std::vector<std::vector<double>> page_args(
        static_cast<size_t>(num_arg_blobs));
    std::vector<std::vector<int64_t>> page_distinct(
        static_cast<size_t>(num_distinct_blobs));
    for (int64_t b = 0; b < num_blocks; ++b) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      const int64_t lo = b * kAggBlock;
      const int64_t pn = std::min(kAggBlock, rows - lo);
      for (size_t k = 0; k < num_key_cols; ++k) {
        bool is_float = false;
        TDP_ASSIGN_OR_RETURN(
            page_key_codes[k],
            OrderPreservingCodes(inputs.key_columns[k].SliceRows(lo, pn),
                                 &is_float));
      }
      for (size_t d = 0; d < node.aggregates.size(); ++d) {
        if (arg_blob[d] >= 0) {
          page_args[static_cast<size_t>(arg_blob[d])] =
              inputs.arg_columns[d]
                  .SliceRows(lo, pn)
                  .DecodeValues()
                  .To(DType::kFloat64)
                  .ToVector<double>();
        }
        if (distinct_blob[d] >= 0) {
          bool is_float = false;
          TDP_ASSIGN_OR_RETURN(
              page_distinct[static_cast<size_t>(distinct_blob[d])],
              OrderPreservingCodes(inputs.arg_columns[d].SliceRows(lo, pn),
                                   &is_float));
        }
      }
      // Group discovery over this page, recording each group's first
      // global row (the representative).
      for (int64_t i = 0; i < pn && !node.group_exprs.empty(); ++i) {
        for (size_t k = 0; k < num_key_cols; ++k) {
          key[k] = page_key_codes[k][static_cast<size_t>(i)];
        }
        bool inserted = false;
        groups.Insert(key.data(), &inserted);
        if (inserted) first_rows.push_back(lo + i);
      }
      // Page out everything pass B needs.
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      for (size_t k = 0; k < num_key_cols; ++k) {
        TDP_RETURN_NOT_OK(w.WriteInt64Span(page_key_codes[k].data(),
                                           static_cast<size_t>(pn)));
      }
      for (const auto& blob : page_args) {
        TDP_RETURN_NOT_OK(
            w.WriteBytes(blob.data(), static_cast<size_t>(pn) * 8));
      }
      for (const auto& blob : page_distinct) {
        TDP_RETURN_NOT_OK(w.WriteInt64Span(blob.data(),
                                           static_cast<size_t>(pn)));
      }
    }
  }
  TDP_RETURN_NOT_OK(w.Close());
  mem->AddSpilledBytes(w.bytes_written());

  // Renumber groups in sorted key order and recover representatives —
  // the same renumbering the in-memory kernel applies.
  const std::vector<int64_t> rank = groups.SortedRanks();
  const int64_t num_groups = node.group_exprs.empty() ? 1 : groups.size();

  Chunk out;

  // Group key output columns: representative rows of the (resident) key
  // columns — verbatim the in-memory code, shared dictionaries included.
  if (!node.group_exprs.empty()) {
    Tensor rep = Tensor::Empty({num_groups}, DType::kInt64, ctx.device);
    int64_t* rp = rep.data<int64_t>();
    for (int64_t id = 0; id < num_groups; ++id) {
      rp[rank[static_cast<size_t>(id)]] = first_rows[static_cast<size_t>(id)];
    }
    for (size_t k = 0; k < inputs.key_columns.size(); ++k) {
      Column key_col = inputs.key_columns[k];
      if (key_col.encoding() == Encoding::kProbability) {
        key_col = Column::Plain(key_col.DecodeValues());
      }
      out.names.push_back(node.group_names[k]);
      out.columns.push_back(key_col.Select(rep));
    }
  }

  // Pass B, once per aggregate: re-stream the pages, resolving each row's
  // group through the frozen key table and accumulating with the in-memory
  // kernel's exact arithmetic. When that kernel would have parallelized
  // (num_blocks > 1, merge cheaper than the rows), per-block partials are
  // folded in block order — pages ARE blocks (both 4096-row, both
  // row-aligned) — reproducing its floating-point tree op for op;
  // otherwise rows accumulate sequentially across pages, which IS the
  // serial tree.
  for (size_t def_index = 0; def_index < node.aggregates.size();
       ++def_index) {
    const AggDef& def = node.aggregates[def_index];
    AggState total(num_groups);
    KeyTable distinct_seen(2);  // (group, argument code) pairs
    const bool parallel_ok =
        !def.distinct && num_blocks > 1 && num_blocks * num_groups <= rows;

    SpillReader reader(path);
    std::vector<int64_t> page_codes;
    std::vector<double> page_args;
    std::vector<int64_t> page_distinct;
    std::vector<int64_t> row_gid;
    for (int64_t b = 0; b < num_blocks; ++b) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
      // Row group ids for this page.
      row_gid.assign(static_cast<size_t>(pn), 0);
      if (!node.group_exprs.empty()) {
        page_codes.resize(static_cast<size_t>(pn) * num_key_cols);
        TDP_RETURN_NOT_OK(reader.ReadInt64Span(page_codes.data(),
                                               page_codes.size()));
        for (int64_t i = 0; i < pn; ++i) {
          for (size_t k = 0; k < num_key_cols; ++k) {
            key[k] = page_codes[k * static_cast<size_t>(pn) +
                                static_cast<size_t>(i)];
          }
          row_gid[static_cast<size_t>(i)] =
              rank[static_cast<size_t>(groups.Find(key.data()))];
        }
      } else if (num_key_cols > 0) {
        TDP_RETURN_NOT_OK(
            reader.Skip(static_cast<int64_t>(num_key_cols) * pn * 8));
      }
      // This def's argument doubles (skip the other defs' blobs).
      if (arg_blob[def_index] >= 0) {
        TDP_RETURN_NOT_OK(reader.Skip(arg_blob[def_index] * pn * 8));
        page_args.resize(static_cast<size_t>(pn));
        TDP_RETURN_NOT_OK(
            reader.ReadBytes(page_args.data(), static_cast<size_t>(pn) * 8));
        TDP_RETURN_NOT_OK(reader.Skip(
            (num_arg_blobs - arg_blob[def_index] - 1) * pn * 8));
      } else {
        TDP_RETURN_NOT_OK(reader.Skip(num_arg_blobs * pn * 8));
      }
      if (distinct_blob[def_index] >= 0) {
        TDP_RETURN_NOT_OK(reader.Skip(distinct_blob[def_index] * pn * 8));
        page_distinct.resize(static_cast<size_t>(pn));
        TDP_RETURN_NOT_OK(reader.ReadInt64Span(page_distinct.data(),
                                               page_distinct.size()));
        TDP_RETURN_NOT_OK(reader.Skip(
            (num_distinct_blobs - distinct_blob[def_index] - 1) * pn * 8));
      } else {
        TDP_RETURN_NOT_OK(reader.Skip(num_distinct_blobs * pn * 8));
      }

      const auto accumulate_rows = [&](AggState& state) {
        for (int64_t i = 0; i < pn; ++i) {
          const size_t g =
              static_cast<size_t>(row_gid[static_cast<size_t>(i)]);
          if (def.distinct && def.arg) {
            const int64_t pair[2] = {static_cast<int64_t>(g),
                                     page_distinct[static_cast<size_t>(i)]};
            bool inserted = false;
            distinct_seen.Insert(pair, &inserted);
            if (!inserted) continue;
          }
          state.Add(def.kind, g,
                    def.arg ? page_args[static_cast<size_t>(i)] : 0.0);
        }
      };

      if (parallel_ok) {
        // Fold this block's partials immediately — blocks arrive in block
        // order, so the fold sequence equals the in-memory merge loop.
        AggState block(num_groups);
        accumulate_rows(block);
        total.Merge(def.kind, block);
      } else {
        accumulate_rows(total);
      }
    }

    out.names.push_back(def.name);
    out.columns.push_back(total.Finish(
        def.kind, node.schema[node.group_exprs.size() + def_index].dtype,
        ctx.device));
  }
  return out;
}

}  // namespace exec
}  // namespace tdp
