#include "src/plan/footprint.h"

#include <algorithm>

#include "src/exec/key_codes.h"
#include "src/tensor/dtype.h"

namespace tdp {
namespace plan {
namespace {

// Estimated bytes per row of a schema. Tensor columns have unknown width
// at plan time — assume a moderate embedding (64 floats); dictionary
// columns carry codes plus amortized string storage.
int64_t RowWidthBytes(const Schema& schema) {
  int64_t bytes = 0;
  for (const ColumnMeta& col : schema) {
    if (col.is_tensor) {
      bytes += 256;
    } else if (col.encoding == Encoding::kDictionary) {
      bytes += 24;
    } else {
      bytes += DTypeSize(col.dtype);
    }
  }
  return std::max<int64_t>(bytes, 1);
}

constexpr int64_t kSaturated = int64_t{1} << 62;

int64_t SaturatingMul(int64_t a, int64_t b) {
  if (a <= 0 || b <= 0) return 0;
  if (a > kSaturated / b) return kSaturated;
  return a * b;
}

// Operands are SaturatingMul results (each at most kSaturated).
int64_t SaturatingAdd(int64_t a, int64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

// Returns the node's estimated output rows, folding each breaker's
// estimated scratch into `peak`.
int64_t EstimateNode(const LogicalNode& node, const Catalog& catalog,
                     int64_t* peak) {
  std::vector<int64_t> child_rows;
  child_rows.reserve(node.children.size());
  for (const auto& child : node.children) {
    child_rows.push_back(EstimateNode(*child, catalog, peak));
  }
  const int64_t in_rows = child_rows.empty() ? 0 : child_rows[0];

  switch (node.kind) {
    case NodeKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      auto table = catalog.GetTable(scan.table_name);
      return table.ok() ? table.value()->num_rows() : 0;
    }
    case NodeKind::kTvfScan:
    case NodeKind::kFilter:     // no selectivity credit
    case NodeKind::kProject:
    case NodeKind::kModelEval:
      return in_rows;
    case NodeKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      const int64_t scratch = SaturatingMul(
          in_rows, 8 * static_cast<int64_t>(agg.group_exprs.size() +
                                            agg.aggregates.size() + 2));
      *peak = std::max(*peak, scratch);
      // Worst case: every row is its own group.
      return agg.group_exprs.empty() ? 1 : in_rows;
    }
    case NodeKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      const int64_t left = child_rows.size() > 0 ? child_rows[0] : 0;
      const int64_t right = child_rows.size() > 1 ? child_rows[1] : 0;
      const int64_t build = join.build_left ? left : right;
      const Schema& build_schema = join.build_left
                                       ? node.children[0]->schema
                                       : node.children[1]->schema;
      const int64_t scratch =
          SaturatingMul(build, RowWidthBytes(build_schema) + 48);
      *peak = std::max(*peak, scratch);
      // Equi joins estimate as the larger input (typical FK patterns);
      // pure-residual joins are cartesian.
      if (join.left_keys.empty()) return SaturatingMul(left, right);
      return std::max(left, right);
    }
    case NodeKind::kSort: {
      const auto& sort = static_cast<const SortNode&>(node);
      const int64_t num_keys = static_cast<int64_t>(sort.items.size());
      // A fused-limit sort is a bounded top-k: its key codes plus the k
      // winning rows (ExecuteSort's reservation), whatever the input width.
      const int64_t scratch =
          sort.fused_limit >= 0
              ? SaturatingAdd(
                    SaturatingMul(in_rows, 8 * num_keys),
                    SaturatingMul(std::min(sort.fused_limit, in_rows),
                                  RowWidthBytes(node.schema) + 8))
              : SaturatingMul(in_rows,
                              RowWidthBytes(node.schema) + 8 * (num_keys + 2));
      *peak = std::max(*peak, scratch);
      return sort.fused_limit >= 0 ? std::min(sort.fused_limit, in_rows)
                                   : in_rows;
    }
    case NodeKind::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(node);
      return limit.limit < 0 ? in_rows : std::min(limit.limit, in_rows);
    }
    case NodeKind::kDistinct: {
      const int64_t scratch = SaturatingMul(
          in_rows, exec::KeyTable::BytesPerRow(
                       static_cast<int64_t>(node.schema.size())));
      *peak = std::max(*peak, scratch);
      return in_rows;
    }
    case NodeKind::kIndexTopK: {
      const auto& topk = static_cast<const IndexTopKNode&>(node);
      auto table = catalog.GetTable(topk.table_name);
      const int64_t rows = table.ok() ? table.value()->num_rows() : 0;
      *peak = std::max(*peak, SaturatingMul(rows, 16));
      return std::min(topk.k, rows);
    }
    case NodeKind::kCreateTable:
      return 1;
    case NodeKind::kInsert: {
      const auto& insert = static_cast<const InsertNode&>(node);
      const int64_t source_rows =
          node.children.empty() ? static_cast<int64_t>(insert.rows.size())
                                : in_rows;
      // The DML kernel materializes the appended segment.
      *peak = std::max(*peak, SaturatingMul(source_rows, 64));
      return 1;
    }
    case NodeKind::kUpdate:
    case NodeKind::kDelete: {
      // Both materialize per-row deltas over the scanned table.
      *peak = std::max(
          *peak, SaturatingMul(in_rows,
                               node.children.empty()
                                   ? 64
                                   : RowWidthBytes(node.children[0]->schema)));
      return 1;
    }
  }
  return in_rows;
}

}  // namespace

FootprintEstimate EstimatePlanFootprint(const LogicalNode& root,
                                        const Catalog& catalog) {
  FootprintEstimate est;
  est.output_rows = EstimateNode(root, catalog, &est.peak_breaker_bytes);
  return est;
}

}  // namespace plan
}  // namespace tdp
