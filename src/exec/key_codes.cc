#include "src/exec/key_codes.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/tensor/dtype.h"

namespace tdp {
namespace exec {

StatusOr<std::vector<int64_t>> TensorOrderCodes(const Tensor& values,
                                                bool* is_float) {
  if (values.dim() != 1) {
    return Status::TypeError(
        "tensor-valued columns cannot be grouping/join keys");
  }
  switch (values.dtype()) {
    case DType::kInt64:
      *is_float = false;
      return values.ToVector<int64_t>();
    case DType::kInt32:
    case DType::kUInt8:
    case DType::kBool:
      *is_float = false;
      return values.To(DType::kInt64).ToVector<int64_t>();
    case DType::kFloat32:
    case DType::kFloat64: {
      *is_float = true;
      const std::vector<double> d =
          values.To(DType::kFloat64).ToVector<double>();
      std::vector<int64_t> codes(d.size());
      for (size_t i = 0; i < d.size(); ++i) codes[i] = DoubleOrderCode(d[i]);
      return codes;
    }
  }
  return Status::Internal("unknown dtype");
}

StatusOr<std::vector<int64_t>> OrderPreservingCodes(const Column& column,
                                                    bool* is_float) {
  switch (column.encoding()) {
    case Encoding::kDictionary:
      *is_float = false;
      return column.data().ToVector<int64_t>();
    case Encoding::kProbability:
    case Encoding::kPlain:
      return TensorOrderCodes(column.DecodeValues(), is_float);
  }
  return Status::Internal("unknown encoding");
}

StatusOr<std::vector<int64_t>> PackedKeyCodes(
    const std::vector<Column>& columns, int64_t rows) {
  const size_t width = columns.size();
  bool is_float = false;
  if (width == 1) return OrderPreservingCodes(columns[0], &is_float);
  std::vector<int64_t> packed(static_cast<size_t>(rows) * width);
  for (size_t k = 0; k < width; ++k) {
    TDP_ASSIGN_OR_RETURN(std::vector<int64_t> codes,
                         OrderPreservingCodes(columns[k], &is_float));
    for (size_t r = 0; r < codes.size(); ++r) packed[r * width + k] = codes[r];
  }
  return packed;
}

void KeyTable::Grow() {
  slots_.assign(slots_.size() * 2, -1);
  --shift_;
  const size_t mask = slots_.size() - 1;
  for (int64_t id = 0; id < size_; ++id) {
    size_t s = Home(keys_.data() + static_cast<size_t>(id) * width_);
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

std::vector<int64_t> KeyTable::SortedRanks() const {
  const size_t n = static_cast<size_t>(size_);
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    const int64_t* ka = keys_.data() + static_cast<size_t>(a) * width_;
    const int64_t* kb = keys_.data() + static_cast<size_t>(b) * width_;
    return std::lexicographical_compare(ka, ka + width_, kb, kb + width_);
  });
  std::vector<int64_t> ranks(n);
  for (size_t i = 0; i < n; ++i) {
    ranks[static_cast<size_t>(order[i])] = static_cast<int64_t>(i);
  }
  return ranks;
}

Status SortKeys::Add(const Tensor& values, bool descending) {
  bool is_float = false;
  TDP_ASSIGN_OR_RETURN(std::vector<int64_t> key_codes,
                       TensorOrderCodes(values, &is_float));
  for (int64_t& c : key_codes) c = DirectedCode(c, descending, is_float);
  codes.push_back(std::move(key_codes));
  return Status::OK();
}

std::vector<int64_t> SortPermutation(const SortKeys& keys, int64_t rows,
                                     int64_t limit) {
  std::vector<int64_t> perm;
  if (limit < 0 || limit >= rows) {
    // Full sort of (first-key code, row id) pairs: comparisons stay in one
    // contiguous array until the first key ties. Row id breaks full-key
    // ties, a total order, so the unstable sort reproduces the stable one.
    std::vector<std::pair<int64_t, int64_t>> entries(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      entries[static_cast<size_t>(r)] = {
          keys.codes.empty() ? 0 : keys.codes[0][static_cast<size_t>(r)], r};
    }
    std::sort(entries.begin(), entries.end(),
              [&keys](const std::pair<int64_t, int64_t>& a,
                      const std::pair<int64_t, int64_t>& b) {
                if (a.first != b.first) return a.first < b.first;
                const int c = keys.Compare(a.second, b.second, 1);
                return c != 0 ? c < 0 : a.second < b.second;
              });
    perm.resize(static_cast<size_t>(rows));
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = entries[i].second;
    return perm;
  }
  const auto less = [&keys](int64_t a, int64_t b) {
    const int c = keys.Compare(a, b);
    return c != 0 ? c < 0 : a < b;
  };
  // Max-heap of the best `limit` rows seen so far, worst on top. Rows
  // arrive in ascending id, so a row that only ties the worst loses to it.
  perm.reserve(static_cast<size_t>(limit));
  for (int64_t r = 0; r < rows && limit > 0; ++r) {
    if (static_cast<int64_t>(perm.size()) < limit) {
      perm.push_back(r);
      std::push_heap(perm.begin(), perm.end(), less);
    } else if (keys.Compare(r, perm.front()) < 0) {
      std::pop_heap(perm.begin(), perm.end(), less);
      perm.back() = r;
      std::push_heap(perm.begin(), perm.end(), less);
    }
  }
  std::sort_heap(perm.begin(), perm.end(), less);
  return perm;
}

}  // namespace exec
}  // namespace tdp
