#ifndef TDP_EXEC_KEY_CODES_H_
#define TDP_EXEC_KEY_CODES_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/statusor.h"
#include "src/storage/column.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {

// The one key coding every breaker shares — GROUP BY, DISTINCT,
// COUNT(DISTINCT) and ORDER BY, in memory and spilled alike.

// ---- Order-preserving key codes ---------------------------------------------
//
// Each key value maps to an int64 whose signed order (and equality)
// matches the engine's value semantics exactly —
//   * integer-kind values (int64/int32/uint8/bool, dictionary codes) map
//     to themselves: order and equality are trivially preserved, and
//     booleans order false < true;
//   * float-kind values map through their double magnitude with the sign
//     folded in (-0 normalized to +0, every NaN to one canonical code that
//     sorts above +inf): -0 == +0, all NaNs equal, NaN last ascending.
// The mapping is ROW-LOCAL, so codes computed per morsel or spill page are
// globally consistent.

/// Canonical NaN code: above every finite/inf code (NaN sorts last
/// ascending); `DirectedCode` keeps NaN last under descending too.
constexpr int64_t kNanOrderCode = 0x7ff8000000000000LL;

inline int64_t DoubleOrderCode(double d) {
  if (std::isnan(d)) return kNanOrderCode;
  if (d == 0.0) return 0;  // -0 and +0 share a code
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  const int64_t magnitude = static_cast<int64_t>(bits & 0x7fffffffffffffffULL);
  return (bits >> 63) != 0 ? -magnitude : magnitude;
}

/// Per-row order codes of 1-d values (see above). `is_float` reports
/// whether the NaN-last rule applies to this key.
StatusOr<std::vector<int64_t>> TensorOrderCodes(const Tensor& values,
                                                bool* is_float);

/// Per-row order codes for one column: dictionary columns yield their
/// codes, PE columns hard-decode first.
StatusOr<std::vector<int64_t>> OrderPreservingCodes(const Column& column,
                                                    bool* is_float);

/// Row-major packed codes of `columns` (row r's tuple is
/// `[r * columns.size(), (r + 1) * columns.size())`).
StatusOr<std::vector<int64_t>> PackedKeyCodes(
    const std::vector<Column>& columns, int64_t rows);

/// A sort key's code in its direction: plain signed order of directed
/// codes is the key's sort order. Descending flips every code but a float
/// key's NaN code, which stays above all others — NaN last both ways.
inline int64_t DirectedCode(int64_t code, bool descending, bool is_float) {
  if (!descending || (is_float && code == kNanOrderCode)) return code;
  return ~code;  // order-reversing bijection on int64, no overflow
}

// ---- Flat key table ---------------------------------------------------------

/// Open-addressing hash table over tuples of `width` int64 codes. Hands out
/// dense ids in first-seen order; `SortedRanks` renumbers them in
/// lexicographic code order (= value order) by sorting only the distinct
/// tuples. Replaces per-row ordered trees for group, DISTINCT and
/// COUNT(DISTINCT) keys.
class KeyTable {
 public:
  explicit KeyTable(size_t width) : width_(width), slots_(16, -1) {}

  /// Id of the tuple at `key` (`width` codes), inserted with the next
  /// dense id when absent; `*inserted` reports which.
  int64_t Insert(const int64_t* key, bool* inserted) {
    size_t s = Home(key);
    for (;; s = (s + 1) & (slots_.size() - 1)) {
      const int64_t id = slots_[s];
      if (id < 0) break;
      if (Equal(id, key)) {
        *inserted = false;
        return id;
      }
    }
    const int64_t id = size_++;
    slots_[s] = id;
    keys_.insert(keys_.end(), key, key + width_);
    if (static_cast<size_t>(size_) * 2 > slots_.size()) Grow();
    *inserted = true;
    return id;
  }

  /// Id of the tuple at `key`, or -1 when absent.
  int64_t Find(const int64_t* key) const {
    for (size_t s = Home(key);; s = (s + 1) & (slots_.size() - 1)) {
      const int64_t id = slots_[s];
      if (id < 0 || Equal(id, key)) return id;
    }
  }

  int64_t size() const { return size_; }

  /// `ranks[id]` = position of tuple `id` in ascending lexicographic code
  /// order.
  std::vector<int64_t> SortedRanks() const;

  /// Worst-case bytes per input row of a distinct-style pass over `width`
  /// columns: the packed input codes, the table's copy of every tuple, its
  /// slot array (at most 4 slots per tuple) and one kept row id.
  static constexpr int64_t BytesPerRow(int64_t width) {
    return 16 * width + 40;
  }

 private:
  // Fibonacci hashing: the top bits of a golden-ratio product spread
  // dense integers and float bit patterns (zero low bits) alike.
  size_t Home(const int64_t* key) const {
    uint64_t h = 0;
    for (size_t k = 0; k < width_; ++k) {
      h = (h ^ static_cast<uint64_t>(key[k])) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<size_t>(h >> shift_);
  }
  bool Equal(int64_t id, const int64_t* key) const {
    const int64_t* stored = keys_.data() + static_cast<size_t>(id) * width_;
    for (size_t k = 0; k < width_; ++k) {
      if (stored[k] != key[k]) return false;
    }
    return true;
  }
  void Grow();

  size_t width_;
  int64_t size_ = 0;
  std::vector<int64_t> keys_;   // row-major tuples, in id order
  std::vector<int64_t> slots_;  // tuple id per slot, -1 = empty; 2^n long
  int shift_ = 60;              // 64 - log2(slots_.size())
};

// ---- Sort keys and the bounded top-k ----------------------------------------

/// The directed codes of one ORDER BY: per key, one code per row.
struct SortKeys {
  std::vector<std::vector<int64_t>> codes;

  /// Appends a key from its decoded 1-d values.
  Status Add(const Tensor& values, bool descending);

  /// Three-way comparison of rows `a` and `b` over the keys from `first`
  /// on (no row-id tie-break).
  int Compare(int64_t a, int64_t b, size_t first = 0) const {
    for (size_t k = first; k < codes.size(); ++k) {
      const int64_t ca = codes[k][static_cast<size_t>(a)];
      const int64_t cb = codes[k][static_cast<size_t>(b)];
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    return 0;
  }
};

/// Row ids of the first min(`limit`, `rows`) rows in key order, ties broken
/// by lower row id (the stable order); `limit < 0` means every row. A
/// `limit` below `rows` keeps a k-row heap: O(rows log k) time, O(k) space.
std::vector<int64_t> SortPermutation(const SortKeys& keys, int64_t rows,
                                     int64_t limit);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_KEY_CODES_H_
