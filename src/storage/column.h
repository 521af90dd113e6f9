#ifndef MORSELDB_STORAGE_COLUMN_H_
#define MORSELDB_STORAGE_COLUMN_H_

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "numa/allocator.h"
#include "storage/stable_vector.h"
#include "storage/types.h"

namespace morsel {

// Zone-map granularity: min/max per block of this many rows, recorded
// at SealPartition. Scans aggregate the blocks covering a morsel to
// skip it (predicate can never hold) or accept it wholesale (predicate
// always holds, so the conjunct is dropped for the morsel's chunks).
inline constexpr size_t kZoneMapBlockRows = 4096;

// Shared implementation of the sampled sortedness probe: fraction of
// adjacent row pairs in non-descending order, estimated from evenly
// spread blocks of pairs (full scan when the column is small). `less`
// is called as less(i, j) meaning "row i sorts strictly before row j".
template <typename LessFn>
double SampledSortedFraction(size_t n, const LessFn& less) {
  if (n < 2) return 1.0;
  constexpr size_t kBlocks = 64;
  constexpr size_t kPairsPerBlock = 128;
  const size_t total_pairs = n - 1;
  size_t in_order = 0;
  size_t seen = 0;
  const size_t block_span = total_pairs / kBlocks;
  if (block_span <= kPairsPerBlock) {
    for (size_t i = 1; i < n; ++i) {
      ++seen;
      if (!less(i, i - 1)) ++in_order;
    }
  } else {
    for (size_t b = 0; b < kBlocks; ++b) {
      const size_t start = b * block_span;
      for (size_t p = 0; p < kPairsPerBlock; ++p) {
        const size_t i = start + p + 1;
        ++seen;
        if (!less(i, i - 1)) ++in_order;
      }
    }
  }
  return static_cast<double>(in_order) / static_cast<double>(seen);
}

// One column of one table partition. Fixed-width columns expose their
// backing array directly (zero-copy scans); string columns use an
// offsets-into-heap layout whose string_views stay valid for the lifetime
// of the column, so tuples and result sets may hold views into it.
//
// Concurrency (DESIGN §13): storage is StableVector — single writer,
// lock-free readers, superseded buffers retired (not freed) so a scan
// holding raw() across a concurrent append/seal never reads freed
// memory. Zone maps are immutable snapshots swapped in atomically by
// BuildZoneMaps; a scan racing a seal sees either the old or the new
// maps, both sound for the rows the scan was planned over.
class Column {
 public:
  explicit Column(LogicalType type) : type_(type) {}
  virtual ~Column() = default;

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  LogicalType type() const { return type_; }
  virtual size_t size() const = 0;
  // Bytes of storage a scan of `rows` rows touches (traffic accounting).
  virtual size_t ScanBytes(size_t rows) const = 0;

  // Sortedness statistic (feeds the adaptive join-strategy choice):
  // fraction of adjacent row pairs in non-descending order, estimated by
  // a sampled adjacent-pair scan and cached after the first call.
  // Thread-safe; a racing recompute is idempotent. Appends invalidate
  // the cache via SealPartition -> InvalidateStats.
  double SortedFraction() const {
    double v = sorted_frac_.load(std::memory_order_relaxed);
    if (v < 0.0) {
      v = ComputeSortedFraction();
      sorted_frac_.store(v, std::memory_order_relaxed);
    }
    return v;
  }
  void InvalidateStats() {
    sorted_frac_.store(-1.0, std::memory_order_relaxed);
  }

  // --- zone maps (DESIGN.md §10) -----------------------------------------
  // Rebuilds the per-block min/max entries over the current rows and
  // publishes them atomically. Called from SealPartition (the
  // partition's single writer); reads are lock-free and may race the
  // rebuild — they see the previous or the new snapshot, never a
  // partially built one. No-op for strings.
  virtual void BuildZoneMaps() {}
  // Combined min/max of the zone-map blocks covering rows
  // [begin, end) — a conservative superset of the actual value range
  // (blocks straddling the boundary contribute whole). False when no
  // zone maps cover the range (strings, or rows appended after the
  // last build) or the value domain does not match; callers must then
  // treat the range as "anything possible".
  virtual bool ZoneMinMaxI64(size_t begin, size_t end, int64_t* mn,
                             int64_t* mx) const {
    (void)begin;
    (void)end;
    (void)mn;
    (void)mx;
    return false;
  }
  virtual bool ZoneMinMaxF64(size_t begin, size_t end, double* mn,
                             double* mx) const {
    (void)begin;
    (void)end;
    (void)mn;
    (void)mx;
    return false;
  }

 protected:
  virtual double ComputeSortedFraction() const = 0;

 private:
  LogicalType type_;
  mutable std::atomic<double> sorted_frac_{-1.0};
};

template <typename T>
constexpr LogicalType TypeOf();
template <>
constexpr LogicalType TypeOf<int32_t>() {
  return LogicalType::kInt32;
}
template <>
constexpr LogicalType TypeOf<int64_t>() {
  return LogicalType::kInt64;
}
template <>
constexpr LogicalType TypeOf<double>() {
  return LogicalType::kDouble;
}

// Fixed-width column over a NUMA-tagged array.
template <typename T>
class TypedColumn final : public Column {
 public:
  explicit TypedColumn(int socket = 0)
      : Column(TypeOf<T>()), data_(socket) {}

  size_t size() const override { return data_.size(); }
  size_t ScanBytes(size_t rows) const override { return rows * sizeof(T); }

  void Append(T v) { data_.push_back(v); }
  void AppendN(const T* src, size_t n) { data_.append(src, n); }
  T Get(size_t i) const { return data_[i]; }
  const T* raw() const { return data_.data(); }
  void Reserve(size_t n) { data_.reserve(n); }

  void BuildZoneMaps() override {
    // Build into a fresh snapshot and publish it with one atomic swap:
    // a concurrent ZoneRange keeps reading the old snapshot (retired,
    // not freed) instead of a half-cleared vector.
    const size_t n = data_.size();  // size before data: see StableVector
    const T* d = data_.data();
    auto z = std::make_unique<ZoneData>();
    z->zones.reserve((n + kZoneMapBlockRows - 1) / kZoneMapBlockRows);
    for (size_t b = 0; b < n; b += kZoneMapBlockRows) {
      const size_t e = b + kZoneMapBlockRows < n ? b + kZoneMapBlockRows : n;
      T mn = d[b], mx = d[b];
      [[maybe_unused]] bool poisoned = false;
      for (size_t i = b + 1; i < e; ++i) {
        if (d[i] < mn) mn = d[i];
        if (d[i] > mx) mx = d[i];
      }
      if constexpr (std::is_floating_point_v<T>) {
        // NaN never wins a </> comparison, so it would silently fall
        // outside [mn, mx] and an accept-all/skip verdict over the
        // block would be unsound. Poison such blocks to (-inf, +inf):
        // every verdict degrades to "partial" and the rows are
        // filtered normally.
        for (size_t i = b; i < e && !poisoned; ++i) {
          poisoned = std::isnan(d[i]);
        }
        if (poisoned) {
          mn = -std::numeric_limits<T>::infinity();
          mx = std::numeric_limits<T>::infinity();
        }
      }
      z->zones.push_back({mn, mx});
    }
    z->rows = n;
    zones_.store(z.get(), std::memory_order_release);
    retired_zones_.push_back(std::move(z));  // writer-owned lifetime
  }

  bool ZoneMinMaxI64(size_t begin, size_t end, int64_t* mn,
                     int64_t* mx) const override {
    if constexpr (std::is_same_v<T, double>) {
      return false;
    } else {
      T lo, hi;
      if (!ZoneRange(begin, end, &lo, &hi)) return false;
      *mn = static_cast<int64_t>(lo);
      *mx = static_cast<int64_t>(hi);
      return true;
    }
  }

  bool ZoneMinMaxF64(size_t begin, size_t end, double* mn,
                     double* mx) const override {
    if constexpr (std::is_same_v<T, double>) {
      T lo, hi;
      if (!ZoneRange(begin, end, &lo, &hi)) return false;
      *mn = lo;
      *mx = hi;
      return true;
    } else {
      return false;
    }
  }

 protected:
  double ComputeSortedFraction() const override {
    const size_t n = data_.size();  // size before data: see StableVector
    const T* d = data_.data();
    return SampledSortedFraction(
        n, [d](size_t a, size_t b) { return d[a] < d[b]; });
  }

 private:
  // One immutable zone-map snapshot; swapped whole on rebuild.
  struct ZoneData {
    std::vector<std::pair<T, T>> zones;  // per-block [min, max]
    size_t rows = 0;                     // rows covered by zones
  };

  bool ZoneRange(size_t begin, size_t end, T* mn, T* mx) const {
    const ZoneData* z = zones_.load(std::memory_order_acquire);
    if (z == nullptr || begin >= end || end > z->rows) return false;
    const size_t b0 = begin / kZoneMapBlockRows;
    const size_t b1 = (end - 1) / kZoneMapBlockRows;
    T lo = z->zones[b0].first, hi = z->zones[b0].second;
    for (size_t b = b0 + 1; b <= b1; ++b) {
      if (z->zones[b].first < lo) lo = z->zones[b].first;
      if (z->zones[b].second > hi) hi = z->zones[b].second;
    }
    *mn = lo;
    *mx = hi;
    return true;
  }

  StableVector<T> data_;
  std::atomic<const ZoneData*> zones_{nullptr};  // current snapshot
  // All snapshots ever built, freed at destruction — a racing reader
  // may still hold the previous one when a seal swaps in the next.
  std::vector<std::unique_ptr<ZoneData>> retired_zones_;
};

using Int32Column = TypedColumn<int32_t>;
using Int64Column = TypedColumn<int64_t>;
using DoubleColumn = TypedColumn<double>;

// Variable-length string column: per-row [offset, offset_next) into a
// byte heap. Append-only.
class StringColumn final : public Column {
 public:
  explicit StringColumn(int socket = 0)
      : Column(LogicalType::kString), offsets_(socket), heap_(socket) {
    offsets_.push_back(0);
  }

  size_t size() const override { return offsets_.size() - 1; }
  size_t ScanBytes(size_t rows) const override {
    // Offset array plus average payload.
    size_t n = size();
    size_t avg = n == 0 ? 0 : heap_.size() / n;
    return rows * (sizeof(uint32_t) + avg);
  }

  void Append(std::string_view s) {
    // Heap bytes publish before the offset that exposes them: a reader
    // that sees row i's end offset can safely read its payload.
    heap_.append(s.data(), s.size());
    offsets_.push_back(static_cast<uint32_t>(heap_.size()));
  }

  // Room for `rows` more rows holding `bytes` more payload bytes.
  void Reserve(size_t rows, size_t bytes) {
    offsets_.reserve(offsets_.size() + rows);
    heap_.reserve(heap_.size() + bytes);
  }

  std::string_view Get(size_t i) const {
    MORSEL_DCHECK(i + 1 < offsets_.size());
    uint32_t b = offsets_[i];
    uint32_t e = offsets_[i + 1];
    return std::string_view(heap_.data() + b, e - b);
  }

  size_t heap_bytes() const { return heap_.size(); }

 protected:
  double ComputeSortedFraction() const override {
    return SampledSortedFraction(
        size(), [this](size_t a, size_t b) { return Get(a) < Get(b); });
  }

 private:
  StableVector<uint32_t> offsets_;
  StableVector<char> heap_;
};

// Creates an empty column of the given type on `socket`.
std::unique_ptr<Column> MakeColumn(LogicalType type, int socket);

}  // namespace morsel

#endif  // MORSELDB_STORAGE_COLUMN_H_
