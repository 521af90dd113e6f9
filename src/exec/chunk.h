#ifndef MORSELDB_EXEC_CHUNK_H_
#define MORSELDB_EXEC_CHUNK_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "storage/types.h"

namespace morsel {

// Rows per execution chunk. Pipelines process a morsel as a sequence of
// chunks (vector-at-a-time within morsel-driven scheduling; DESIGN.md §1
// documents this substitution for HyPer's JIT).
inline constexpr int kChunkCapacity = 1024;

// A type-tagged, non-owning view of `n` contiguous values. Fixed-width
// vectors may point straight into column storage (zero-copy scans);
// computed vectors live in the per-worker Arena. Strings travel as
// string_view arrays whose views point into table storage or the Arena.
struct Vector {
  LogicalType type = LogicalType::kInt64;
  const void* data = nullptr;

  const int32_t* i32() const {
    MORSEL_DCHECK(type == LogicalType::kInt32);
    return static_cast<const int32_t*>(data);
  }
  const int64_t* i64() const {
    MORSEL_DCHECK(type == LogicalType::kInt64);
    return static_cast<const int64_t*>(data);
  }
  const double* f64() const {
    MORSEL_DCHECK(type == LogicalType::kDouble);
    return static_cast<const double*>(data);
  }
  const std::string_view* str() const {
    MORSEL_DCHECK(type == LogicalType::kString);
    return static_cast<const std::string_view*>(data);
  }
};

class Arena;

// A batch of rows flowing through a pipeline: `n` physical rows over
// parallel column vectors, with an optional *selection vector*
// (Vectorwise-style, DESIGN.md §10). When `sel` is non-null the chunk's
// logical rows are the physical positions sel[0..sel_n) — strictly
// ascending indices into [0, n). Vectors keep their full physical
// length; unselected positions hold stale values that must never be
// read. `sel` storage lives in the per-worker Arena (morsel lifetime).
//
// Producers that drop rows (FilterOp) narrow `sel` instead of
// gather-compacting every column; consumers either iterate RowAt(k) for
// k in [0, ActiveRows()) or call Compact() once when they need dense
// data (bulk column-wise sinks, the batched join probe).
struct Chunk {
  int n = 0;
  std::vector<Vector> cols;
  const int32_t* sel = nullptr;
  int sel_n = 0;

  int num_cols() const { return static_cast<int>(cols.size()); }
  bool dense() const { return sel == nullptr; }
  int ActiveRows() const { return sel != nullptr ? sel_n : n; }
  int RowAt(int k) const { return sel != nullptr ? sel[k] : k; }

  // Gathers every column through `sel` into dense arena vectors and
  // drops the selection (n becomes sel_n). No-op on dense chunks.
  void Compact(Arena* arena);

  // Process-wide count of Compact() calls that actually gathered (i.e.
  // the chunk carried a selection). No engine operator calls Compact:
  // every consumer reads through `sel` (DESIGN §10 "who compacts"), so
  // this must not move during query execution. Regression tests and the
  // end-to-end benchmark's exec.compact_calls pin that by sampling the
  // counter around Execute().
  static int64_t CompactCalls() {
    return compact_calls_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<int64_t> compact_calls_;
};

// Gathers rows `idx[0..count)` of `v` into a dense arena array.
Vector GatherVector(const Vector& v, const int32_t* idx, int count,
                    Arena* arena);

// Gathers all columns of `in` by the index list into `out` (dense).
void GatherChunk(const Chunk& in, const int32_t* idx, int count,
                 Arena* arena, Chunk* out);

// Bump allocator for chunk-lifetime temporaries. One per worker; reset at
// every morsel boundary. Blocks are retained across resets so steady-state
// execution allocates nothing.
class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* Alloc(size_t bytes);

  template <typename T>
  T* AllocArray(size_t n) {
    return static_cast<T*>(Alloc(n * sizeof(T)));
  }

  // Copies a byte string into the arena (for computed strings such as
  // substrings assembled from parts).
  std::string_view CopyString(std::string_view s) {
    char* p = static_cast<char*>(Alloc(s.size()));
    std::memcpy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  // Makes all blocks reusable; pointers handed out earlier are invalid.
  void Reset();

  size_t bytes_in_use() const { return used_; }

 private:
  struct Block {
    char* data;
    size_t size;
  };
  static constexpr size_t kBlockSize = 1 << 18;  // 256 KiB

  std::vector<Block> blocks_;
  size_t current_ = 0;  // block being filled
  size_t offset_ = 0;   // fill position within it
  size_t used_ = 0;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_CHUNK_H_
