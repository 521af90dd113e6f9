#ifndef MORSELDB_NUMA_ALLOCATOR_H_
#define MORSELDB_NUMA_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/macros.h"

namespace morsel {

// Where an allocation (logically) lives. The engine tracks NUMA placement
// via tags carried by containers; see DESIGN.md §1 for why logical tags
// reproduce the paper's scheduling behaviour on single-node hosts.
//
// kInterleavedSocket marks memory spread round-robin across all sockets
// in 2 MB chunks — the policy the paper uses for the global join hash
// table (§4.2: "interleaved (spread) across all sockets").
inline constexpr int kInterleavedSocket = -1;

// Chunk granularity for interleaved placement accounting; mirrors the
// 2 MB huge pages the paper allocates hash tables with.
inline constexpr size_t kInterleaveChunkBytes = size_t{2} << 20;

// Socket a byte offset of an interleaved allocation maps to.
inline int InterleavedSocketOf(size_t byte_offset, int num_sockets) {
  return static_cast<int>((byte_offset / kInterleaveChunkBytes) %
                          static_cast<size_t>(num_sockets));
}

// Cache-line aligned allocation. On systems with libnuma one would mbind
// here; in this reproduction the socket is a logical tag used by the
// traffic accountant, and the allocation itself is plain aligned memory.
void* NumaAlloc(size_t bytes, int socket);
void NumaFree(void* p, size_t bytes);

// Total bytes currently allocated through NumaAlloc and NumaAllocBreaker
// (leak checks in tests).
size_t NumaAllocatedBytes();

// Breaker memory on 2 MiB pages (DESIGN.md §17). The paper puts the join
// hash table and the tuple storage areas on 2 MB pages and takes the
// table from mmap, so each page is zeroed when a worker first writes it
// (§4.2). Requests of at least kHugePageMinBytes get a fresh anonymous
// mapping, 2 MiB aligned, rounded up to whole 2 MiB pages and advised
// MADV_HUGEPAGE (the process's own mapping only); smaller requests take
// NumaAlloc. Charges, frees and injected faults follow NumaAlloc's rules
// on the rounded size, so NumaAllocatedBytes() and the query's
// MemoryTracker balance exactly. `on_huge_pages`, when given, reports
// whether the kernel took the advice: only then does the memory read as
// zero *and* get zeroed page by page on first touch (a refused advice
// leaves a zero mapping on 4 KiB pages, whose lazy faults cost more than
// one up-front memset). Free with NumaFreeBreaker and the same `bytes`.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;
inline constexpr size_t kHugePageMinBytes = size_t{4} << 20;
void* NumaAllocBreaker(size_t bytes, int socket,
                       bool* on_huge_pages = nullptr);
void NumaFreeBreaker(void* p, size_t bytes);

// Minimal growable array with a NUMA placement tag. Move-only. Only
// trivially copyable element types are supported (checked at compile
// time). Its one user is RowBuffer — join storage areas, radix
// partitions, run sets and exchange buffers — so its memory is breaker
// memory: 4 MiB and larger capacities sit on 2 MiB pages.
template <typename T>
class NumaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "NumaVector only holds trivially copyable types");

 public:
  explicit NumaVector(int socket = 0) : socket_(socket) {}
  ~NumaVector() { Release(); }

  NumaVector(NumaVector&& other) noexcept { MoveFrom(other); }
  NumaVector& operator=(NumaVector&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  NumaVector(const NumaVector&) = delete;
  NumaVector& operator=(const NumaVector&) = delete;

  int socket() const { return socket_; }
  void set_socket(int socket) { socket_ = socket; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](size_t i) {
    MORSEL_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    MORSEL_DCHECK(i < size_);
    return data_[i];
  }
  T& back() { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void reserve(size_t n) {
    if (n > capacity_) Regrow(n);
  }

  void resize(size_t n) {
    // Geometric growth: resize is the hot path of RowBuffer::AppendRow,
    // which extends by one tuple at a time.
    if (n > capacity_) {
      size_t want = capacity_ == 0 ? 16 : capacity_ * 2;
      while (want < n) want *= 2;
      Regrow(want);
    }
    if (n > size_) std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
    size_ = n;
  }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == capacity_) Regrow(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = v;
  }

  // Appends `n` elements from `src` (bulk load path for generators).
  void append(const T* src, size_t n) {
    if (size_ + n > capacity_) {
      size_t want = capacity_ == 0 ? 16 : capacity_;
      while (want < size_ + n) want *= 2;
      Regrow(want);
    }
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }

 private:
  void Regrow(size_t new_cap) {
    T* nd = static_cast<T*>(NumaAllocBreaker(new_cap * sizeof(T), socket_));
    if (size_ > 0) std::memcpy(nd, data_, size_ * sizeof(T));
    if (data_ != nullptr) NumaFreeBreaker(data_, capacity_ * sizeof(T));
    data_ = nd;
    capacity_ = new_cap;
  }

  void Release() {
    if (data_ != nullptr) NumaFreeBreaker(data_, capacity_ * sizeof(T));
    data_ = nullptr;
    size_ = capacity_ = 0;
  }

  void MoveFrom(NumaVector& other) {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    socket_ = other.socket_;
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  int socket_ = 0;
};

}  // namespace morsel

#endif  // MORSELDB_NUMA_ALLOCATOR_H_
