#include "numa/allocator.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/fault_injector.h"
#include "common/memory_tracker.h"
#include "common/query_status.h"

namespace morsel {

namespace {
std::atomic<size_t> g_allocated_bytes{0};

size_t RoundUp(size_t bytes, size_t unit) {
  return (bytes + unit - 1) & ~(unit - 1);
}

// Query-governed checkpoint: when this thread is executing on behalf of
// a query (ScopedAllocationGovernor installed around morsel execution /
// Finalize / lowering), the allocation charges the query's MemoryTracker
// and may be tripped by its FaultInjector. The throws below are the
// sanctioned QueryAbort path (query_status.h): callers between here and
// the worker/Finalize/Prepare boundaries must be exception-safe, and the
// boundary converts the throw into a structured error that cancels the
// query.
void ChargeGoverned(size_t rounded) {
  if (AllocationGovernor* g = ScopedAllocationGovernor::Current()) {
    if (g->injector != nullptr && g->injector->OnTrackedAlloc()) {
      throw std::bad_alloc();
    }
    if (g->tracker != nullptr &&
        !g->Charge(static_cast<int64_t>(rounded))) {
      throw QueryAbort(QueryStatus::MemoryExceeded(
          "query memory budget exceeded"));
    }
  }
}

// The system refused `rounded` charged bytes. Under a governor the
// boundary handler turns the throw into a kMemoryExceeded query error;
// outside one (storage loads, test setup) the process-fatal check is
// unchanged behaviour.
[[noreturn]] void OutOfMemory(size_t rounded) {
  if (AllocationGovernor* g = ScopedAllocationGovernor::Current()) {
    // Return the charge to scope slack (released on scope exit).
    if (g->tracker != nullptr) g->reserved += static_cast<int64_t>(rounded);
    throw std::bad_alloc();
  }
  MORSEL_CHECK_MSG(false, "out of memory");
}

void Uncharge(size_t rounded) {
  g_allocated_bytes.fetch_sub(rounded, std::memory_order_relaxed);
  if (AllocationGovernor* g = ScopedAllocationGovernor::Current()) {
    // Frees during query execution (RowBuffer regrow, per-morsel state)
    // run under the same query's governor and return the charge; query
    // teardown runs ungoverned and deliberately skips it (the tracker
    // dies with the query — see memory_tracker.h).
    if (g->tracker != nullptr) g->Free(static_cast<int64_t>(rounded));
  }
}

// A fresh anonymous mapping of `rounded` bytes (a multiple of
// kHugePageBytes) whose start is 2 MiB aligned, so every 2 MiB of it can
// be one huge page; nullptr when the kernel refuses the mapping.
void* MapHugeAligned(size_t rounded) {
  const size_t span = rounded + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = RoundUp(base, kHugePageBytes);
  const size_t head = aligned - base;
  const size_t tail = span - head - rounded;
  if (head > 0) munmap(raw, head);
  if (tail > 0) munmap(reinterpret_cast<void*>(aligned + rounded), tail);
  return reinterpret_cast<void*>(aligned);
}

}  // namespace

void* NumaAlloc(size_t bytes, int socket) {
  (void)socket;  // Logical tag only; carried by the owning container.
  if (bytes == 0) bytes = kCacheLineSize;
  // Round up so aligned_alloc's size-multiple-of-alignment rule holds.
  const size_t rounded = RoundUp(bytes, kCacheLineSize);
  ChargeGoverned(rounded);
  void* p = std::aligned_alloc(kCacheLineSize, rounded);
  if (p == nullptr) OutOfMemory(rounded);
  g_allocated_bytes.fetch_add(rounded, std::memory_order_relaxed);
  return p;
}

void NumaFree(void* p, size_t bytes) {
  if (p == nullptr) return;
  if (bytes == 0) bytes = kCacheLineSize;
  Uncharge(RoundUp(bytes, kCacheLineSize));
  std::free(p);
}

void* NumaAllocBreaker(size_t bytes, int socket, bool* on_huge_pages) {
  if (on_huge_pages != nullptr) *on_huge_pages = false;
  if (bytes < kHugePageMinBytes) return NumaAlloc(bytes, socket);
  // Charge what the mapping occupies: the free below recomputes the
  // same rounded size from the same `bytes`.
  const size_t rounded = RoundUp(bytes, kHugePageBytes);
  ChargeGoverned(rounded);
  void* p = MapHugeAligned(rounded);
  if (p == nullptr) OutOfMemory(rounded);
  g_allocated_bytes.fetch_add(rounded, std::memory_order_relaxed);
  const bool huge = madvise(p, rounded, MADV_HUGEPAGE) == 0;
  if (on_huge_pages != nullptr) *on_huge_pages = huge;
  return p;
}

void NumaFreeBreaker(void* p, size_t bytes) {
  if (bytes < kHugePageMinBytes) {
    NumaFree(p, bytes);
    return;
  }
  if (p == nullptr) return;
  const size_t rounded = RoundUp(bytes, kHugePageBytes);
  Uncharge(rounded);
  munmap(p, rounded);
}

size_t NumaAllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

}  // namespace morsel
