#include "exec/tagged_hash_table.h"

#include <cstring>

#include "exec/tuple.h"

namespace morsel {

TaggedHashTable::TaggedHashTable(uint64_t count) {
  // Perfect sizing to >= 2x the input, power of two, minimum 1024 slots.
  uint64_t want = count < 512 ? 1024 : count * 2;
  n_slots_ = 1024;
  int bits = 10;
  while (n_slots_ < want) {
    n_slots_ <<= 1;
    ++bits;
  }
  shift_ = 64 - bits;
  // Placement and zeroing, paper §4.2: a large slot array is a fresh
  // mapping on 2 MiB pages, zero by construction, so no zeroing pass runs
  // here in the build's serial Finalize — each page is zeroed by the
  // kernel when an inserting worker first writes to it, in parallel and
  // inside insert morsels. Small arrays (NumaAlloc) and a refused
  // huge-page advice get the explicit memset: lazily faulted 4 KiB pages
  // cost the inserts more than one up-front pass (DESIGN.md §17).
  bool on_huge_pages = false;
  slots_ = static_cast<std::atomic<uint64_t>*>(
      NumaAllocBreaker(bytes(), kInterleavedSocket, &on_huge_pages));
  if (!on_huge_pages) std::memset(static_cast<void*>(slots_), 0, bytes());
}

TaggedHashTable::~TaggedHashTable() {
  NumaFreeBreaker(slots_, bytes());
}

void TaggedHashTable::Insert(uint8_t* tuple, uint64_t hash) {
  uint64_t ptr = reinterpret_cast<uint64_t>(tuple);
  MORSEL_CHECK_MSG((ptr & ~kPointerMask) == 0,
                   "tuple pointer exceeds 48 bits");
  std::atomic<uint64_t>& slot = slots_[SlotOf(hash)];
  uint64_t old = slot.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    // Set next to the old chain head, without the tag bits.
    TupleLayout::SetNext(tuple, DecodePointer(old));
    // New slot value: our pointer, the accumulated old tags, our tag.
    desired = ptr | (old & ~kPointerMask) | TagOf(hash);
  } while (!slot.compare_exchange_weak(old, desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed));
}

}  // namespace morsel
