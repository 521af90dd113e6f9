#ifndef MORSELDB_EXEC_TAGGED_HASH_TABLE_H_
#define MORSELDB_EXEC_TAGGED_HASH_TABLE_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "numa/allocator.h"

namespace morsel {

// The paper's lock-free tagged hash table (§4.2, Figure 7).
//
// The table is an array of 8-byte slots. Each slot packs a 48-bit pointer
// to the head of a chain of tuples with a 16-bit tag in the upper bits: a
// tiny Bloom-style filter into which every element of the chain sets one
// bit. A selective probe whose tag bit is clear skips the chain entirely,
// usually reducing a probe miss to a single cache miss — without any
// auxiliary Bloom-filter structure or optimizer estimate.
//
// Synchronization exploits that join hash tables are insert-only and
// probed only after all inserts finished: insertion is a single
// compare-and-swap that simultaneously publishes the new chain head and
// the merged tag (Figure 7's pseudocode, verbatim below).
//
// Slot index = hash >> shift (high bits), matching the table-partitioning
// hash bits so co-located relations hit co-located buckets (§4.3).
// Sizing: "at least twice the size of the input" — BuildForCount picks
// the next power of two >= 2 * count.
//
// Placement: the array is logically interleaved across all sockets
// (kInterleavedSocket) in 2 MB chunks, and from 4 MiB up it physically
// sits on 2 MiB pages of its own mapping (NumaAllocBreaker), as the
// paper allocates it. Such a fresh mapping reads as zero, so the
// constructor does not zero it: the inserting workers' first writes do,
// page by page (DESIGN.md §17).
class TaggedHashTable {
 public:
  // Creates a table with capacity for `count` entries (perfect sizing
  // happens after the build side is materialized and counted, §4.1).
  explicit TaggedHashTable(uint64_t count);
  ~TaggedHashTable();

  TaggedHashTable(const TaggedHashTable&) = delete;
  TaggedHashTable& operator=(const TaggedHashTable&) = delete;

  uint64_t num_slots() const { return n_slots_; }
  // Size of the slot array.
  size_t bytes() const { return n_slots_ * sizeof(std::atomic<uint64_t>); }
  uint64_t SlotOf(uint64_t hash) const { return hash >> shift_; }
  // Byte offset of a slot, for interleaved traffic accounting.
  uint64_t SlotByteOffset(uint64_t hash) const { return SlotOf(hash) * 8; }

  // Lock-free insert of `tuple` (whose layout reserves a next pointer at
  // offset 0) under `hash`. Thread-safe; wait-free except for CAS retry.
  void Insert(uint8_t* tuple, uint64_t hash);

  // Chain head for `hash`, or nullptr. With `use_tagging`, filters via
  // the 16-bit tag first (the early-filtering optimization); without, it
  // behaves like a plain chaining table (ablation mode).
  uint8_t* LookupHead(uint64_t hash, bool use_tagging) const {
    uint64_t slot = slots_[SlotOf(hash)].load(std::memory_order_acquire);
    if (use_tagging && (slot & TagOf(hash)) == 0) return nullptr;
    return DecodePointer(slot);
  }

  // Issues a prefetch for the slot of `hash`. First sweep of the staged
  // probe pipeline (DESIGN.md §5): prefetching a whole chunk's slots
  // before the first is read lets the misses overlap.
  void PrefetchSlot(uint64_t hash) const {
    MORSEL_PREFETCH(&slots_[SlotOf(hash)]);
  }

  // Raw slot word (tag bits + pointer) for `hash`; lets batched probing
  // apply the tag filter on a value it already paid the cache miss for.
  uint64_t SlotValue(uint64_t hash) const {
    return slots_[SlotOf(hash)].load(std::memory_order_acquire);
  }

  static constexpr uint64_t kPointerMask = (uint64_t{1} << 48) - 1;

  static uint8_t* DecodePointer(uint64_t slot) {
    return reinterpret_cast<uint8_t*>(slot & kPointerMask);
  }

  // Tag bit derived from low-ish hash bits — deliberately different bits
  // than the slot index so the filter adds information.
  static uint64_t TagOf(uint64_t hash) {
    return uint64_t{1} << (48 + ((hash >> 16) & 15));
  }

 private:
  std::atomic<uint64_t>* slots_ = nullptr;
  uint64_t n_slots_ = 0;
  int shift_ = 0;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_TAGGED_HASH_TABLE_H_
