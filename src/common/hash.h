#ifndef MORSELDB_COMMON_HASH_H_
#define MORSELDB_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace morsel {

// 64-bit mixers and hash functions used throughout the engine. The join
// hash table (§4.2 of the paper) derives both the slot index (high bits)
// and the 16-bit pointer tag from the same 64-bit hash, so these must have
// well-distributed high bits; we use finalizer-style multiply-xorshift
// mixers (Murmur3/SplitMix64 lineage).

// Mixes a 64-bit value; suitable as an integer key hash.
inline uint64_t Hash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Combines two hashes (order-dependent), for multi-column keys.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Hash64(a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL);
}

// Hashes an arbitrary byte string (FNV-1a core over 8-byte blocks with a
// 64-bit finalizer). Inline: key columns hash short strings per row, so
// the call and a variable-length memcpy for the tail would dominate.
inline uint64_t HashBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  while (len >= 8) {
    uint64_t block;
    std::memcpy(&block, p, 8);
    h = (h ^ block) * 0x100000001b3ULL;
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    // The tail as a little-endian word, zero-extended.
    uint64_t tail = 0;
    for (size_t i = 0; i < len; ++i) {
      tail |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    h = (h ^ tail) * 0x100000001b3ULL;
  }
  return Hash64(h);
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

// Hash of one key value: the per-value half of every key hash (column
// hashing in exec/operators.h, shard routing). Integers hash their
// sign-extended 64-bit value, so an int32 and an int64 key holding the
// same number hash alike; doubles hash their bit pattern.
template <typename T>
inline uint64_t HashValue(T v) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    return HashString(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return Hash64(std::bit_cast<uint64_t>(v));
  } else {
    static_assert(std::is_integral_v<T>);
    return Hash64(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
}

}  // namespace morsel

#endif  // MORSELDB_COMMON_HASH_H_
