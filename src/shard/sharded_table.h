#ifndef MORSELDB_SHARD_SHARDED_TABLE_H_
#define MORSELDB_SHARD_SHARDED_TABLE_H_

// A table fragmented across N shared-nothing engine shards (DESIGN
// §14). The *canonical* Table — the one plans are authored against and
// the single-engine oracle executes on — stays where it is; a
// ShardedTable builds one fragment Table per shard (on the shard's
// sliced topology) and copies the canonical rows across, routing each
// row by its distribution policy:
//
//  - kHash: shard = ShardPartitionOf(key hash of HashColumns) — the SAME
//    hash family (high bits) the exchange send path and
//    Table::PartitionOfKey use, so scans of a hash-distributed table
//    are born co-partitioned with exchange output on the same keys.
//  - kRoundRobin: rows dealt across shards; no distribution property.
//  - kReplicated: every shard holds the full table (dimension tables —
//    joins against them need no exchange at all).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "numa/topology.h"
#include "storage/table.h"

namespace morsel {

enum class ShardDist {
  kHash,
  kRoundRobin,
  kReplicated,
};

class ShardedTable {
 public:
  // `hash_keys` are canonical-schema column names; required (non-empty)
  // for kHash, ignored otherwise. One fragment is created per entry of
  // `shard_topos`, named `<canonical>@shard<i>`.
  ShardedTable(const Table* canonical, ShardDist dist,
               std::vector<std::string> hash_keys,
               const std::vector<Topology>& shard_topos);

  // Copies every sealed canonical row into the fragments and seals
  // them: route vectors first (one per source partition), then one
  // loader thread per shard appends its rows a column at a time.
  // Load-phase only.
  void Load();

  const Table* canonical() const { return canonical_; }
  ShardDist dist() const { return dist_; }
  const std::vector<std::string>& hash_keys() const { return hash_keys_; }
  int num_shards() const { return static_cast<int>(frags_.size()); }
  Table* fragment(int shard) { return frags_[shard].get(); }
  const Table* fragment(int shard) const { return frags_[shard].get(); }

 private:
  // Shard of every sealed row of canonical partition `part`, whose first
  // row has round-robin ordinal `first_ordinal`. Not for kReplicated.
  std::vector<uint32_t> RoutePartition(int part, size_t first_ordinal) const;
  // Appends the rows `routes` sends to `shard` (all rows if replicated)
  // to its fragment and seals it.
  void LoadFragment(int shard,
                    const std::vector<std::vector<uint32_t>>& routes);

  const Table* canonical_;
  ShardDist dist_;
  std::vector<std::string> hash_keys_;
  std::vector<int> hash_key_cols_;
  std::vector<std::unique_ptr<Table>> frags_;
};

}  // namespace morsel

#endif  // MORSELDB_SHARD_SHARDED_TABLE_H_
