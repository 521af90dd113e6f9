#ifndef MORSELDB_SHARD_SHARDED_ENGINE_H_
#define MORSELDB_SHARD_SHARDED_ENGINE_H_

// N in-process shared-nothing Engine shards behind one query façade
// (DESIGN §14). Each shard gets a slice of the machine topology (one
// engine per NUMA-node group first; separate processes are a follow-up
// — the exchange protocol already never shares operator state across
// shards, only the channel mailbox). Plans are authored against the
// *canonical* tables; RegisterTable fragments them across shards and
// CreateQuery hands back a ShardedQuery whose coordinator distributes
// the plan stage by stage over per-shard engines.

#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "shard/sharded_table.h"

namespace morsel {

class ShardedQuery;

class ShardedEngine {
 public:
  // Slices `topo` into `num_shards` engine topologies: with at least
  // one socket per shard each engine owns sockets/num_shards sockets,
  // otherwise every shard runs a one-socket engine. Shard s's workers
  // pin to the machine CPU slots after shards 0..s-1's workers, so the
  // shards own disjoint CPUs. `opts` applies per shard (num_workers is
  // per-shard workers; 0 = the slice's cores).
  ShardedEngine(const Topology& topo, int num_shards,
                const EngineOptions& opts = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(engines_.size()); }
  Engine* shard(int i) { return engines_[i].get(); }
  const Topology& shard_topology(int i) const { return shard_topos_[i]; }
  const EngineOptions& options() const { return opts_; }

  // Fragments `canonical` across the shards and loads its sealed rows
  // (see ShardedTable). Must run before queries that scan the table;
  // re-registering a table replaces its fragments.
  ShardedTable* RegisterTable(const Table* canonical, ShardDist dist,
                              std::vector<std::string> hash_keys = {});
  // Fragment set for a canonical table; null if never registered.
  const ShardedTable* FindTable(const Table* canonical) const;

  // A distributed execution of `plan` (authored against canonical
  // tables). The coordinator starts on ShardedQuery::Start.
  std::unique_ptr<ShardedQuery> CreateQuery(const LogicalPlan& plan,
                                            double priority = 1.0);

 private:
  EngineOptions opts_;
  std::vector<Topology> shard_topos_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::unordered_map<const Table*, std::unique_ptr<ShardedTable>> tables_;
};

}  // namespace morsel

#endif  // MORSELDB_SHARD_SHARDED_ENGINE_H_
