#include "shard/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "shard/sharded_query.h"

namespace morsel {

ShardedEngine::ShardedEngine(const Topology& topo, int num_shards,
                             const EngineOptions& opts)
    : opts_(opts) {
  MORSEL_CHECK(num_shards >= 1);
  // Shared-nothing slicing: with enough sockets each shard owns a
  // contiguous socket group (shard = NUMA domain set); on smaller
  // topologies every shard runs a one-socket engine. Simulated cores
  // restart at 0 in every slice, but machine CPUs do not: shard s pins
  // from the slot after shards 0..s-1's workers, so shards own disjoint
  // CPUs (wrapping evenly once workers outnumber CPUs).
  const int sockets_per_shard =
      std::max(1, topo.num_sockets() / num_shards);
  int first_cpu = 0;
  for (int s = 0; s < num_shards; ++s) {
    Topology slice(sockets_per_shard, topo.cores_per_socket(),
                   topo.interconnect());
    shard_topos_.push_back(slice.WithFirstCpu(first_cpu));
    engines_.push_back(std::make_unique<Engine>(shard_topos_[s], opts_));
    first_cpu += engines_[s]->pool()->num_workers();
  }
}

ShardedEngine::~ShardedEngine() = default;

ShardedTable* ShardedEngine::RegisterTable(
    const Table* canonical, ShardDist dist,
    std::vector<std::string> hash_keys) {
  auto st = std::make_unique<ShardedTable>(canonical, dist,
                                           std::move(hash_keys),
                                           shard_topos_);
  st->Load();
  ShardedTable* raw = st.get();
  tables_[canonical] = std::move(st);
  return raw;
}

const ShardedTable* ShardedEngine::FindTable(const Table* canonical) const {
  auto it = tables_.find(canonical);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::unique_ptr<ShardedQuery> ShardedEngine::CreateQuery(
    const LogicalPlan& plan, double priority) {
  return std::make_unique<ShardedQuery>(this, plan, priority);
}

}  // namespace morsel
