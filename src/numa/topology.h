#ifndef MORSELDB_NUMA_TOPOLOGY_H_
#define MORSELDB_NUMA_TOPOLOGY_H_

#include <vector>

namespace morsel {

// Shape of the cross-socket interconnect (paper Figure 10).
enum class InterconnectKind {
  // Every socket pair is directly linked (Nehalem EX / Ivy Bridge EX).
  kFullyConnected,
  // Each socket links only to its ring neighbours, so the diagonal pair
  // needs two hops (Sandy Bridge EP / Ivy Bridge EP).
  kRing,
};

// Describes the (possibly simulated) NUMA machine the engine runs on:
// sockets, cores per socket and the inter-socket distance matrix. All
// scheduling decisions in the dispatcher — local-morsel preference and
// steal-from-closest-socket ordering (§3.2) — consult this class.
//
// On hosts without a real multi-socket topology (this reproduction's
// default environment) a virtual topology is synthesized and memory
// placement is tracked logically via allocation tags (see DESIGN.md §1).
// The simulated core is not the machine CPU: worker i of an engine on
// this topology keeps core i mod total_cores for every scheduling and
// NUMA decision, but pins to machine CPU slot first_cpu() + i (mod
// nproc). A whole-machine topology starts at slot 0; ShardedEngine
// gives each shard's slice the slots after the previous shards' workers,
// so shards own disjoint CPUs.
class Topology {
 public:
  Topology(int num_sockets, int cores_per_socket, InterconnectKind kind);

  // Builds the process-default topology. Honours environment overrides
  // MORSEL_SOCKETS, MORSEL_CORES_PER_SOCKET and MORSEL_INTERCONNECT
  // ("full" | "ring"); otherwise synthesizes the paper's evaluation
  // machine shape: 4 sockets x 8 cores, fully connected (Nehalem EX).
  static Topology Detect();

  // Paper Figure 10 presets.
  static Topology NehalemEx() {
    return Topology(4, 8, InterconnectKind::kFullyConnected);
  }
  static Topology SandyBridgeEp() {
    return Topology(4, 8, InterconnectKind::kRing);
  }

  int num_sockets() const { return num_sockets_; }
  int cores_per_socket() const { return cores_per_socket_; }
  int total_cores() const { return num_sockets_ * cores_per_socket_; }
  InterconnectKind interconnect() const { return kind_; }

  // First machine CPU slot of the engine running on this topology.
  int first_cpu() const { return first_cpu_; }
  // This topology with its CPU slot range starting at `first_cpu`.
  Topology WithFirstCpu(int first_cpu) const {
    Topology t = *this;
    t.first_cpu_ = first_cpu;
    return t;
  }

  // Socket that owns a (virtual) core.
  int SocketOfCore(int core) const { return core / cores_per_socket_; }

  // Interconnect hops between sockets: 0 (same), 1 (direct link) or 2.
  int Distance(int from, int to) const {
    return distance_[from * num_sockets_ + to];
  }

  // Sockets ordered by increasing distance from `socket` (self first).
  // The dispatcher steals work in this order so that, on partially
  // connected topologies, it "pays off to steal from closer sockets
  // first" (§3.2).
  const std::vector<int>& StealOrder(int socket) const {
    return steal_order_[socket];
  }

 private:
  int num_sockets_;
  int cores_per_socket_;
  InterconnectKind kind_;
  int first_cpu_ = 0;
  std::vector<int> distance_;                 // num_sockets^2 hop matrix
  std::vector<std::vector<int>> steal_order_; // per-socket visit order
};

}  // namespace morsel

#endif  // MORSELDB_NUMA_TOPOLOGY_H_
