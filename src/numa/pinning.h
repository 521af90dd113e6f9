#ifndef MORSELDB_NUMA_PINNING_H_
#define MORSELDB_NUMA_PINNING_H_

#include <pthread.h>

namespace morsel {

// Pins `thread` (default: the calling thread) to the machine CPU
// `cpu_slot % hardware_concurrency` (§3: workers are "permanently bound"
// to cores so "no unexpected loss of NUMA locality can occur due to the
// OS moving a thread"). The slot is a machine coordinate, not a
// simulated core: WorkerPool passes Topology::first_cpu() + worker
// index. Returns the CPU pinned to, or -1 when the host forbids
// affinity changes; the engine then degrades gracefully to unpinned
// threads while all logical NUMA bookkeeping still uses the simulated
// core.
//
// Pinning can be disabled with MORSEL_NO_PINNING=1 (useful under
// sanitizers or in heavily restricted containers); it then returns -1.
int PinThreadToCpu(int cpu_slot, pthread_t thread = pthread_self());

}  // namespace morsel

#endif  // MORSELDB_NUMA_PINNING_H_
