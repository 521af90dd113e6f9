#ifndef MORSELDB_CORE_WORKER_CONTEXT_H_
#define MORSELDB_CORE_WORKER_CONTEXT_H_

#include <cstdint>

#include "common/rng.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {

class TraceRecorder;

// Per-worker execution context threaded through every pipeline run.
// worker_id doubles as the index into per-job worker-local state arrays.
struct WorkerContext {
  int worker_id = 0;  // dense 0..num_worker_slots-1
  int core = 0;       // virtual core (topology coordinate)
  int socket = 0;     // topology socket of `core`
  // Machine CPU the worker is bound to, -1 if unpinned (pinning off or
  // refused, and for the external context). Set once at pool start.
  int pinned_cpu = -1;
  const Topology* topo = nullptr;
  TrafficCounters* traffic = nullptr;  // never null during execution
  TraceRecorder* trace = nullptr;      // may be null
  Rng rng;

  // Scheduling statistics for this worker.
  uint64_t morsels_run = 0;
  uint64_t morsels_stolen = 0;
  int64_t busy_micros = 0;

  // RCU-style section counter: odd while the worker is scanning the
  // dispatcher's job slots (see Dispatcher::Quiesce).
  std::atomic<uint64_t> dispatcher_section{0};
};

}  // namespace morsel

#endif  // MORSELDB_CORE_WORKER_CONTEXT_H_
