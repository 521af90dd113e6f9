#ifndef MORSELDB_CORE_WORKER_POOL_H_
#define MORSELDB_CORE_WORKER_POOL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/dispatcher.h"
#include "core/trace.h"
#include "core/worker_context.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {

// The engine's thread pool (§3): "we (pre-)create one worker thread for
// each hardware thread that the machine provides and permanently bind
// each worker to it", so parallelism is controlled purely by task
// assignment, never by creating or terminating threads, and the OS can
// never silently migrate a worker off its NUMA node.
//
// Each worker loops: request a task from the dispatcher, run the pipeline
// on the morsel, report completion (which may advance the QEP state
// machine on this very thread), repeat; park when no work exists.
class WorkerPool {
 public:
  struct Options {
    int num_workers = 0;  // 0 = one per virtual core of the topology
    bool pin = true;      // pthread affinity (best effort)
    // Deterministic interference injection (§5.4 experiments): workers on
    // `slow_core` take `slow_factor` times as long per morsel, emulating
    // a core disturbed by an unrelated process. -1 = disabled.
    int slow_core = -1;
    double slow_factor = 2.0;
  };

  WorkerPool(const Topology& topo, Dispatcher* dispatcher,
             MemStatsRegistry* stats, TraceRecorder* trace,
             const Options& opts);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }

  // Context for threads outside the pool (query submission and
  // cancellation, empty-pipeline finalization). Occupies worker slot
  // `num_workers`. Concurrent callers go through RunExternal.
  WorkerContext& external_context() { return external_ctx_; }

  // Runs fn(external_context()) for a thread outside the pool. Callers
  // are serialized, since they share the one context, and the call is a
  // dispatcher section: Quiesce waits for it, so another query's
  // teardown cannot free a job the call is reading.
  template <typename Fn>
  void RunExternal(const Fn& fn) {
    std::lock_guard<std::mutex> lock(external_mu_);
    std::atomic<uint64_t>& section = external_ctx_.dispatcher_section;
    section.fetch_add(1, std::memory_order_acq_rel);
    struct Exit {
      std::atomic<uint64_t>& s;
      ~Exit() { s.fetch_add(1, std::memory_order_acq_rel); }
    } exit{section};
    fn(external_ctx_);
  }

  // Number of worker-local state slots jobs must allocate
  // (num_workers + 1 for the external thread).
  int num_worker_slots() const { return num_workers() + 1; }

  // mask[s] != 0 iff at least one pool worker is pinned to socket s.
  // With fewer workers than sockets some entries are 0; the morsel queue
  // uses this to keep no-steal configurations live (orphaned sockets
  // fall back to remote workers). The external thread is not counted —
  // it never loops for work.
  std::vector<uint8_t> SocketWorkerMask(int num_sockets) const;

  // Aggregate scheduling statistics over all workers.
  uint64_t TotalMorselsRun() const;
  uint64_t TotalMorselsStolen() const;
  int64_t TotalBusyMicros() const;
  // Busy time of the busiest / least busy worker — load balance metric
  // (the paper's "photo finish" claim).
  int64_t MaxBusyMicros() const;
  int64_t MinBusyMicros() const;
  // Per-worker statistics (w in [0, num_workers)).
  uint64_t WorkerMorselsRun(int w) const { return contexts_[w]->morsels_run; }
  int64_t WorkerBusyMicros(int w) const { return contexts_[w]->busy_micros; }
  // Machine CPU worker w is bound to (-1 if unpinned).
  int WorkerPinnedCpu(int w) const { return contexts_[w]->pinned_cpu; }
  void ResetStats();

 private:
  void WorkerLoop(int worker_id);

  const Topology& topo_;
  Dispatcher* dispatcher_;
  MemStatsRegistry* stats_;
  TraceRecorder* trace_;
  Options opts_;
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> threads_;
  // One context per worker, stable addresses.
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  std::mutex external_mu_;
  WorkerContext external_ctx_;
};

}  // namespace morsel

#endif  // MORSELDB_CORE_WORKER_POOL_H_
