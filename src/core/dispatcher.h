#ifndef MORSELDB_CORE_DISPATCHER_H_
#define MORSELDB_CORE_DISPATCHER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "core/morsel.h"
#include "core/pipeline_job.h"
#include "core/worker_context.h"
#include "numa/topology.h"

namespace morsel {

// The dispatcher (§3): assigns (pipeline-job, morsel) tasks to worker
// threads. It is deliberately *not* a thread — "the dispatcher is
// implemented as a lock-free data structure only [whose] code is executed
// by the work-requesting query evaluation thread itself" — so it consumes
// no core and cannot become a serial bottleneck.
//
// Job list: a fixed array of atomic slots holding pending pipeline jobs
// (only jobs whose prerequisites have completed, possibly from several
// queries — inter-query parallelism). Workers scan the slots without
// locks. Morsel hand-out inside each job is the lock-free MorselQueue.
//
// Fair share & elasticity (§3.1): when multiple queries are active, a
// work request picks the runnable job whose query has the smallest
// (active workers / priority) ratio, so threads spread equally over
// equal-priority queries and can be shifted at any morsel boundary by
// changing priority or max_workers. Cancellation marks are honoured here.
class Dispatcher {
 public:
  static constexpr int kMaxJobs = 128;

  explicit Dispatcher(const Topology& topo) : topo_(topo) {
    for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
  }

  const Topology& topology() const { return topo_; }

  // Publishes a prepared job and wakes parked workers. May complete the
  // job immediately (empty input) on the calling thread.
  void Submit(PipelineJob* job, WorkerContext& ctx);

  // Work request: selects a job and cuts a morsel from it. Runs on the
  // requesting worker's thread. Returns false if no runnable morsel
  // exists right now.
  bool GetTask(WorkerContext& ctx, Morsel* out);

  // Reports a finished morsel; runs the completion state machine (QEP
  // progression) on the calling worker when this was the last morsel.
  void FinishMorsel(const Morsel& m, WorkerContext& ctx);

  // Re-examines a job for completion. Needed for cancelled queries and
  // empty pipelines. Fires the completion exactly once.
  void TryComplete(PipelineJob* job, WorkerContext& ctx);

  // Marks `query` cancelled and completes its jobs that have no morsels
  // in flight (workers holding morsels finish them and complete the rest;
  // §3.2 query canceling).
  void CancelQuery(QueryContext* query, WorkerContext& ctx);

  // --- worker parking ----------------------------------------------------
  // Epoch bumps whenever new work may have appeared. Workers re-check for
  // work whenever the epoch advances.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void WaitForWork(uint64_t seen_epoch, const std::atomic<bool>& shutdown);
  void NotifyAll();

  // --- job-pointer reclamation --------------------------------------------
  // Workers scan the slot array without locks, so a job pointer may be
  // held briefly after the job completed and was removed. Each worker
  // registers a section counter (odd while inside GetTask); Quiesce()
  // waits one RCU-style grace period so a finished query may safely free
  // its jobs. The pool's external context registers one more section:
  // threads outside the pool (query start, cancel) scan the slots too.
  void RegisterWorkerSection(std::atomic<uint64_t>* section);
  void RegisterExternalSection(std::atomic<uint64_t>* section);
  void Quiesce() const;

 private:
  PipelineJob* PickJob(WorkerContext& ctx);
  // Claims one of `q`'s max_workers places (false when all are taken);
  // ReleaseWorker returns a claim that cut no morsel.
  bool ReserveWorker(QueryContext* q);
  void ReleaseWorker(QueryContext* q);
  void RemoveJob(PipelineJob* job);

  const Topology& topo_;
  std::array<std::atomic<PipelineJob*>, kMaxJobs> slots_;
  std::vector<std::atomic<uint64_t>*> sections_;  // one per pool worker
  std::atomic<uint64_t>* external_section_ = nullptr;

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace morsel

#endif  // MORSELDB_CORE_DISPATCHER_H_
