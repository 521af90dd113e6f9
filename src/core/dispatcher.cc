#include "core/dispatcher.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/memory_tracker.h"
#include "common/query_status.h"
#include "common/timer.h"
#include "core/qep.h"

namespace morsel {

namespace {
// MORSEL_DEBUG_JOBS=1 prints one line per completed pipeline job.
bool DebugJobs() {
  static bool enabled = std::getenv("MORSEL_DEBUG_JOBS") != nullptr;
  return enabled;
}
}  // namespace

void Dispatcher::Submit(PipelineJob* job, WorkerContext& ctx) {
  job->submit_micros = WallTimer::NowMicros();
  for (auto& slot : slots_) {
    PipelineJob* expected = nullptr;
    if (slot.compare_exchange_strong(expected, job,
                                     std::memory_order_acq_rel)) {
      NotifyAll();
      // An empty pipeline (no input rows) completes right here on the
      // submitting thread; no worker would ever report a morsel for it.
      TryComplete(job, ctx);
      return;
    }
  }
  MORSEL_CHECK_MSG(false, "dispatcher job table full");
}

PipelineJob* Dispatcher::PickJob(WorkerContext& ctx) {
  PipelineJob* best = nullptr;
  double best_score = 0.0;
  for (auto& slot : slots_) {
    PipelineJob* job = slot.load(std::memory_order_acquire);
    if (job == nullptr) continue;
    if (job->completed.load(std::memory_order_acquire)) continue;
    QueryContext* q = job->query();
    // Deadline enforcement happens here, at the hand-out point: the
    // first worker to look at an expired query's job errors it (which
    // implies Cancel), so no further morsels go out.
    if (q->DeadlineExpired() && !q->cancelled()) {
      q->SetError(QueryStatus::DeadlineExceeded());
    }
    if (q->cancelled()) {
      // Fail-fast liveness: a query cancelled via SetError (worker
      // fault, deadline) may have sibling jobs with no outstanding
      // morsels that nobody else will ever complete — nudge them
      // through the drain here instead of skipping silently.
      TryComplete(job, ctx);
      continue;
    }
    int active = q->active_workers().load(std::memory_order_relaxed);
    if (active >= q->max_workers()) continue;
    if (job->queue() == nullptr || job->queue()->Exhausted()) continue;
    // Fair share: fewest active workers relative to priority wins.
    double score = (active + 1) / q->priority();
    if (best == nullptr || score < best_score) {
      best = job;
      best_score = score;
    }
  }
  return best;
}

bool Dispatcher::GetTask(WorkerContext& ctx, Morsel* out) {
  // A few retries cover races where the picked job drains between the
  // pick and the cut; after that, report no work (worker will park).
  for (int attempt = 0; attempt < 3; ++attempt) {
    PipelineJob* job = PickJob(ctx);
    if (job == nullptr) return false;
    // An elastic cap below the pool size (§3.1) is enforced by reserving
    // the worker's place with a CAS before the cut: PickJob's read of
    // active_workers alone lets two workers pass a cap of 1 together.
    // Uncapped queries keep the plain increment after the cut.
    QueryContext* q = job->query();
    const bool capped =
        q->max_workers() < static_cast<int>(sections_.size());
    if (capped && !ReserveWorker(q)) continue;
    // Reserve the hand-out BEFORE cutting: if this worker takes the last
    // morsel, the queue reads as exhausted immediately, and a sibling's
    // TryComplete must not see finished == handed_out until this morsel
    // is processed. (Otherwise the job finalizes and its successors read
    // sink state the straggler is still writing.) seq_cst pairs with the
    // draining gate below.
    job->handed_out.fetch_add(1, std::memory_order_seq_cst);
    if (job->draining.load(std::memory_order_seq_cst)) {
      // The job began completing (cancellation or exhaustion) between
      // the pick and the reservation; a morsel cut now could run on a
      // job whose owner is already freeing it. Back off — and since our
      // transient over-count may have suppressed the completing
      // thread's counter check, re-examine the job ourselves.
      job->handed_out.fetch_sub(1, std::memory_order_seq_cst);
      if (capped) ReleaseWorker(q);
      TryComplete(job, ctx);
      continue;
    }
    if (job->queue()->Next(ctx.socket, out)) {
      out->job = job;
      if (!capped) {
        q->active_workers().fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    // Queue drained under us: undo the reservations. Our temporary
    // over-count may have suppressed the completion check in a sibling
    // that finished the true last morsel, so re-examine the job.
    job->handed_out.fetch_sub(1, std::memory_order_acq_rel);
    if (capped) ReleaseWorker(q);
    TryComplete(job, ctx);
  }
  return false;
}

void Dispatcher::ReleaseWorker(QueryContext* q) {
  q->active_workers().fetch_sub(1, std::memory_order_relaxed);
  // A sibling refused this place may have parked; its work may be on a
  // job other than the one that just failed to cut.
  NotifyAll();
}

bool Dispatcher::ReserveWorker(QueryContext* q) {
  int active = q->active_workers().load(std::memory_order_relaxed);
  do {
    if (active >= q->max_workers()) return false;
  } while (!q->active_workers().compare_exchange_weak(
      active, active + 1, std::memory_order_relaxed));
  return true;
}

void Dispatcher::FinishMorsel(const Morsel& m, WorkerContext& ctx) {
  PipelineJob* job = m.job;
  QueryContext* q = job->query();
  q->active_workers().fetch_sub(1, std::memory_order_relaxed);
  q->morsels_run.fetch_add(1, std::memory_order_relaxed);
  if (m.stolen) q->morsels_stolen.fetch_add(1, std::memory_order_relaxed);
  job->finished.fetch_add(1, std::memory_order_acq_rel);
  TryComplete(job, ctx);
  // Capacity freed (elastic caps) or a sibling may now finish: give
  // parked workers a chance to re-check.
  NotifyAll();
}

void Dispatcher::TryComplete(PipelineJob* job, WorkerContext& ctx) {
  // A job is complete when no further morsels will be handed out
  // (exhausted queue or cancelled query) and all handed-out morsels have
  // been processed. The observing worker runs the completion: this is the
  // paper's passive QEP state machine, "executed on the otherwise unused
  // core of the worker thread" that found no more work.
  bool no_more = job->query()->cancelled() ||
                 (job->queue() != nullptr && job->queue()->Exhausted());
  if (!no_more) return;
  // Close the job to new hand-outs BEFORE checking the counters (the
  // other half of the two-phase gate, see PipelineJob::draining).
  job->draining.store(true, std::memory_order_seq_cst);
  uint64_t done = job->finished.load(std::memory_order_seq_cst);
  uint64_t out = job->handed_out.load(std::memory_order_seq_cst);
  if (done != out) return;
  if (job->completed.exchange(true, std::memory_order_acq_rel)) return;
  RemoveJob(job);
  QueryContext* q = job->query();
  // Finalize only on a clean query: a cancelled or errored query must
  // not run completion logic (adaptive decisions would splice pipelines
  // on top of garbage state). Finalize itself allocates (hash-table
  // creation, merge pre-sizing), so it runs governed and
  // exception-guarded like worker morsel execution; a throw becomes the
  // query's status and the QEP drains via PipelineFinished below.
  if (!q->cancelled() && !q->has_error()) {
    ScopedAllocationGovernor governor(&q->memory_tracker(),
                                      q->fault_injector());
    try {
      job->Finalize(ctx);
    } catch (const QueryAbort& e) {
      q->SetError(e.status());
    } catch (const std::bad_alloc&) {
      q->SetError(QueryStatus::MemoryExceeded("out of memory"));
    } catch (const std::exception& e) {
      q->SetError(QueryStatus::Internal(
          std::string("pipeline finalize failed: ") + e.what()));
    }
  }
  if (DebugJobs()) {
    std::fprintf(stderr, "[job] q%d %-18s %8.2f ms  %llu morsels\n",
                 job->query()->id(), job->name().c_str(),
                 (WallTimer::NowMicros() - job->submit_micros) / 1000.0,
                 static_cast<unsigned long long>(job->finished.load()));
  }
  if (job->qep != nullptr) job->qep->PipelineFinished(job, ctx);
}

void Dispatcher::CancelQuery(QueryContext* query, WorkerContext& ctx) {
  query->Cancel();
  for (auto& slot : slots_) {
    PipelineJob* job = slot.load(std::memory_order_acquire);
    if (job != nullptr && job->query() == query) TryComplete(job, ctx);
  }
  NotifyAll();
}

void Dispatcher::RemoveJob(PipelineJob* job) {
  for (auto& slot : slots_) {
    PipelineJob* expected = job;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void Dispatcher::RegisterWorkerSection(std::atomic<uint64_t>* section) {
  // Called by the WorkerPool during construction, before any queries run.
  sections_.push_back(section);
}

void Dispatcher::RegisterExternalSection(std::atomic<uint64_t>* section) {
  external_section_ = section;
}

void Dispatcher::Quiesce() const {
  auto wait_out = [](const std::atomic<uint64_t>* section) {
    uint64_t v = section->load(std::memory_order_acquire);
    if ((v & 1) == 0) return;  // not inside a dispatcher section
    // Sections are a few hundred instructions, so spin briefly; past
    // that, yield: the section's owner may need this CPU to get out
    // (unpinned client threads share CPUs with pinned workers).
    constexpr int kSpinsBeforeYield = 128;
    for (int spins = 0; section->load(std::memory_order_acquire) == v;
         ++spins) {
      if (spins >= kSpinsBeforeYield) std::this_thread::yield();
    }
  };
  for (const std::atomic<uint64_t>* section : sections_) wait_out(section);
  if (external_section_ != nullptr) wait_out(external_section_);
}

void Dispatcher::WaitForWork(uint64_t seen_epoch,
                             const std::atomic<bool>& shutdown) {
  std::unique_lock<std::mutex> lock(park_mu_);
  park_cv_.wait(lock, [&] {
    return epoch_.load(std::memory_order_acquire) != seen_epoch ||
           shutdown.load(std::memory_order_acquire);
  });
}

void Dispatcher::NotifyAll() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  park_cv_.notify_all();
}

}  // namespace morsel
