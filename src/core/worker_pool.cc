#include "core/worker_pool.h"

#include <algorithm>
#include <new>
#include <string>

#include "common/fault_injector.h"
#include "common/memory_tracker.h"
#include "common/query_status.h"
#include "common/timer.h"
#include "numa/pinning.h"

namespace morsel {

WorkerPool::WorkerPool(const Topology& topo, Dispatcher* dispatcher,
                       MemStatsRegistry* stats, TraceRecorder* trace,
                       const Options& opts)
    : topo_(topo),
      dispatcher_(dispatcher),
      stats_(stats),
      trace_(trace),
      opts_(opts) {
  int n = opts.num_workers > 0 ? opts.num_workers : topo.total_cores();
  MORSEL_CHECK_MSG(stats_->num_workers() >= n + 1,
                   "MemStatsRegistry must have num_workers+1 slots");
  contexts_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto ctx = std::make_unique<WorkerContext>();
    ctx->worker_id = i;
    ctx->core = i % topo.total_cores();
    ctx->socket = topo.SocketOfCore(ctx->core);
    ctx->topo = &topo_;
    ctx->traffic = stats_->worker(i);
    ctx->trace = trace_;
    ctx->rng.Seed(0xabcd1234u + static_cast<uint64_t>(i));
    contexts_.push_back(std::move(ctx));
  }
  external_ctx_.worker_id = n;
  external_ctx_.core = 0;
  external_ctx_.socket = 0;
  external_ctx_.topo = &topo_;
  external_ctx_.traffic = stats_->worker(n);
  external_ctx_.trace = trace_;

  for (int i = 0; i < n; ++i) {
    dispatcher_->RegisterWorkerSection(&contexts_[i]->dispatcher_section);
  }
  dispatcher_->RegisterExternalSection(&external_ctx_.dispatcher_section);

  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
    // Bind by machine CPU slot, not simulated core: an engine on a
    // shard's slice starts at that slice's first CPU, so shards never
    // double-book a CPU while their simulated cores overlap.
    if (opts_.pin) {
      contexts_[i]->pinned_cpu =
          PinThreadToCpu(topo.first_cpu() + i, threads_[i].native_handle());
    }
  }
}

WorkerPool::~WorkerPool() {
  shutdown_.store(true, std::memory_order_release);
  dispatcher_->NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::WorkerLoop(int worker_id) {
  WorkerContext& ctx = *contexts_[worker_id];
  while (!shutdown_.load(std::memory_order_acquire)) {
    uint64_t epoch = dispatcher_->epoch();
    Morsel m;
    ctx.dispatcher_section.fetch_add(1, std::memory_order_acq_rel);
    bool got = dispatcher_->GetTask(ctx, &m);
    ctx.dispatcher_section.fetch_add(1, std::memory_order_acq_rel);
    if (got) {
      QueryContext* q = m.job->query();
      // Deterministic fault checkpoint: the injector may order a forced
      // cancel or deadline expiry at this morsel count.
      if (FaultInjector* fi = q->fault_injector()) {
        switch (fi->OnMorselStart()) {
          case FaultInjector::MorselFault::kCancel:
            q->SetError(QueryStatus::Cancelled());
            break;
          case FaultInjector::MorselFault::kDeadline:
            q->SetError(QueryStatus::DeadlineExceeded());
            break;
          case FaultInjector::MorselFault::kNone:
            break;
        }
      }
      // RunMorsel needs no section: the job cannot complete while this
      // worker's morsel is outstanding (finished < handed_out).
      //
      // Execution is governed (per-query memory charging + fault
      // injection, see memory_tracker.h) and exception-guarded: any
      // throw — QueryAbort from a governed checkpoint, bad_alloc from
      // anywhere — becomes the query's structured error and cancels it;
      // the morsel then counts as finished so the drain stays balanced.
      // A morsel handed out just before cancellation is skipped rather
      // than run: the query's result is already void, and skipping is
      // what makes cancellation latency a hand-out-time property.
      int64_t t0 = WallTimer::NowMicros();
      if (!q->cancelled()) {
        ScopedAllocationGovernor governor(&q->memory_tracker(),
                                          q->fault_injector());
        try {
          m.job->RunMorsel(m, ctx);
        } catch (const QueryAbort& e) {
          q->SetError(e.status());
        } catch (const std::bad_alloc&) {
          q->SetError(QueryStatus::MemoryExceeded("out of memory"));
        } catch (const std::exception& e) {
          q->SetError(QueryStatus::Internal(
              std::string("morsel execution failed: ") + e.what()));
        } catch (...) {
          q->SetError(QueryStatus::Internal("morsel execution failed"));
        }
      }
      int64_t t1 = WallTimer::NowMicros();
      if (ctx.core == opts_.slow_core && opts_.slow_factor > 1.0) {
        // Injected disturbance: stretch this morsel as if the core ran
        // at 1/slow_factor speed (deterministic §5.4 interference).
        int64_t extra = static_cast<int64_t>(
            (opts_.slow_factor - 1.0) * static_cast<double>(t1 - t0));
        int64_t deadline = t1 + extra;
        while (WallTimer::NowMicros() < deadline) {
        }
        t1 = deadline;
      }
      ctx.busy_micros += t1 - t0;
      ++ctx.morsels_run;
      if (m.stolen) ++ctx.morsels_stolen;
      if (ctx.trace != nullptr) {
        ctx.trace->Record(TraceEvent{worker_id, m.job->query()->id(),
                                     m.job->pipeline_id, t0, t1, m.stolen});
      }
      // FinishMorsel must be covered by the reclamation section: the
      // moment it bumps `finished`, a sibling worker may complete the
      // query, wake the client, and let it free the job under us.
      ctx.dispatcher_section.fetch_add(1, std::memory_order_acq_rel);
      dispatcher_->FinishMorsel(m, ctx);
      if (q->has_error()) {
        // An errored query's sibling jobs may have no outstanding
        // morsels left; sweep them through the drain so the QEP
        // resolves instead of waiting on a pick that will never come.
        dispatcher_->CancelQuery(q, ctx);
      }
      ctx.dispatcher_section.fetch_add(1, std::memory_order_acq_rel);
    } else {
      dispatcher_->WaitForWork(epoch, shutdown_);
    }
  }
}

std::vector<uint8_t> WorkerPool::SocketWorkerMask(int num_sockets) const {
  std::vector<uint8_t> mask(num_sockets, 0);
  for (const auto& c : contexts_) {
    if (c->socket >= 0 && c->socket < num_sockets) mask[c->socket] = 1;
  }
  return mask;
}

uint64_t WorkerPool::TotalMorselsRun() const {
  uint64_t n = 0;
  for (const auto& c : contexts_) n += c->morsels_run;
  return n;
}

uint64_t WorkerPool::TotalMorselsStolen() const {
  uint64_t n = 0;
  for (const auto& c : contexts_) n += c->morsels_stolen;
  return n;
}

int64_t WorkerPool::TotalBusyMicros() const {
  int64_t n = 0;
  for (const auto& c : contexts_) n += c->busy_micros;
  return n;
}

int64_t WorkerPool::MaxBusyMicros() const {
  int64_t n = 0;
  for (const auto& c : contexts_) n = std::max(n, c->busy_micros);
  return n;
}

int64_t WorkerPool::MinBusyMicros() const {
  if (contexts_.empty()) return 0;
  int64_t n = contexts_[0]->busy_micros;
  for (const auto& c : contexts_) n = std::min(n, c->busy_micros);
  return n;
}

void WorkerPool::ResetStats() {
  for (auto& c : contexts_) {
    c->morsels_run = 0;
    c->morsels_stolen = 0;
    c->busy_micros = 0;
  }
}

}  // namespace morsel
