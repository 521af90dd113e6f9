#include "engine/query.h"

#include <new>

#include "engine/lowering.h"

namespace morsel {

Query::Query(Engine* engine, int id, double priority)
    : engine_(engine),
      context_(id, priority),
      qep_(&context_, engine->dispatcher(),
           engine->options().serialize_roots) {
  context_.set_num_worker_slots(engine->pool()->num_worker_slots());
  const EngineOptions& opts = engine->options();
  context_.set_memory_budget(opts.memory_budget_bytes);
  if (opts.fault_injection.enabled) {
    context_.set_fault_injector(
        std::make_unique<FaultInjector>(opts.fault_injection));
  }
}

Query::~Query() {
  // A still-running query must not outlive its operator state: cancel and
  // drain before tearing down. The grace period for workers still holding
  // job pointers runs in ~QepObject, right before the jobs are freed.
  if (started_ && !context_.done()) {
    Cancel();
    Wait();
  }
}

void Query::SetPlan(const LogicalPlan& plan) {
  MORSEL_CHECK_MSG(!started_, "SetPlan after Start");
  MORSEL_CHECK_MSG(!plan_.valid(), "query already has a plan");
  MORSEL_CHECK_MSG(plan.valid(), "SetPlan requires a built LogicalPlan");
  plan_ = plan;
  // Worst-case splice reservation for staged lowering: every remaining
  // node past a deferred join lowers at runtime, and a node produces at
  // most 5 jobs (merge join: 2 materialize + 2 sort + a nested decision
  // placeholder). Over-reserving costs pointer slots only.
  qep_.ReserveSplice(5 * plan_.num_nodes() + 8);
  Lowering* lowering = Own<Lowering>(this, plan_.root());
  // Lowering allocates operator state (per-worker row buffers, arenas),
  // so it runs governed like execution; a budget breach or injected
  // allocation fault here errors the query instead of crashing, and
  // Start() then drains to a status-carrying empty result.
  ScopedAllocationGovernor governor(&context_.memory_tracker(),
                                    context_.fault_injector());
  try {
    lowering->Run();
  } catch (const QueryAbort& e) {
    context_.SetError(e.status());
  } catch (const std::bad_alloc&) {
    context_.SetError(QueryStatus::MemoryExceeded("out of memory"));
  } catch (const std::exception& e) {
    context_.SetError(QueryStatus::Internal(
        std::string("plan lowering failed: ") + e.what()));
  }
}

void Query::Start() {
  MORSEL_CHECK_MSG(!started_, "query already started");
  MORSEL_CHECK_MSG(plan_.valid(), "Start without a plan");
  started_ = true;
  // A query that already errored during lowering has a partial QEP;
  // don't submit it — resolve to done so Wait/Execute return the status.
  if (context_.has_error()) {
    context_.MarkDone();
    return;
  }
  if (engine_->options().deadline_ms > 0 && !context_.has_deadline()) {
    context_.SetDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(engine_->options().deadline_ms));
  }
  qep_.Start(engine_->pool()->external_context());
}

void Query::Wait() { context_.Wait(); }

ResultSet Query::Execute() {
  Start();
  Wait();
  return TakeResult();
}

ResultSet Query::TakeResult() {
  QueryStatus st = context_.status();
  if (!st.ok()) {
    // Failed execution: sinks were never finalized, so there is no
    // result to take — surface the structured status instead.
    ResultSet r;
    r.set_status(std::move(st));
    return r;
  }
  // Single-shot: the provider moves the sink's buffer out, so a second
  // taker — possible once concurrent waiters exist (the server's FETCH
  // path races a session-teardown drain) — must not observe a silently
  // empty moved-from result, and two concurrent takers must not race on
  // the move itself. First exchange wins; everyone else gets a
  // structured error.
  if (result_taken_.exchange(true, std::memory_order_acq_rel)) {
    ResultSet r;
    r.set_status(QueryStatus::Internal("result already consumed"));
    return r;
  }
  MORSEL_CHECK_MSG(result_fn_ != nullptr,
                   "plan has no terminal (OrderBy/CollectResult)");
  return result_fn_();
}

std::string Query::ExplainPlan() const {
  std::string out = qep_.Describe();
  int64_t peak = context_.memory_tracker().peak();
  if (peak > 0) {
    out += "[peak-memory: " + std::to_string(peak) + " bytes";
    if (context_.memory_tracker().budget() > 0) {
      out += " / budget " +
             std::to_string(context_.memory_tracker().budget());
    }
    out += "]\n";
  }
  return out;
}

void Query::Cancel() {
  engine_->dispatcher()->CancelQuery(&context_,
                                     engine_->pool()->external_context());
}

int Query::AddJob(std::unique_ptr<PipelineJob> job, std::vector<int> deps) {
  return qep_.AddPipeline(std::move(job), std::move(deps));
}

int Query::SpliceJob(std::unique_ptr<PipelineJob> job,
                     std::vector<int> deps, int gate) {
  return qep_.SplicePipeline(std::move(job), std::move(deps), gate);
}

}  // namespace morsel
