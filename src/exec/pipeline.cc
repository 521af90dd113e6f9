#include "exec/pipeline.h"

namespace morsel {

void Pipeline::Push(Chunk& chunk, size_t from_op, ExecContext& ctx) {
  if (from_op == 0) ctx.CheckInterrupt();
  if (chunk.ActiveRows() == 0) return;
  if (from_op == ops_.size()) {
    ctx.rows_to_sink += chunk.ActiveRows();
    sink_->Consume(chunk, ctx);
    return;
  }
  ops_[from_op]->Process(chunk, ctx, *this, static_cast<int>(from_op));
}

ExecPipelineJob::ExecPipelineJob(QueryContext* query, std::string name,
                                 std::unique_ptr<Pipeline> pipeline,
                                 MorselQueue::Options queue_opts,
                                 bool use_tagging,
                                 int static_division_workers)
    : PipelineJob(query, std::move(name)),
      pipeline_(std::move(pipeline)),
      queue_opts_(queue_opts),
      use_tagging_(use_tagging),
      static_division_workers_(static_division_workers) {
  contexts_.resize(query->num_worker_slots());
}

void ExecPipelineJob::Prepare(const Topology& topo) {
  std::vector<MorselRange> ranges = pipeline_->source()->MakeRanges(topo);
  MorselQueue::Options opts = queue_opts_;
  if (static_division_workers_ > 0) {
    uint64_t total = 0;
    for (const MorselRange& r : ranges) total += r.end - r.begin;
    uint64_t per = (total + static_division_workers_ - 1) /
                   static_cast<uint64_t>(static_division_workers_);
    opts.morsel_size = per > 0 ? per : 1;
  }
  set_queue(std::make_unique<MorselQueue>(topo, std::move(ranges), opts));
}

ExecContext& ExecPipelineJob::LocalContext(WorkerContext& wctx) {
  MORSEL_DCHECK(wctx.worker_id <
                static_cast<int>(contexts_.size()));
  std::unique_ptr<ExecContext>& slot = contexts_[wctx.worker_id];
  if (slot == nullptr) {
    slot = std::make_unique<ExecContext>();
    slot->worker = &wctx;
    slot->query = query();
    slot->use_tagging = use_tagging_;
  }
  return *slot;
}

void ExecPipelineJob::RunMorsel(const Morsel& m, WorkerContext& wctx) {
  ExecContext& ctx = LocalContext(wctx);
  ctx.worker = &wctx;  // context may be reused by the external thread slot
  ctx.arena.Reset();
  pipeline_->source()->RunMorsel(m, *pipeline_, ctx);
}

void ExecPipelineJob::Finalize(WorkerContext& wctx) {
  ExecContext& ctx = LocalContext(wctx);
  ctx.worker = &wctx;
  pipeline_->sink()->Finalize(ctx);
  // Publish this stage's cardinality for runtime plan feedback: the
  // sink's stage-specific figure when it has one, else the rows that
  // reached the sink.
  int64_t produced = pipeline_->sink()->RowsProduced();
  if (produced < 0) {
    produced = 0;
    for (const std::unique_ptr<ExecContext>& c : contexts_) {
      if (c != nullptr) produced += c->rows_to_sink;
    }
  }
  set_rows_produced(produced);
  // Runtime annotations (e.g. zone-map skip tally from the source, the
  // aggregation sink's adaptive-mode report), appended after any
  // plan-time annotation the lowering already attached.
  for (std::string rinfo : {pipeline_->sink()->RuntimeInfo(),
                            pipeline_->source()->RuntimeInfo()}) {
    if (rinfo.empty()) continue;
    const std::string& prev = info();
    set_info(prev.empty() ? rinfo : prev + " " + rinfo);
  }
}

}  // namespace morsel
