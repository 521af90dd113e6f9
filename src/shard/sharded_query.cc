#include "shard/sharded_query.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"
#include "engine/query.h"
#include "exec/exchange.h"
#include "exec/expression.h"
#include "shard/sharded_engine.h"

namespace morsel {

namespace {

// Below this build cardinality a broadcast join is always worth it
// (mirrors the single-engine small-build heuristics).
constexpr uint64_t kBroadcastRowsThreshold = 4096;

// Hidden scalar-aggregation partial column: per-shard input row count,
// used to drop the all-default partial an *empty* shard emits (a scalar
// GROUP BY produces exactly one row even over zero input, and merging
// its zeroed MIN/MAX states would corrupt the global extremes).
constexpr char kShardRowsCol[] = "__shard_rows";

std::vector<std::string> KeysOnly(const std::vector<std::string>& v) {
  return v;
}

// True when every element of `sub` appears in `super` (set semantics).
bool SubsetOf(const std::vector<std::string>& sub,
              const std::vector<std::string>& super) {
  for (const std::string& s : sub) {
    if (std::find(super.begin(), super.end(), s) == super.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

ShardedQuery::ShardedQuery(ShardedEngine* engine, LogicalPlan plan,
                           double priority)
    : engine_(engine),
      plan_(std::move(plan)),
      priority_(priority),
      num_shards_(engine->num_shards()) {
  MORSEL_CHECK(plan_.valid());
}

ShardedQuery::~ShardedQuery() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ && !done_) {
      cancel_requested_ = true;
      for (Query* q : inflight_) q->Cancel();
    }
  }
  if (thread_.joinable()) thread_.join();
}

void ShardedQuery::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MORSEL_CHECK_MSG(!started_, "sharded query already started");
    started_ = true;
  }
  thread_ = std::thread([this] { Run(); });
}

void ShardedQuery::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  MORSEL_CHECK_MSG(started_, "Wait before Start");
  cv_.wait(lock, [&] { return done_; });
}

ResultSet ShardedQuery::Execute() {
  Start();
  Wait();
  return TakeResult();
}

ResultSet ShardedQuery::TakeResult() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MORSEL_CHECK_MSG(done_, "TakeResult before completion");
  }
  if (result_taken_.exchange(true)) {
    ResultSet empty;
    empty.set_status(
        QueryStatus::Internal("result already consumed"));
    return empty;
  }
  ResultSet out = std::move(final_);
  out.set_status(status());
  return out;
}

void ShardedQuery::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_requested_ = true;
  for (Query* q : inflight_) q->Cancel();
}

QueryStatus ShardedQuery::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void ShardedQuery::SetMaxWorkers(int n) { max_workers_ = n; }
void ShardedQuery::SetMemoryBudget(int64_t bytes) { budget_bytes_ = bytes; }
void ShardedQuery::SetDeadline(std::chrono::milliseconds after) {
  deadline_ = std::chrono::steady_clock::now() + after;
}
void ShardedQuery::SetFaultInjection(const FaultInjectionOptions& opts) {
  fault_ = opts;
}

std::string ShardedQuery::ExplainPlan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return explain_;
}

void ShardedQuery::LogLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  explain_ += line;
  explain_ += '\n';
}

// Plan-time cardinality guess for a canonical subtree; only feeds the
// broadcast-vs-repartition tiebreak (the build side's side of that
// comparison is exact — its stage has already run).
double ShardedQuery::EstimateRows(const LogicalNode* n) {
  switch (n->kind) {
    case LogicalNode::Kind::kScan:
      return n->scan_rows;
    case LogicalNode::Kind::kFilter:
      return 0.3 * EstimateRows(n->input.get());
    case LogicalNode::Kind::kGroupBy:
      return 0.1 * EstimateRows(n->input.get()) + 1.0;
    case LogicalNode::Kind::kJoin:
      return EstimateRows(n->input.get());
    default:
      return n->input != nullptr ? EstimateRows(n->input.get()) : 0.0;
  }
}

// --- stage execution --------------------------------------------------------

QueryStatus ShardedQuery::RunStage(std::vector<LogicalPlan> plans,
                                   const std::string& label,
                                   std::vector<ResultSet>* results) {
  const int n = static_cast<int>(plans.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancel_requested_) return QueryStatus::Cancelled();
  }
  std::chrono::milliseconds remaining{0};
  if (deadline_.has_value()) {
    auto now = std::chrono::steady_clock::now();
    if (now >= *deadline_) return QueryStatus::DeadlineExceeded();
    remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        *deadline_ - now);
    if (remaining.count() < 1) remaining = std::chrono::milliseconds(1);
  }

  std::vector<std::unique_ptr<Query>> queries;
  queries.reserve(n);
  for (int s = 0; s < n; ++s) {
    std::unique_ptr<Query> q = engine_->shard(s)->CreateQuery(priority_);
    // Budget before SetPlan so lowering-time allocations are governed.
    if (budget_bytes_ > 0) {
      q->SetMemoryBudget(std::max<int64_t>(1, budget_bytes_ / num_shards_));
    }
    if (fault_.enabled) {
      // Reseed per (stage, shard) so every shard query trips a
      // distinct — but reproducible — fault point.
      FaultInjectionOptions f = fault_;
      f.seed = HashCombine(
          fault_.seed,
          HashCombine(static_cast<uint64_t>(stage_idx_),
                      static_cast<uint64_t>(s)));
      q->SetFaultInjection(f);
    }
    q->SetPlan(plans[s]);
    if (max_workers_ > 0) q->SetMaxWorkers(max_workers_);
    if (deadline_.has_value()) q->SetDeadline(remaining);
    queries.push_back(std::move(q));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& q : queries) inflight_.push_back(q.get());
  }
  for (auto& q : queries) q->Start();
  {
    // A Cancel that raced Start: the queries registered above may have
    // missed it, so re-apply under the lock.
    std::lock_guard<std::mutex> lock(mu_);
    if (cancel_requested_) {
      for (auto& q : queries) q->Cancel();
    }
  }

  // Fail-fast drain: poll the shard queries round-robin; the first
  // non-ok completion cancels every sibling still running, so one
  // failing shard tears the whole distributed stage down at morsel
  // latency instead of waiting out the stragglers.
  std::vector<bool> finished(n, false);
  int pending = n;
  bool cancelled_siblings = false;
  while (pending > 0) {
    for (int s = 0; s < n; ++s) {
      if (finished[s]) continue;
      if (!queries[s]->WaitFor(std::chrono::milliseconds(2))) continue;
      finished[s] = true;
      --pending;
      if (!queries[s]->status().ok() && !cancelled_siblings) {
        cancelled_siblings = true;
        for (int t = 0; t < n; ++t) {
          if (!finished[t]) queries[t]->Cancel();
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.clear();
  }

  // Deterministic stage status: scan shards in index order; a "real"
  // failure beats the kCancelled echoes fail-fast propagation caused.
  QueryStatus st = QueryStatus::Ok();
  for (int s = 0; s < n; ++s) {
    QueryStatus qs = queries[s]->status();
    if (qs.ok()) continue;
    if (st.ok() || (st.code == StatusCode::kCancelled &&
                    qs.code != StatusCode::kCancelled)) {
      st = qs;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    explain_ += "=== stage " + std::to_string(stage_idx_) + ": " + label +
                " (" + std::to_string(n) + " shards) ===\n";
    for (int s = 0; s < n; ++s) {
      explain_ += "--- shard " + std::to_string(s) + " ---\n";
      explain_ += queries[s]->ExplainPlan();
    }
  }
  ++stage_idx_;

  if (st.ok() && results != nullptr) {
    for (auto& q : queries) results->push_back(q->TakeResult());
  }
  return st;
}

std::shared_ptr<ExchangeChannel> ShardedQuery::RunSendStage(
    Part* part, const std::vector<std::string>& keys,
    const std::string& label, std::vector<std::string>* names_out) {
  ColScope scope = part->shards[0].scope();
  *names_out = scope.names();
  std::vector<int> sender_slots;
  for (int s = 0; s < num_shards_; ++s) {
    sender_slots.push_back(engine_->shard(s)->num_workers() + 1);
  }
  auto channel = std::make_shared<ExchangeChannel>(
      scope.types(), std::move(sender_slots), num_shards_);
  channels_.push_back(channel);

  std::vector<LogicalPlan> plans;
  for (int s = 0; s < num_shards_; ++s) {
    part->shards[s].ExchangeSend(channel, s, keys);
    plans.push_back(part->shards[s].Build());
  }
  part->shards.clear();
  coord_status_ = RunStage(std::move(plans), label, nullptr);
  if (failed()) return nullptr;
  return channel;
}

// --- plan distribution ------------------------------------------------------

ShardedQuery::Part ShardedQuery::Distribute(const LogicalNode* n) {
  switch (n->kind) {
    case LogicalNode::Kind::kScan:
      return DistributeScan(n);
    case LogicalNode::Kind::kFilter: {
      Part in = Distribute(n->input.get());
      if (failed()) return {};
      for (PlanBuilder& pb : in.shards) {
        pb.Filter(n->predicate->Clone());
      }
      return in;  // a filter never moves rows: distribution preserved
    }
    case LogicalNode::Kind::kProject: {
      Part in = Distribute(n->input.get());
      if (failed()) return {};
      Dist out_dist;
      out_dist.kind = in.dist.kind;
      if (in.dist.kind == Dist::Kind::kHashOn) {
        // The hash property survives only if every routing key comes
        // out the other side as a bare column reference (possibly
        // renamed); any computed key column breaks placement.
        ColScope scope = in.shards[0].scope();
        for (const std::string& key : in.dist.keys) {
          const int in_idx = scope.Index(key);
          int out_idx = -1;
          for (size_t j = 0; j < n->exprs.size(); ++j) {
            if (n->exprs[j]->AsColumnIndex() == in_idx) {
              out_idx = static_cast<int>(j);
              break;
            }
          }
          if (out_idx < 0) {
            out_dist.kind = Dist::Kind::kArbitrary;
            out_dist.keys.clear();
            break;
          }
          out_dist.keys.push_back(n->names[out_idx]);
        }
      }
      for (PlanBuilder& pb : in.shards) {
        std::vector<NamedExpr> exprs;
        for (size_t j = 0; j < n->exprs.size(); ++j) {
          exprs.push_back(NE(n->names[j], n->exprs[j]->Clone()));
        }
        pb.Project(std::move(exprs));
      }
      in.dist = std::move(out_dist);
      return in;
    }
    case LogicalNode::Kind::kGroupBy:
      return DistributeGroupBy(n);
    case LogicalNode::Kind::kJoin:
      return DistributeJoin(n);
    case LogicalNode::Kind::kOrderBy:
    case LogicalNode::Kind::kCollect:
    case LogicalNode::Kind::kExchangeSend:
    case LogicalNode::Kind::kExchangeRecv:
      break;
  }
  MORSEL_CHECK_MSG(false, "node kind cannot appear mid-plan");
  return {};
}

ShardedQuery::Part ShardedQuery::DistributeScan(const LogicalNode* n) {
  const ShardedTable* st = engine_->FindTable(n->table);
  MORSEL_CHECK_MSG(st != nullptr,
                   "scanned table is not registered with the sharded "
                   "engine (ShardedEngine::RegisterTable)");
  Part out;
  for (int s = 0; s < num_shards_; ++s) {
    out.shards.push_back(
        PlanBuilder::Scan(st->fragment(s), KeysOnly(n->names)));
  }
  switch (st->dist()) {
    case ShardDist::kReplicated:
      out.dist.kind = Dist::Kind::kReplicated;
      break;
    case ShardDist::kHash:
      // The placement keys are only usable downstream if the scan
      // projected all of them.
      if (SubsetOf(st->hash_keys(), n->names)) {
        out.dist.kind = Dist::Kind::kHashOn;
        out.dist.keys = st->hash_keys();
      }
      break;
    case ShardDist::kRoundRobin:
      break;  // kArbitrary
  }
  return out;
}

ShardedQuery::Part ShardedQuery::DistributeGroupBy(const LogicalNode* n) {
  Part in = Distribute(n->input.get());
  if (failed()) return {};

  auto clone_aggs = [&] {
    std::vector<AggItem> aggs;
    for (const AggItem& a : n->aggs) {
      aggs.push_back(AggItem{
          a.func, a.input != nullptr ? a.input->Clone() : nullptr,
          a.out_name});
    }
    return aggs;
  };

  // Every shard holds all rows: the local group-by IS the global one.
  if (in.dist.kind == Dist::Kind::kReplicated) {
    for (PlanBuilder& pb : in.shards) {
      pb.GroupBy(KeysOnly(n->group_keys), clone_aggs());
    }
    return in;
  }

  // Co-partitioned: rows agreeing on the routing keys share a shard, so
  // grouping by a superset of them never crosses shards.
  if (!n->group_keys.empty() && in.dist.kind == Dist::Kind::kHashOn &&
      SubsetOf(in.dist.keys, n->group_keys)) {
    LogLine("[groupby: co-partitioned, local per shard]");
    for (PlanBuilder& pb : in.shards) {
      pb.GroupBy(KeysOnly(n->group_keys), clone_aggs());
    }
    return in;  // output keeps the routing columns, property holds
  }

  // Distributed two-phase: per-shard partials, exchange on the group
  // keys (always repartition — partials are tiny and the merge must see
  // each group whole), per-shard merge with rewritten aggregates.
  const bool scalar = n->group_keys.empty();
  for (PlanBuilder& pb : in.shards) {
    std::vector<AggItem> partial = clone_aggs();
    if (scalar) {
      partial.push_back(AggItem{AggFunc::kCount, nullptr, kShardRowsCol});
    }
    pb.GroupBy(KeysOnly(n->group_keys), std::move(partial));
  }
  std::vector<std::string> partial_names;
  std::shared_ptr<ExchangeChannel> ch = RunSendStage(
      &in, n->group_keys, "group-by partial exchange", &partial_names);
  if (failed()) return {};
  ch->set_mode(ExchangeMode::kRepartition);
  LogLine("[exchange decision: repartition group-by partials, rows=" +
          std::to_string(ch->total_rows()) + "]");

  Part out;
  for (int s = 0; s < num_shards_; ++s) {
    PlanBuilder pb = PlanBuilder::ExchangeRecv(
        ch, s, partial_names,
        static_cast<double>(ch->bucket_rows(s)));
    if (scalar) {
      // Drop the one all-default partial an empty shard emits; its
      // zeroed MIN/MAX states must not reach the merge.
      pb.Filter(Gt(pb.Col(kShardRowsCol), ConstI64(0)));
    }
    std::vector<AggItem> merge;
    for (const AggItem& a : n->aggs) {
      // A partial's accumulator column re-aggregates with SUM for the
      // additive functions and with itself for the extremes; the
      // accumulator types are idempotent under this rewrite, so the
      // merged schema matches the single-engine one exactly.
      AggFunc f = a.func == AggFunc::kCount ? AggFunc::kSum : a.func;
      merge.push_back(AggItem{f, pb.Col(a.out_name), a.out_name});
    }
    pb.GroupBy(KeysOnly(n->group_keys), std::move(merge));
    if (scalar && s != 0) {
      // A keyless exchange routes every partial to bucket 0; the other
      // shards' scalar merges would each fabricate one empty-input row.
      pb.Filter(ConstI32(0));
    }
    out.shards.push_back(std::move(pb));
  }
  if (!scalar) {
    out.dist.kind = Dist::Kind::kHashOn;
    out.dist.keys = n->group_keys;
  }
  return out;
}

ShardedQuery::Part ShardedQuery::DistributeJoin(const LogicalNode* n) {
  Part probe = Distribute(n->input.get());
  if (failed()) return {};
  Part build = Distribute(n->build.get());
  if (failed()) return {};

  auto join_local = [&](Part build_side) {
    for (int s = 0; s < num_shards_; ++s) {
      probe.shards[s].Join(std::move(build_side.shards[s]),
                           KeysOnly(n->probe_keys),
                           KeysOnly(n->build_keys),
                           KeysOnly(n->build_payload), n->join_kind,
                           n->residual, n->strategy);
    }
  };

  const bool probe_repl = probe.dist.kind == Dist::Kind::kReplicated;
  const bool build_repl = build.dist.kind == Dist::Kind::kReplicated;

  // A replicated build side joins locally: every shard sees the whole
  // build input, and each probe row lives on exactly one shard. The
  // exception is kRightOuterMark unless the probe is replicated too
  // (then the whole join is replicated). Lowering runs it as an inner
  // join that only sets build markers, so nothing here emits unmatched
  // build rows; the paths for it stay as conservative as an emission of
  // them would need (it would repeat per shard).
  if (build_repl &&
      (n->join_kind != JoinKind::kRightOuterMark || probe_repl)) {
    LogLine("[join: local, build side replicated]");
    join_local(std::move(build));
    if (n->join_kind == JoinKind::kRightOuterMark) {
      // Conservative, as above: padded unmatched-build rows would carry
      // default probe keys, and only the fully replicated property
      // would survive them.
      probe.dist.kind = Dist::Kind::kReplicated;
      probe.dist.keys.clear();
    }
    return probe;
  }

  // Co-partitioned: both sides hash-placed on the join keys, in the
  // same key order (the hash chain is order-sensitive).
  if (probe.dist.kind == Dist::Kind::kHashOn &&
      probe.dist.keys == n->probe_keys &&
      build.dist.kind == Dist::Kind::kHashOn &&
      build.dist.keys == n->build_keys) {
    LogLine("[join: local, co-partitioned on join keys]");
    join_local(std::move(build));
    if (n->join_kind == JoinKind::kRightOuterMark) {
      probe.dist.kind = Dist::Kind::kArbitrary;
      probe.dist.keys.clear();
    }
    return probe;
  }

  // A replicated side that could not take a fast path must first be
  // made disjoint — exchanging it as-is would transfer every row
  // num_shards times. Restricting it to shard 0 keeps exactly one copy.
  auto restrict_to_shard0 = [&](Part* part) {
    for (int s = 1; s < num_shards_; ++s) {
      part->shards[s].Filter(ConstI32(0));
    }
    part->dist.kind = Dist::Kind::kArbitrary;
    part->dist.keys.clear();
  };
  if (probe_repl) restrict_to_shard0(&probe);
  if (build_repl) restrict_to_shard0(&build);

  // Run the build side's send stage now: the broadcast-vs-repartition
  // choice below then uses the exact transferred cardinality instead of
  // an estimate (distributed runtime feedback, DESIGN §9/§14).
  std::vector<std::string> build_names;
  std::shared_ptr<ExchangeChannel> ch_build = RunSendStage(
      &build, n->build_keys, "join build exchange", &build_names);
  if (failed()) return {};
  const uint64_t build_rows = ch_build->total_rows();

  const bool probe_partitioned =
      probe.dist.kind == Dist::Kind::kHashOn &&
      probe.dist.keys == n->probe_keys;
  const double probe_est = EstimateRows(n->input.get());
  // Broadcast replays the build rows on every shard but leaves the
  // probe side untouched; it is kept off kRightOuterMark (an emission of
  // unmatched build rows would repeat once per shard) and pointless when
  // the probe is already partitioned on the join keys.
  const bool broadcast =
      n->join_kind != JoinKind::kRightOuterMark && !probe_partitioned &&
      (build_rows <= kBroadcastRowsThreshold ||
       static_cast<double>(build_rows) * (num_shards_ - 1) < probe_est);
  ch_build->set_mode(broadcast ? ExchangeMode::kBroadcast
                               : ExchangeMode::kRepartition);
  LogLine(std::string("[exchange decision: ") +
          (broadcast ? "broadcast" : "repartition") +
          " build side, rows=" + std::to_string(build_rows) +
          ", probe_est=" + std::to_string(static_cast<int64_t>(probe_est)) +
          "]");

  if (!broadcast && !probe_partitioned) {
    // Repartition the probe side too, onto the same key space.
    std::vector<std::string> probe_names;
    std::shared_ptr<ExchangeChannel> ch_probe = RunSendStage(
        &probe, n->probe_keys, "join probe exchange", &probe_names);
    if (failed()) return {};
    ch_probe->set_mode(ExchangeMode::kRepartition);
    Part repart;
    for (int s = 0; s < num_shards_; ++s) {
      repart.shards.push_back(PlanBuilder::ExchangeRecv(
          ch_probe, s, probe_names,
          static_cast<double>(ch_probe->bucket_rows(s))));
    }
    repart.dist.kind = Dist::Kind::kHashOn;
    repart.dist.keys = n->probe_keys;
    probe = std::move(repart);
  }

  Part recv_build;
  for (int s = 0; s < num_shards_; ++s) {
    const double est =
        broadcast ? static_cast<double>(build_rows)
                  : static_cast<double>(ch_build->bucket_rows(s));
    recv_build.shards.push_back(
        PlanBuilder::ExchangeRecv(ch_build, s, build_names, est));
  }
  join_local(std::move(recv_build));
  if (!broadcast) {
    probe.dist.kind = n->join_kind == JoinKind::kRightOuterMark
                          ? Dist::Kind::kArbitrary
                          : Dist::Kind::kHashOn;
    probe.dist.keys = probe.dist.kind == Dist::Kind::kHashOn
                          ? n->probe_keys
                          : std::vector<std::string>{};
  }
  // Broadcast: the probe rows never moved, so its property is already
  // right in `probe`.
  return probe;
}

// --- coordinator ------------------------------------------------------------

void ShardedQuery::Run() {
  const LogicalNode* root = plan_.root();
  MORSEL_CHECK_MSG(root->kind == LogicalNode::Kind::kCollect ||
                       root->kind == LogicalNode::Kind::kOrderBy,
                   "sharded plans must end in CollectResult or OrderBy");

  Part in = Distribute(root->input.get());
  std::vector<ResultSet> results;
  bool replicated = false;
  if (!failed()) {
    replicated = in.dist.kind == Dist::Kind::kReplicated;
    std::vector<LogicalPlan> plans;
    for (PlanBuilder& pb : in.shards) {
      if (root->kind == LogicalNode::Kind::kCollect) {
        pb.CollectResult();
      } else {
        pb.OrderBy(root->order_keys, root->limit);
      }
      plans.push_back(pb.Build());
    }
    coord_status_ = RunStage(std::move(plans), "final merge", &results);
  }

  if (!failed()) {
    if (replicated) {
      // Every shard computed the full answer; shard 0 speaks for all.
      final_ = std::move(results[0]);
    } else if (root->kind == LogicalNode::Kind::kCollect) {
      final_ = ResultSet(root->types);
      for (ResultSet& r : results) final_.Append(std::move(r));
    } else {
      // Coordinator merge spine: each shard returned its own sorted
      // (and limit-truncated) slice; re-sort the union and re-apply
      // the limit for the global order.
      std::vector<int> key_cols;
      std::vector<bool> asc;
      for (const OrderItem& k : root->order_keys) {
        key_cols.push_back(IndexOfName(root->names, k.name));
        asc.push_back(k.ascending);
      }
      struct Ref {
        int shard;
        int64_t row;
      };
      std::vector<Ref> refs;
      for (int s = 0; s < static_cast<int>(results.size()); ++s) {
        for (int64_t r = 0; r < results[s].num_rows(); ++r) {
          refs.push_back(Ref{s, r});
        }
      }
      auto cmp = [&](const Ref& a, const Ref& b) {
        const ResultSet& ra = results[a.shard];
        const ResultSet& rb = results[b.shard];
        for (size_t k = 0; k < key_cols.size(); ++k) {
          const int c = key_cols[k];
          int rel = 0;
          switch (root->types[c]) {
            case LogicalType::kInt32: {
              auto x = ra.I32(a.row, c), y = rb.I32(b.row, c);
              rel = x < y ? -1 : (x > y ? 1 : 0);
              break;
            }
            case LogicalType::kInt64: {
              auto x = ra.I64(a.row, c), y = rb.I64(b.row, c);
              rel = x < y ? -1 : (x > y ? 1 : 0);
              break;
            }
            case LogicalType::kDouble: {
              auto x = ra.F64(a.row, c), y = rb.F64(b.row, c);
              rel = x < y ? -1 : (x > y ? 1 : 0);
              break;
            }
            case LogicalType::kString: {
              rel = ra.Str(a.row, c).compare(rb.Str(b.row, c));
              rel = rel < 0 ? -1 : (rel > 0 ? 1 : 0);
              break;
            }
          }
          if (rel != 0) return asc[k] ? rel < 0 : rel > 0;
        }
        return false;
      };
      std::stable_sort(refs.begin(), refs.end(), cmp);
      int64_t take = static_cast<int64_t>(refs.size());
      if (root->limit >= 0) {
        take = std::min<int64_t>(take, root->limit);
      }
      final_ = ResultSet(root->types);
      for (int64_t i = 0; i < take; ++i) {
        final_.AppendRowFrom(results[refs[i].shard], refs[i].row);
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = coord_status_;
    if (!status_.ok()) final_ = ResultSet();
    done_ = true;
  }
  cv_.notify_all();
}

}  // namespace morsel
