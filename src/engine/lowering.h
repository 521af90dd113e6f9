#ifndef MORSELDB_ENGINE_LOWERING_H_
#define MORSELDB_ENGINE_LOWERING_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline_job.h"
#include "engine/logical_plan.h"
#include "exec/pipeline.h"

namespace morsel {

class Engine;
class Query;
class AdaptiveDecisionJob;
class JoinState;
class TableScanSource;

// The physical lowering pass: walks an immutable LogicalPlan and
// produces the QEP pipelines, jobs and operator state a Query executes
// (the physical half of what PlanBuilder used to do in one shot).
//
// Lowering is *staged* (DESIGN §9). Most of the tree lowers at plan
// time, but a kAdaptive join whose inputs end in pipeline breakers is
// represented by a placeholder AdaptiveDecisionJob gated on those
// breakers: when they complete, the decision job reads their actual
// rows_produced() (plus the propagated sortedness of the key columns),
// re-decides hash vs merge with real cardinalities, and splices the
// chosen join's pipelines — and the rest of the plan spine — into the
// running QEP. A semi/anti join whose left input is estimated smaller
// than its right defers the same way, on the materialization of its
// left input: the exact left count picks the side it builds on. With
// EngineOptions::runtime_feedback off, every kAdaptive join resolves
// eagerly from the plan-time estimates and no build side moves.
//
// One Lowering instance belongs to one Query (owned via Query::Own) and
// must outlive all decision jobs it registered. At most one decision
// job is pending per query at any time (deferral only happens on the
// plan's root spine, and each continuation creates the next), so Resume
// never runs concurrently with itself.
class Lowering {
 public:
  Lowering(Query* query, const LogicalNode* root);

  // Plan-time pass. Registers all eagerly lowerable pipelines with the
  // query's QEP; may leave a pending AdaptiveDecisionJob gating the
  // remainder of the spine.
  void Run();

  // Runtime continuation, called from the decision job's Finalize on a
  // worker thread: resolves the deferred join with cardinality feedback
  // and splices the remaining pipelines into the running QEP.
  void Resume(AdaptiveDecisionJob* dj);

  // Open (not yet pipeline-broken) tail of a plan segment under
  // lowering: the physical mirror of the old PlanBuilder internals,
  // plus the planner statistics and the feedback bookkeeping.
  struct OpenPipe {
    std::unique_ptr<Source> source;
    std::vector<std::unique_ptr<Operator>> ops;
    std::vector<int> deps;
    // Set while the pipe is a table scan followed only by filters: the
    // window in which filter conjuncts may register zone-map SARGs
    // (their column indices still name scan output columns). Cleared
    // by any operator that reshapes the scope (projection, join probe).
    TableScanSource* scan_source = nullptr;
    // Prepended to the next closed pipeline's job name (set when a
    // non-scan source starts the pipe, so ExplainPlan names the whole
    // segment).
    std::string name_prefix;
    // Current scope.
    std::vector<std::string> names;
    std::vector<LogicalType> types;
    // Planner statistics (heuristic, never affect semantics).
    double est_rows = 0.0;
    std::vector<double> sorted_frac;  // per scope column; -1 unknown
    // Runtime-feedback bookkeeping: the last upstream breaker job on
    // this pipe (-1 = scan-rooted, no feedback possible) and the
    // product of selectivity guesses applied since, so the breaker's
    // actual rows_produced() re-estimates this pipe's cardinality.
    int feeder_job = -1;
    double feeder_mult = 1.0;
    // Scope columns whose *actual* sortedness the feeder breaker
    // observes at runtime (LocalSortRunsJob counts presorted /
    // naturally merged runs): the deferred adaptive-join decision
    // refreshes sorted_frac for them from the feeder's
    // observed_sorted() before choosing a strategy.
    std::vector<std::string> order_feeder_cols;
    // Table-backed statistics window (like scan_source, but kept for
    // stats only): while the scope is still the scan's columns,
    // stats_cols[i] is the table column id of scope column i, so
    // multi-key joins can probe composite lexicographic sortedness.
    // Cleared whenever the scope reshapes.
    const Table* stats_table = nullptr;
    std::vector<int> stats_cols;
    // Pending filter accumulation (DESIGN §15): conjuncts of adjacent
    // kFilter nodes collect here and flush into ONE FilterOp at the next
    // non-filter lowering step, so the adaptive cost-per-dropped-row
    // ranking reorders conjuncts across the original Filter()
    // boundaries. `pending_persist` is the first contributing node's
    // plan-owned learned-order slot.
    std::vector<ExprPtr> pending_conjuncts;
    std::vector<int> pending_slots;
    std::atomic<uint64_t>* pending_persist = nullptr;
    // Plan-time ExplainPlan annotations accumulated for the job that
    // closes this pipe ("[warm-conjunct-order]").
    std::string pending_info;

    int Index(const std::string& name) const;
  };

  // Left input of a semi/anti join, materialized for the side decision:
  // the marker-bearing join state its rows went into and, per left scope
  // column, the layout field that holds it.
  struct LeftBuild {
    JoinState* state = nullptr;
    std::vector<int> fields;
  };

 private:
  friend class AdaptiveDecisionJob;

  // Chain of nodes from the scan (front) to `tail` (back) along input
  // edges.
  static std::vector<const LogicalNode*> ChainOf(const LogicalNode* tail);

  // Lowers chain[start..] onto `pipe`. `allow_defer` is true only on
  // the plan's root spine: a deferral registers a decision job and
  // returns nullopt (nothing past the join is lowered). Otherwise
  // returns the open pipe after the last node (for the root spine,
  // whose last node is a terminal, an empty pipe).
  std::optional<OpenPipe> LowerNodes(
      const std::vector<const LogicalNode*>& chain, size_t start,
      OpenPipe pipe, bool allow_defer);

  OpenPipe StartChain(const LogicalNode* scan);
  // Lowers a whole build subtree (kAdaptive inside it resolves eagerly
  // from plan-time stats — deferral happens on the root spine only).
  OpenPipe LowerSubtree(const LogicalNode* tail);

  void LowerFilter(const LogicalNode* n, OpenPipe& pipe);
  // Flushes the pipe's accumulated filter conjuncts into one FilterOp
  // (no-op when none are pending). Called by every non-filter lowering
  // step before it appends its own operator, and by ClosePipe.
  void FlushPendingFilter(OpenPipe& pipe);
  // Registers a SARGable conjunct with the pipe's scan for zone-map
  // checking; returns the mask slot or -1 (type mismatch, slot budget).
  int RegisterSarg(const Sarg& sarg, OpenPipe& pipe);
  void LowerProject(const LogicalNode* n, OpenPipe& pipe);
  OpenPipe LowerGroupBy(const LogicalNode* n, OpenPipe pipe);
  // Resolves kAdaptive (using feedback from completed feeders, plan
  // estimates otherwise), records the decision annotation — on
  // `decision` when non-null, else on the build-side close job — and
  // lowers the join.
  OpenPipe ResolveJoin(const LogicalNode* n, JoinStrategy s,
                       OpenPipe probe, OpenPipe build,
                       AdaptiveDecisionJob* decision);
  OpenPipe LowerResolvedJoin(const LogicalNode* n, JoinStrategy strategy,
                             OpenPipe probe, OpenPipe build,
                             std::string annotation);
  JoinStrategy StrategyOf(const LogicalNode* n) const;

  // Build-side choice for semi/anti joins (DESIGN §9). A candidate is a
  // semi/anti join on the root spine, not forced to merge, whose left
  // input is estimated smaller than its right.
  bool SideCandidate(const LogicalNode* n, JoinStrategy s,
                     const OpenPipe& left, const OpenPipe& right) const;
  // Closes `left` into a marker-bearing HashBuildSink over [keys...,
  // other columns...]. `left` keeps its scope and gets the
  // materialization as its feeder.
  LeftBuild CloseLeftBuild(const LogicalNode* n, OpenPipe& left);
  // The side decision's Finalize: flips the join onto the left rows
  // (mark-only probe by the right pipe, marked or unmarked tuples
  // continue the spine) or replays them into ResolveJoin as the probe.
  OpenPipe ResolveSide(const LogicalNode* n, AdaptiveDecisionJob* dj);
  void LowerOrderBy(const LogicalNode* n, OpenPipe pipe);
  void LowerCollect(const LogicalNode* n, OpenPipe pipe);
  void LowerExchangeSend(const LogicalNode* n, OpenPipe pipe);

  // Shared join-planner prologue (both strategies must agree on it
  // exactly): re-projects the build pipe to [keys..., payload...] and
  // resolves the residual against probe columns + emitted payload.
  struct JoinBuildPlan {
    std::vector<LogicalType> build_types;  // [key types..., payload...]
    std::vector<LogicalType> payload_types;
    ExprPtr residual;  // nullptr if none given
  };
  JoinBuildPlan PrepareJoinBuild(const LogicalNode* n, OpenPipe& probe,
                                 OpenPipe& build);

  // Side cardinality for the strategy choice: the feeder's actual
  // rows_produced() scaled by the post-feeder selectivity once the
  // feeder completed, the heuristic estimate otherwise. `used_feedback`
  // reports which one it was.
  double SideRows(const OpenPipe& pipe, bool* used_feedback) const;
  bool FeederPending(const OpenPipe& pipe) const;
  // Key sortedness for the strategy choice: the composite lexicographic
  // table probe for multi-key joins still inside the scan-stats window,
  // the leading key's propagated per-column stat otherwise.
  double SideSorted(const OpenPipe& pipe,
                    const std::vector<std::string>& keys) const;
  // Runtime order feedback: once the pipe's feeder breaker completed
  // and observed its data's actual sortedness, replaces the plan-time
  // sorted_frac of the observed columns. Returns the observed fraction,
  // or -1 when no observation applied.
  double ApplyObservedOrder(OpenPipe& pipe) const;
  // Appends to a job's ExplainPlan annotation (set_info overwrites).
  void AppendInfo(int job_id, const std::string& info);

  static JoinStrategy Choose(double probe_rows, double build_rows,
                             double probe_sorted, double build_sorted);

  // Closes `pipe` into `sink`; returns the job id. Runtime mode splices
  // instead of adding.
  int ClosePipe(OpenPipe& pipe, Sink* sink, const std::string& name);
  int EmitJob(std::unique_ptr<PipelineJob> job, std::vector<int> deps);

  Query* query_;
  Engine* engine_;
  const LogicalNode* root_;
  // Pipeline id of the decision job whose Finalize we are inside, or -1
  // during the plan-time pass. Every job emitted while it is set is
  // spliced into the running QEP gated on it.
  int splice_gate_ = -1;
};

// Plan-time placeholder for a deferred join decision (staged lowering):
// an adaptive join's strategy, or a semi/anti join's build side. Has no
// morsels: it completes as soon as its dependencies — the pipeline
// breakers feeding the join's inputs — have, and its Finalize performs
// the decision and splices the chosen pipelines into the QEP.
// ExplainPlan shows the decision and its inputs via set_info.
class AdaptiveDecisionJob final : public PipelineJob {
 public:
  // `left_build.state` set: a side decision, `probe` is the scope of the
  // materialized left rows. Otherwise a strategy decision over two open
  // pipes.
  AdaptiveDecisionJob(QueryContext* query, std::string name,
                      Lowering* lowering, MorselQueue::Options opts,
                      std::vector<const LogicalNode*> chain,
                      size_t join_index, Lowering::OpenPipe probe,
                      Lowering::OpenPipe build,
                      Lowering::LeftBuild left_build = {})
      : PipelineJob(query, std::move(name)),
        lowering_(lowering),
        opts_(opts),
        chain_(std::move(chain)),
        join_index_(join_index),
        probe_(std::move(probe)),
        build_(std::move(build)),
        left_build_(std::move(left_build)) {}

  void Prepare(const Topology& topo) override {
    set_queue(std::make_unique<MorselQueue>(
        topo, std::vector<MorselRange>{}, opts_));
  }
  void RunMorsel(const Morsel& m, WorkerContext& ctx) override {
    (void)m;
    (void)ctx;
  }
  void Finalize(WorkerContext& ctx) override {
    (void)ctx;
    lowering_->Resume(this);
  }

 private:
  friend class Lowering;

  Lowering* lowering_;
  MorselQueue::Options opts_;
  std::vector<const LogicalNode*> chain_;  // root spine
  size_t join_index_;                      // chain_[join_index_] is the join
  Lowering::OpenPipe probe_;
  Lowering::OpenPipe build_;
  Lowering::LeftBuild left_build_;
};

}  // namespace morsel

#endif  // MORSELDB_ENGINE_LOWERING_H_
