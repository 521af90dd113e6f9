#ifndef MORSELDB_ENGINE_ENGINE_H_
#define MORSELDB_ENGINE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "common/fault_injector.h"
#include "core/dispatcher.h"
#include "core/morsel_queue.h"
#include "core/trace.h"
#include "core/worker_pool.h"
#include "engine/logical_plan.h"
#include "exec/result.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {

class Query;
class PreparedQuery;

// What PreparedQuery does when the plan's build-time storage snapshot
// (scan statistics, zone-map extraction inputs, table epochs) predates
// a SealPartition on a scanned table.
enum class PreparedStalePolicy {
  kRelower,  // transparently re-snapshot the scan stats and lower that
  kError,    // abort: the caller must re-Prepare after bulk loads
};

// Engine-wide execution options; the toggles reproduce the engine
// variants of Figure 11 and §5.4:
//  - full-fledged            : defaults
//  - "not NUMA aware"        : numa_aware=false (+ tables loaded with
//                              Placement::kOsDefault)
//  - "non-adaptive"          : static_division=true, tagging=false
//  - Volcano emulation       : static division + NUMA-oblivious + no
//                              stealing ("we set the morsel size to n/t")
// The staged join probe (DESIGN §5), selection-vector filters (§10),
// interrupt checkpoints (§11) and filter merging (§15) are not options:
// every engine runs them.
struct EngineOptions {
  int num_workers = 0;        // 0 = one per virtual core
  uint64_t morsel_size = 100000;  // §3.3 default
  JoinStrategy join_strategy = JoinStrategy::kHash;
  bool numa_aware = true;     // prefer NUMA-local morsels
  bool steal = true;          // cross-socket work stealing
  bool closest_first = true;  // distance-ordered stealing
  bool tagging = true;        // §4.2 hash-table pointer tags
  // Per-morsel zone-map consultation on scans: SARGable conjuncts skip
  // morsels their min/max rule out and drop out of fully-accepted
  // morsels. false = scan every morsel wholesale.
  bool zone_maps = true;
  // Staleness handling for prepared plans (Table::epoch mismatch).
  PreparedStalePolicy prepared_stale = PreparedStalePolicy::kRelower;
  // Merge-join output partitions per worker: partitions = factor x
  // workers, so skewed partitions stay stealable instead of turning
  // into one-morsel monoliths. 1 = the coarse one-partition-per-worker
  // ablation baseline.
  int merge_partition_factor = 4;
  // Adaptive phase-1 aggregation (DESIGN §13): each worker starts in
  // thread-local pre-aggregation and switches to radix-partition-then-
  // aggregate when its observed distinct-group fill rate crosses
  // agg_radix_switch_ratio. false = the fixed two-phase baseline (the
  // differential-test ablation arm: workers never leave the local
  // table).
  bool adaptive_agg = true;
  // New-groups-per-consumed-row ratio that flips a worker to radix
  // scatter; <= 0 forces radix mode from the first row (bench arm).
  double agg_radix_switch_ratio = 0.5;
  // Radix-partitioned materialization for *unsorted* merge-join inputs
  // (DESIGN §13): both sides hash-scatter into per-worker partition
  // runs, partition planning needs no sampled separators, and each
  // partition sorts/merges only its 1/P share. Near-sorted inputs keep
  // the separator path (global order makes their local sorts detection
  // scans). false = always sample separators over globally sorted runs.
  bool radix_merge_materialize = true;
  // Staged lowering (DESIGN §9): a kAdaptive join whose inputs end in
  // pipeline breakers defers its hash-vs-merge choice to the pipeline
  // boundary, where the breakers' actual row counts replace the
  // plan-time estimates. false = resolve every kAdaptive join eagerly
  // at lowering time from the heuristic estimates (the pre-feedback
  // behavior; also the differential-test ablation arm).
  bool runtime_feedback = true;
  bool static_division = false;  // morsel size forced to n / workers
  bool serialize_roots = true;   // §3.2: no bushy parallelism
  bool pin_threads = true;
  bool record_trace = false;  // Figure 13 trace events
  // §3.3 contention avoidance: pre-split each socket's ranges into one
  // subrange per core so every thread temporarily owns a local range.
  bool split_ranges_per_core = true;
  // Deterministic §5.4 interference injection: the worker on this core
  // runs `slow_core_factor`x slower per morsel. -1 = disabled.
  int simulate_slow_core = -1;
  double slow_core_factor = 2.0;
  // --- resource governance & fault tolerance (DESIGN §11) --------------
  // Per-query memory budget charged by the query's MemoryTracker at
  // every governed NumaAlloc (arena blocks, row buffers, hash tables,
  // sort runs); 0 = unlimited. A breach aborts the query with
  // StatusCode::kMemoryExceeded.
  int64_t memory_budget_bytes = 0;
  // Wall-clock deadline per query, measured from Start(); 0 = none.
  // Enforced at dispatcher hand-out and at interrupt checkpoints
  // (StatusCode::kDeadlineExceeded). Query::SetDeadline overrides.
  int64_t deadline_ms = 0;
  // Deterministic per-query fault injection for chaos testing
  // (common/fault_injector.h); disabled by default.
  FaultInjectionOptions fault_injection;
};

// Top-level execution environment: the (possibly simulated) NUMA
// topology, the passive dispatcher, the pinned worker pool, traffic
// accounting, and optional tracing. Queries are created against an
// Engine and share its workers — inter-query parallelism falls out of
// the dispatcher's fair-share job selection.
class Engine {
 public:
  explicit Engine(const Topology& topo, const EngineOptions& opts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Topology& topology() const { return topo_; }
  const EngineOptions& options() const { return opts_; }
  Dispatcher* dispatcher() { return dispatcher_.get(); }
  WorkerPool* pool() { return pool_.get(); }
  MemStatsRegistry* stats() { return stats_.get(); }
  TraceRecorder* trace() { return trace_.get(); }
  int num_workers() const { return pool_->num_workers(); }

  // Morsel-queue options derived from the engine options.
  MorselQueue::Options queue_options() const {
    MorselQueue::Options q;
    q.morsel_size = opts_.morsel_size;
    q.numa_aware = opts_.numa_aware;
    q.steal = opts_.steal;
    q.closest_first = opts_.closest_first;
    if (opts_.split_ranges_per_core) {
      q.split_per_socket = topo_.cores_per_socket();
    }
    if (!opts_.steal) {
      // Liveness with stealing disabled: a socket hosting no pool worker
      // can never drain its own morsels, so the queue must know which
      // sockets are covered and hand orphaned NUMA-local morsels to
      // remote workers instead of starving the job.
      q.socket_has_worker = pool_->SocketWorkerMask(topo_.num_sockets());
    }
    return q;
  }

  // Creates a query handle. `priority` weights dispatcher fair share
  // (§3.1); workers move between concurrent queries at morsel
  // boundaries. Give the query a plan with Query::SetPlan.
  std::unique_ptr<Query> CreateQuery(double priority = 1.0);

  // Creates a query and lowers `plan` into it (CreateQuery + SetPlan).
  std::unique_ptr<Query> CreateQuery(const LogicalPlan& plan,
                                     double priority = 1.0);

  // Prepares `plan` for repeated execution against this engine: the
  // north-star heavy-traffic shape — build the plan once, lower and
  // execute it per request (see PreparedQuery).
  PreparedQuery Prepare(LogicalPlan plan);

 private:
  Topology topo_;
  EngineOptions opts_;
  std::unique_ptr<MemStatsRegistry> stats_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<int> next_query_id_{0};
};

// A LogicalPlan bound to an Engine for repeated execution. Each
// MakeQuery()/Execute() lowers the shared immutable plan into a fresh
// Query, so one PreparedQuery serves any number of concurrent
// executions (the plan tree is read-only; lowering clones its
// expressions) — they share the engine's workers like any other
// concurrent queries. The PreparedQuery must not outlive the Engine or
// the scanned Tables; it may outlive every Query it produced.
//
// Staleness: the plan snapshots each scanned table's epoch (and
// statistics) at build time. When a SealPartition has happened since —
// a bulk load changed the data under the frozen stats — MakeQuery
// either transparently re-snapshots the scan statistics and lowers the
// refreshed plan (PreparedStalePolicy::kRelower, cached until the next
// epoch bump) or aborts (kError), per EngineOptions::prepared_stale.
class PreparedQuery {
 public:
  PreparedQuery() = default;
  PreparedQuery(Engine* engine, LogicalPlan plan)
      : engine_(engine),
        plan_(std::move(plan)),
        refresh_(std::make_shared<Refresh>()) {}

  bool valid() const { return engine_ != nullptr && plan_.valid(); }
  const LogicalPlan& plan() const { return plan_; }

  // A fresh lowered (not yet started) execution of the plan.
  // `memory_budget_bytes > 0` installs the per-query budget *before*
  // lowering, so plan-time allocations are governed too — the server's
  // per-session budgets need that ordering, which SetMemoryBudget on
  // the returned Query could not provide.
  std::unique_ptr<Query> MakeQuery(double priority = 1.0,
                                   int64_t memory_budget_bytes = 0) const;
  // One-shot convenience: MakeQuery + Execute. Thread-safe.
  ResultSet Execute(double priority = 1.0) const;

 private:
  // Shared across copies of this PreparedQuery so every handle sees the
  // refreshed snapshot at most once per epoch bump.
  struct Refresh {
    std::mutex mu;
    LogicalPlan plan;  // valid() once a stale execution refreshed it
  };

  Engine* engine_ = nullptr;
  LogicalPlan plan_;
  std::shared_ptr<Refresh> refresh_;
};

}  // namespace morsel

#endif  // MORSELDB_ENGINE_ENGINE_H_
