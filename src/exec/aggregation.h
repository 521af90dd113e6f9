#ifndef MORSELDB_EXEC_AGGREGATION_H_
#define MORSELDB_EXEC_AGGREGATION_H_

#include <memory>
#include <vector>

#include "exec/operators.h"
#include "exec/pipeline.h"
#include "exec/radix_partition.h"
#include "exec/tuple.h"

namespace morsel {

// Aggregate functions. AVG is expressed as SUM + COUNT with a downstream
// division. COUNT(DISTINCT x) is planned as two stacked group-bys.
enum class AggFunc { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggFunc func;
  // Index of the aggregate's input column in the phase-1 input chunk
  // (after the keys), or -1 for COUNT(*).
  int input_col = -1;
  LogicalType input_type = LogicalType::kInt64;
};

// Accumulator (= output) type of one aggregate. Exposed so the logical
// planner can derive a GROUP BY's output schema without instantiating
// any operator state.
LogicalType AggStateType(AggFunc func, LogicalType input_type);

// Shared state of one grouped aggregation (§4.4, Figure 8): phase 1 does
// thread-local pre-aggregation in a fixed-size hash table that spills
// *partition-wise* when it fills up; phase 2 re-aggregates each partition
// in a thread-local table and immediately streams finished groups into
// the next pipeline ("the aggregated tuples are likely still in cache").
//
// Partial-aggregate records use the row format [keys..., states...] with
// the group hash in the tuple header. Combining partials is associative,
// so phase-1 spill records and phase-2 merging share one layout — and a
// radix-mode worker (adaptive phase 1, DESIGN §13) scattering count-1
// partials writes the very same records into the very same partitions,
// which is why phase 2 merges mixed-mode workers without knowing which
// mode each one ended in.
class GroupByState {
 public:
  GroupByState(std::vector<LogicalType> key_types, std::vector<AggSpec> specs,
               int num_worker_slots, int num_partitions = 64);

  const TupleLayout& layout() const { return layout_; }
  int num_keys() const { return num_keys_; }
  int num_partitions() const { return num_partitions_; }
  const std::vector<AggSpec>& specs() const { return specs_; }
  LogicalType state_type(int s) const { return state_types_[s]; }
  const std::vector<LogicalType>& key_types() const { return key_types_; }

  // Spill buffer for (worker, partition); created lazily, NUMA-local.
  // Backed by the shared radix substrate: local-table spills and radix
  // scatters partition with RadixPartitionOf into the same matrix.
  RowBuffer* spill(int worker_id, int partition, int socket) {
    return partitions_->buffer(worker_id, partition, socket);
  }
  RowBuffer* spill_if_exists(int worker_id, int partition) const {
    return partitions_->buffer_if_exists(worker_id, partition);
  }
  int num_worker_slots() const { return partitions_->num_worker_slots(); }

  std::string_view InternString(int worker_id, std::string_view s);

  // --- state transition functions ----------------------------------------
  // Folds selected input rows into group rows with one typed loop per
  // (aggregate, input type) — no per-row dispatch: for k in [from, to),
  // input row in.RowAt(k) goes into rows[k]. A row with fresh[k] != 0
  // created its group, so its states initialize from it (COUNT = 1,
  // SUM/MIN/MAX = the value) as a per-row init would; MIN/MAX over NaN
  // and -0.0 sums stay bit-identical. fresh == nullptr marks every row
  // fresh: radix-mode scatter's count-1 partials.
  void FoldInput(uint8_t* const* rows, const uint8_t* fresh,
                 const Chunk& in, int from, int to) const;
  // Folds a partial-aggregate record into an existing group row.
  void CombinePartial(uint8_t* row, const uint8_t* partial) const;

  // Key comparison helpers.
  bool KeysEqualInput(const uint8_t* row, const Chunk& in, int i) const;
  bool KeysEqualRow(const uint8_t* a, const uint8_t* b) const;

 private:
  std::vector<LogicalType> key_types_;
  std::vector<AggSpec> specs_;
  std::vector<LogicalType> state_types_;
  TupleLayout layout_;
  int num_keys_;
  int num_partitions_;
  // Built in the ctor body (needs the finished layout_).
  std::unique_ptr<RadixPartitionSet> partitions_;
  std::vector<std::unique_ptr<Arena>> string_arenas_;
};

// Phase-1 sink. Input chunks are [keys..., agg inputs...]. Each worker
// owns a fixed-size pre-aggregation table ("aggregates heavy hitters
// using a thread-local, fixed-sized hash table"); when it fills, its
// contents spill to hash partitions. Each chunk runs in stages: hash the
// key columns (HashColumns), find or insert every row's group, then fold
// the aggregates column at a time (GroupByState::FoldInput).
//
// Adaptive phase 1 (DESIGN §13): thread-local pre-aggregation only wins
// while groups repeat within a worker's stream. Each worker therefore
// watches its local table's fill rate — new groups per consumed row over
// a sliding observation window — and once the ratio crosses
// Options::switch_ratio it flushes its table and switches permanently to
// radix mode: every further input row is scattered as a count-1 partial
// record straight into the spill partitions (histogram + bulk append via
// RadixScatter; no probes, no re-spills, no table clears). The decision
// is per worker; since both modes emit identical records into identical
// partitions, phase 2 is mode-oblivious.
class AggPhase1Sink final : public Sink {
 public:
  struct Options {
    // false = the fixed two-phase baseline (ablation arm): workers never
    // leave the thread-local table regardless of what they observe.
    bool adaptive = true;
    // New-groups-per-row threshold that flips a worker to radix mode.
    // <= 0 forces radix from the first row (the forced-radix bench arm).
    double switch_ratio = 0.5;
  };

  // Two overloads (not one defaulted `opts = {}`): a nested class used
  // as a default argument inside its enclosing class is incomplete there.
  explicit AggPhase1Sink(GroupByState* state)
      : AggPhase1Sink(state, Options()) {}
  AggPhase1Sink(GroupByState* state, Options opts);

  void Consume(Chunk& chunk, ExecContext& ctx) override;
  void Finalize(ExecContext& ctx) override;  // spills all local tables
  // Group-count estimate: total spilled partial-aggregate records. An
  // upper bound on the final group count (the same group pre-aggregated
  // by k workers spills k partials) but measured from the actual data —
  // far tighter than the planner's sqrt(input) guess, and exactly what
  // the adaptive-join runtime feedback wants from this breaker.
  int64_t RowsProduced() const override;
  // ExplainPlan annotation: which phase-1 mode the workers ended in and
  // the spilled-partials group estimate.
  std::string RuntimeInfo() const override;

  // Rows a worker consumes before each fill-rate observation.
  static constexpr uint64_t kObserveWindow = 4096;

 private:
  // Power-of-two local table size (entries); spill threshold is 3/4.
  static constexpr uint32_t kLocalSlots = 4096;
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Local {
    std::vector<uint32_t> slots;  // kLocalSlots entries -> row index
    std::unique_ptr<RowBuffer> rows;
    uint32_t count = 0;
    // --- adaptive state machine (kLocal -> kRadix, one-way) ----------
    bool radix = false;
    bool switch_pending = false;   // flagged mid-chunk, applied at end
    uint64_t window_rows = 0;      // rows since the window reset
    uint64_t window_groups = 0;    // fresh table inserts in the window
    std::unique_ptr<RadixScatter> scatter;  // created on switch
  };

  Local& LocalOf(ExecContext& ctx);
  void SpillLocal(Local& local, int worker_id, int socket,
                  TrafficCounters* traffic);
  // Whether the window's fill rate says this worker should go radix.
  bool WantRadix(const Local& local) const {
    return opts_.adaptive &&
           static_cast<double>(local.window_groups) >=
               opts_.switch_ratio * static_cast<double>(local.window_rows);
  }
  void SwitchToRadix(Local& local, int worker_id, int socket,
                     TrafficCounters* traffic);
  void ConsumeRadix(Chunk& chunk, ExecContext& ctx, Local& local);

  GroupByState* state_;
  Options opts_;
  std::vector<std::unique_ptr<Local>> locals_;
  // Key columns lead the phase-1 input chunk by construction; computed
  // once here instead of one heap allocation per consumed chunk.
  std::vector<int> key_cols_;
};

// Phase-2 source: one morsel per partition. Aggregates all spill records
// of a partition in a thread-local table and emits result chunks
// [keys..., agg results...] into the continuation pipeline.
class AggPartitionSource final : public Source {
 public:
  explicit AggPartitionSource(GroupByState* state) : state_(state) {}

  std::vector<MorselRange> MakeRanges(const Topology& topo) override;
  void RunMorsel(const Morsel& m, Pipeline& pipeline,
                 ExecContext& ctx) override;

 private:
  // Streams the merged group rows downstream in chunk-sized batches.
  void EmitRows(const RowBuffer& rows, Pipeline& pipeline,
                ExecContext& ctx);

  GroupByState* state_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_AGGREGATION_H_
