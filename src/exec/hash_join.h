#ifndef MORSELDB_EXEC_HASH_JOIN_H_
#define MORSELDB_EXEC_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "exec/tagged_hash_table.h"
#include "exec/tuple.h"

namespace morsel {

// Join flavours supported by the probe operator (§4.1: "Outer join is a
// minor variation ... Semi and anti joins are implemented similarly").
enum class JoinKind {
  kInner,
  kSemi,        // emit probe row iff >= 1 match
  kAnti,        // emit probe row iff no match
  kLeftOuter,   // inner matches, plus probe rows without match padded
                // with build-side type defaults (0 / empty string)
  kRightOuterMark,  // like inner, additionally sets the match marker on
                    // matched build tuples; unmatched build tuples can be
                    // emitted afterwards via UnmatchedBuildSource
};

// Shared state of one hash join: the build-side tuple storage areas (one
// per worker, NUMA-local), the perfectly sized global tagged hash table,
// and the key metadata. Created by the planner; populated by the build
// pipeline; probed by the probe pipeline.
class JoinState {
 public:
  // Build tuples are laid out as [keys..., payload...]; `num_keys` fields
  // lead. A marker slot is reserved when `kind` needs match tracking.
  JoinState(std::vector<LogicalType> build_types, int num_keys,
            JoinKind kind, int num_worker_slots);

  const TupleLayout& layout() const { return layout_; }
  int num_keys() const { return num_keys_; }
  JoinKind kind() const { return kind_; }
  TaggedHashTable* table() const { return ht_.get(); }
  uint64_t build_rows() const { return build_rows_; }

  // --- build phase 1: materialization ------------------------------------
  RowBuffer* buffer(int worker_id, int socket);
  // Copies string fields into per-worker stable storage (chunk strings may
  // point into a reset-per-morsel arena).
  std::string_view InternString(int worker_id, std::string_view s);

  // Counts rows, builds the (empty) perfectly-sized hash table, and
  // freezes buffer ranges for NUMA accounting. Called once, after the
  // materialization pipeline completes.
  void FinishMaterialize();

  // --- accounting ----------------------------------------------------------
  // Socket of the storage area containing `tuple` (valid after
  // FinishMaterialize, which sorts the ranges by address). Binary search
  // over the sorted ranges; the hint overload memoizes the last hit so a
  // chunk's worth of lookups into the same storage area costs one compare
  // per tuple (chains overwhelmingly stay within one worker's buffer).
  int SocketOfTuple(const uint8_t* tuple) const {
    int hint = -1;
    return SocketOfTuple(tuple, &hint);
  }
  int SocketOfTuple(const uint8_t* tuple, int* hint) const;

  // Morsel ranges over the materialized build tuples, for the insert job.
  std::vector<MorselRange> InsertRanges() const;
  RowBuffer* buffer_by_index(int i) const { return buffers_[i].get(); }

 private:
  TupleLayout layout_;
  int num_keys_;
  JoinKind kind_;
  std::vector<std::unique_ptr<RowBuffer>> buffers_;   // per worker slot
  std::vector<std::unique_ptr<Arena>> string_arenas_; // per worker slot
  std::unique_ptr<TaggedHashTable> ht_;
  uint64_t build_rows_ = 0;

  struct TupleRange {
    const uint8_t* begin;
    const uint8_t* end;
    int socket;
  };
  std::vector<TupleRange> ranges_;
};

// Build pipeline sink: phase 1 of §4.1 — materialize the build input into
// NUMA-local storage areas, no synchronization. The input chunk must be
// [keys..., payload...] matching the JoinState layout.
class HashBuildSink final : public Sink {
 public:
  explicit HashBuildSink(JoinState* state)
      : state_(state), key_cols_(IdentityCols(state->num_keys())) {}

  void Consume(Chunk& chunk, ExecContext& ctx) override;
  void Finalize(ExecContext& ctx) override;

 private:
  JoinState* state_;
  // Key columns lead the build chunk by construction; computed once here
  // instead of one heap allocation per consumed chunk.
  std::vector<int> key_cols_;
};

// Phase 2 of the build (§4.1/§4.2): scan the storage areas NUMA-locally
// and publish pointers into the global hash table with CAS.
class HashInsertJob final : public PipelineJob {
 public:
  HashInsertJob(QueryContext* query, std::string name, JoinState* state,
                MorselQueue::Options opts)
      : PipelineJob(query, std::move(name)), state_(state), opts_(opts) {}

  void Prepare(const Topology& topo) override {
    set_queue(std::make_unique<MorselQueue>(topo, state_->InsertRanges(),
                                            opts_));
  }

  void RunMorsel(const Morsel& m, WorkerContext& wctx) override;

  void Finalize(WorkerContext& wctx) override {
    (void)wctx;
    // Cardinality feedback: the fully built table's row count is the
    // exact build-side cardinality of this join.
    set_rows_produced(static_cast<int64_t>(state_->build_rows()));
  }

 private:
  JoinState* state_;
  MorselQueue::Options opts_;
};

// Probe operator: streams probe chunks against the hash table, fully
// pipelined (the "good team player" of §4.1 — several probes can stack in
// one pipeline). Emits input columns followed by the selected build
// payload fields. An optional residual predicate is evaluated over the
// combined row (input columns + emitted build fields) and filters
// matches; for semi/anti/outer it participates in match existence.
class HashProbeOp final : public Operator {
 public:
  HashProbeOp(JoinState* state, std::vector<int> probe_key_cols,
              std::vector<int> build_output_fields, ExprPtr residual);

  void Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
               int self_index) override;

  // In-flight probes of the batched pipeline's chain-walking stage. Large
  // enough to overlap the latency of a memory access with useful work on
  // the other in-flight probes (AMAC-style), small enough that the state
  // stays in registers/L1.
  static constexpr int kProbeWindow = 16;

 private:
  // Staged, chunk-batched probe (DESIGN.md §5): (1) prefetch all slots,
  // (2) bulk tag-filter chain heads and prefetch survivors, (3) walk the
  // surviving chains in a kProbeWindow-wide state machine so chain-node
  // cache misses overlap instead of serializing.
  void ProbeBatched(const Chunk& chunk, const uint64_t* hashes,
                    uint8_t* matched, ExecContext& ctx, Pipeline& pipeline,
                    int self_index);

  // Emits candidate batch `cand` (probe row index + build tuple pairs):
  // applies residual, updates per-probe-row match flags, and for
  // inner/outer kinds pushes combined chunks downstream.
  void FlushCandidates(const Chunk& in, const int32_t* cand_rows,
                       const uint8_t* const* cand_tuples, int count,
                       uint8_t* matched, ExecContext& ctx,
                       Pipeline& pipeline, int self_index);

  // Pushes probe-only rows (semi/anti) or default-padded rows (outer).
  void EmitProbeOnly(const Chunk& in, const int32_t* rows, int count,
                     bool pad_build, ExecContext& ctx, Pipeline& pipeline,
                     int self_index);

  bool KeysEqual(const Chunk& in, int row, const uint8_t* tuple) const;

  JoinState* state_;
  std::vector<int> probe_key_cols_;
  std::vector<int> build_output_fields_;
  ExprPtr residual_;
};

// Emits build tuples whose match marker is unset — the deferred side of a
// right-outer join after a kRightOuterMark probe completed. Fields are
// the build layout's fields.
class UnmatchedBuildSource final : public Source {
 public:
  explicit UnmatchedBuildSource(JoinState* state) : state_(state) {}

  std::vector<MorselRange> MakeRanges(const Topology& topo) override;
  void RunMorsel(const Morsel& m, Pipeline& pipeline,
                 ExecContext& ctx) override;

 private:
  JoinState* state_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_HASH_JOIN_H_
