#ifndef MORSELDB_EXEC_OPERATORS_H_
#define MORSELDB_EXEC_OPERATORS_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "exec/expression.h"
#include "exec/pipeline.h"

namespace morsel {

// --- shared vector utilities ------------------------------------------------
// (GatherVector / GatherChunk / Chunk::Compact live in exec/chunk.h.)

// Hash of row `i` over the given columns (multi-column keys combine).
uint64_t HashRow(const Chunk& chunk, const std::vector<int>& key_cols,
                 int i);

// The leading `n` column indices [0, n) — the key-column list for sinks
// whose input chunks are laid out [keys..., payload...] by construction.
inline std::vector<int> IdentityCols(int n) {
  std::vector<int> cols(n);
  for (int i = 0; i < n; ++i) cols[i] = i;
  return cols;
}

// Computes key hashes for the chunk's *selected* rows into an arena
// array indexed by physical row: hashes[chunk.RowAt(k)] is defined for
// k in [0, ActiveRows()); unselected positions are uninitialized. Dense
// chunks get a fully populated array. Consumers that keep physical row
// ids (the batched probe) index it directly.
const uint64_t* HashRows(const Chunk& chunk,
                         const std::vector<int>& key_cols, ExecContext& ctx);

// Packed variant: hashes[k] is the hash of selected row chunk.RowAt(k),
// for k in [0, ActiveRows()). This is the shape RadixScatter wants — its
// destination array is in packed selected-row order.
const uint64_t* HashRowsPacked(const Chunk& chunk,
                               const std::vector<int>& key_cols,
                               ExecContext& ctx);

// --- basic operators ---------------------------------------------------------

// Drops rows that fail a conjunction of predicates (int32 0/1
// expressions). The chunk's `sel` is narrowed in place, conjunct by
// conjunct, so conjuncts after the first evaluate only the rows still
// alive (AND short-circuit) and column compaction is deferred to
// whichever consumer needs dense data. Per-conjunct cost x selectivity
// counters feed a periodic re-rank, so the cheapest-per-dropped-row
// conjunct runs first regardless of the order the query author wrote.
//
// A conjunct may carry a zone-map slot (engine/lowering.h): when the
// scan's per-morsel zone check proved the morsel satisfies that
// conjunct entirely, the matching bit of ExecContext::sarg_accept_mask
// is set and the conjunct is skipped for every chunk of the morsel.
class FilterOp final : public Operator {
 public:
  explicit FilterOp(ExprPtr predicate);
  // `persist_order` (optional) is a plan-owned slot for the learned
  // conjunct order: re-ranks store the packed order word there, and a
  // fresh FilterOp over the same plan node adopts a previously stored
  // order instead of re-learning from identity (warm prepared-query
  // re-executions). 0 means "nothing learned yet"; invalid words (wrong
  // width / not a permutation) are ignored.
  FilterOp(std::vector<ExprPtr> conjuncts, std::vector<int> sarg_slots,
           std::atomic<uint64_t>* persist_order = nullptr);
  void Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
               int self_index) override;

  // The current packed evaluation order (conjunct index at rank r is
  // byte r) — exposed for explain/regression tests.
  uint64_t PackedOrder() const {
    return order_.load(std::memory_order_relaxed);
  }
  // True iff this op started from a persisted (learned) order rather
  // than identity.
  bool started_warm() const { return started_warm_; }

  // Conjunct cap for adaptive reordering (the packed-order word holds 8
  // bits per conjunct); larger conjunctions keep their static order.
  static constexpr size_t kMaxAdaptive = 8;
  // Chunks between re-ranks (observations are sampled on 1-in-8 of
  // them), and the per-conjunct observation floor below which the
  // order is left alone (noise guard).
  static constexpr uint64_t kRerankInterval = 64;
  static constexpr uint64_t kMinRowsForRerank = 4096;

 private:
  void Rerank();

  struct ConjunctStats {
    std::atomic<uint64_t> rows_in{0};
    std::atomic<uint64_t> rows_out{0};
    std::atomic<uint64_t> nanos{0};
  };

  std::vector<ExprPtr> conjuncts_;
  std::vector<int> sarg_slots_;  // per conjunct; -1 = no zone-map slot
  bool adaptive_ = false;        // 2..kMaxAdaptive conjuncts
  // Evaluation order, 8 bits per rank (conjunct index at rank r is byte
  // r). Written by Rerank() on whichever worker crosses the interval;
  // read relaxed by every Process — any torn-free snapshot is a valid
  // order, so plain atomics suffice.
  static_assert(kMaxAdaptive * 8 <= 64,
                "packed conjunct order must fit one atomic word");
  std::atomic<uint64_t> order_{0};
  std::atomic<uint64_t> chunks_{0};
  std::unique_ptr<ConjunctStats[]> stats_;
  std::atomic<uint64_t>* persist_order_ = nullptr;
  bool started_warm_ = false;
};

// Replaces the chunk's columns with the given expressions (projection /
// computed columns). Column references forward zero-copy.
class MapOp final : public Operator {
 public:
  explicit MapOp(std::vector<ExprPtr> exprs);
  void Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
               int self_index) override;

 private:
  std::vector<ExprPtr> exprs_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_OPERATORS_H_
