#include "exec/operators.h"

#include <algorithm>
#include <chrono>

namespace morsel {

namespace {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t IdentityOrder(size_t count) {
  // The packed word holds at most kMaxAdaptive (8) conjunct indices;
  // larger conjunctions never read the order (adaptive_ is false).
  if (count > FilterOp::kMaxAdaptive) count = FilterOp::kMaxAdaptive;
  uint64_t order = 0;
  for (size_t r = 0; r < count; ++r) {
    order |= static_cast<uint64_t>(r) << (8 * r);
  }
  return order;
}

std::vector<ExprPtr> SingleConjunct(ExprPtr predicate) {
  std::vector<ExprPtr> v;
  v.push_back(std::move(predicate));
  return v;
}

// A packed order word is adoptable for `k` conjuncts iff its low k
// bytes are a permutation of [0, k) and everything above is zero (so a
// word persisted for a different conjunct count never aliases).
bool ValidPackedOrder(uint64_t order, size_t k) {
  uint32_t seen = 0;
  for (size_t r = 0; r < k; ++r) {
    const uint64_t c = (order >> (8 * r)) & 0xff;
    if (c >= k || (seen & (1u << c)) != 0) return false;
    seen |= 1u << c;
  }
  return k >= 8 || (order >> (8 * k)) == 0;
}

// One typed pass over key column `v`: hashes selected row RowAt(k) and
// stores (first column) or combines (later columns) into
// out[packed ? k : RowAt(k)]. The flags are loop-invariant branches.
template <typename T>
void HashColumn(const Vector& v, const Chunk& chunk, bool first, bool packed,
                uint64_t* out) {
  const T* src = static_cast<const T*>(v.data);
  const int n = chunk.ActiveRows();
  for (int k = 0; k < n; ++k) {
    const int i = chunk.sel != nullptr ? chunk.sel[k] : k;
    const int o = packed ? k : i;
    const uint64_t hk = HashValue(src[i]);
    out[o] = first ? hk : HashCombine(out[o], hk);
  }
}

}  // namespace

void HashColumns(const Chunk& chunk, const std::vector<int>& key_cols,
                 bool packed, uint64_t* out) {
  if (key_cols.empty()) {
    // A keyless hash is 0 for every row (one bucket, one group).
    const int n = chunk.ActiveRows();
    for (int k = 0; k < n; ++k) out[packed ? k : chunk.RowAt(k)] = 0;
    return;
  }
  for (size_t c = 0; c < key_cols.size(); ++c) {
    const Vector& v = chunk.cols[key_cols[c]];
    const bool first = c == 0;
    switch (v.type) {
      case LogicalType::kInt32:
        HashColumn<int32_t>(v, chunk, first, packed, out);
        break;
      case LogicalType::kInt64:
        HashColumn<int64_t>(v, chunk, first, packed, out);
        break;
      case LogicalType::kDouble:
        HashColumn<double>(v, chunk, first, packed, out);
        break;
      case LogicalType::kString:
        HashColumn<std::string_view>(v, chunk, first, packed, out);
        break;
    }
  }
}

const uint64_t* HashRowsPacked(const Chunk& chunk,
                               const std::vector<int>& key_cols,
                               ExecContext& ctx) {
  uint64_t* hashes = ctx.arena.AllocArray<uint64_t>(chunk.ActiveRows());
  HashColumns(chunk, key_cols, /*packed=*/true, hashes);
  return hashes;
}

FilterOp::FilterOp(ExprPtr predicate)
    : FilterOp(SingleConjunct(std::move(predicate)), {-1}) {}

FilterOp::FilterOp(std::vector<ExprPtr> conjuncts,
                   std::vector<int> sarg_slots,
                   std::atomic<uint64_t>* persist_order)
    : conjuncts_(std::move(conjuncts)),
      sarg_slots_(std::move(sarg_slots)),
      persist_order_(persist_order) {
  MORSEL_CHECK(!conjuncts_.empty());
  MORSEL_CHECK(sarg_slots_.size() == conjuncts_.size());
  for (const ExprPtr& c : conjuncts_) {
    MORSEL_CHECK(c->type() == LogicalType::kInt32);
  }
  adaptive_ =
      conjuncts_.size() >= 2 && conjuncts_.size() <= kMaxAdaptive;
  uint64_t order = IdentityOrder(conjuncts_.size());
  if (adaptive_ && persist_order_ != nullptr) {
    const uint64_t learned =
        persist_order_->load(std::memory_order_relaxed);
    if (learned != 0 && ValidPackedOrder(learned, conjuncts_.size())) {
      order = learned;
      started_warm_ = order != IdentityOrder(conjuncts_.size());
    }
  }
  order_.store(order, std::memory_order_relaxed);
  stats_ = std::make_unique<ConjunctStats[]>(conjuncts_.size());
}

void FilterOp::Rerank() {
  // Rank conjuncts by cost per *dropped* row: cheap, selective
  // conjuncts first. Pure heuristic — any order is correct — so all
  // counter reads are relaxed and a racing re-rank is harmless.
  const size_t k = conjuncts_.size();
  // Only adaptive chains re-rank; >kMaxAdaptive conjunctions run in
  // stable static order and must never reach these fixed-size arrays
  // (or pack indices past the order word's 8 slots).
  MORSEL_DCHECK(adaptive_ && k <= kMaxAdaptive);
  double score[kMaxAdaptive];
  for (size_t i = 0; i < k; ++i) {
    const uint64_t in = stats_[i].rows_in.load(std::memory_order_relaxed);
    if (in < kMinRowsForRerank) return;  // not enough signal yet
    const uint64_t out =
        stats_[i].rows_out.load(std::memory_order_relaxed);
    const uint64_t ns = stats_[i].nanos.load(std::memory_order_relaxed);
    const double cost = static_cast<double>(ns) / static_cast<double>(in);
    const double pass =
        static_cast<double>(out) / static_cast<double>(in);
    score[i] = cost / std::max(0.05, 1.0 - pass);
  }
  size_t idx[kMaxAdaptive];
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  std::stable_sort(idx, idx + k,
                   [&](size_t a, size_t b) { return score[a] < score[b]; });
  uint64_t order = 0;
  for (size_t r = 0; r < k; ++r) {
    order |= static_cast<uint64_t>(idx[r]) << (8 * r);
  }
  order_.store(order, std::memory_order_relaxed);
  if (persist_order_ != nullptr) {
    // Publish to the plan-owned slot so the next execution of this
    // plan node starts from the learned order (DESIGN §15).
    persist_order_->store(order, std::memory_order_relaxed);
  }
}

void FilterOp::Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
                       int self_index) {
  const uint64_t order = order_.load(std::memory_order_relaxed);
  // Cost x selectivity observations only matter when there is an order
  // to learn, and 1-in-8 chunks is plenty of signal: single-conjunct
  // filters and the 7 unobserved chunks skip the clock and the shared
  // counter traffic entirely.
  const uint64_t ticket =
      adaptive_ ? chunks_.fetch_add(1, std::memory_order_relaxed) : 0;
  const bool observe = adaptive_ && (ticket & 7) == 0;
  const int32_t* sel = chunk.sel;
  int active = chunk.ActiveRows();
  int32_t* next = nullptr;
  for (size_t r = 0; r < conjuncts_.size() && active > 0; ++r) {
    const size_t c =
        adaptive_ ? static_cast<size_t>((order >> (8 * r)) & 0xff) : r;
    const int slot = sarg_slots_[c];
    if (slot >= 0 && ctx.sarg_accept_mask.Test(slot)) {
      continue;  // the scan's zone check proved this conjunct true
    }
    const uint64_t t0 = observe ? NowNanos() : 0;
    Chunk view = chunk;
    view.sel = sel;
    view.sel_n = sel != nullptr ? active : 0;
    // One selection array per chunk: the first conjunct that runs fills
    // it from the incoming selection, later ones narrow it in place.
    if (next == nullptr) next = ctx.arena.AllocArray<int32_t>(active);
    const int passed = conjuncts_[c]->Select(view, ctx, next);
    if (observe) {
      stats_[c].rows_in.fetch_add(static_cast<uint64_t>(active),
                                  std::memory_order_relaxed);
      stats_[c].rows_out.fetch_add(static_cast<uint64_t>(passed),
                                   std::memory_order_relaxed);
      stats_[c].nanos.fetch_add(NowNanos() - t0,
                                std::memory_order_relaxed);
    }
    if (passed != active) {
      sel = next;
      active = passed;
    }
    // All rows passed: keep the current selection (a dense chunk stays
    // dense rather than picking up an identity selection).
  }
  if (adaptive_ && ticket % kRerankInterval == kRerankInterval - 1) {
    Rerank();
  }
  chunk.sel = sel;
  chunk.sel_n = sel != nullptr ? active : 0;
  pipeline.Push(chunk, self_index + 1, ctx);
}

MapOp::MapOp(std::vector<ExprPtr> exprs) : exprs_(std::move(exprs)) {}

void MapOp::Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
                    int self_index) {
  // Expressions evaluate through the selection (computed vectors are
  // defined at selected positions only); the output chunk carries the
  // input's selection unchanged.
  Chunk out;
  out.n = chunk.n;
  out.sel = chunk.sel;
  out.sel_n = chunk.sel_n;
  out.cols.resize(exprs_.size());
  for (size_t e = 0; e < exprs_.size(); ++e) {
    exprs_[e]->Eval(chunk, ctx, &out.cols[e]);
  }
  pipeline.Push(out, self_index + 1, ctx);
}

}  // namespace morsel
