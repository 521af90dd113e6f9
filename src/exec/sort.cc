#include "exec/sort.h"

#include <algorithm>
#include <cstring>

namespace morsel {

SortState::SortState(std::vector<LogicalType> column_types,
                     std::vector<SortKey> keys, int num_worker_slots,
                     int64_t limit)
    : runs_(std::move(column_types), std::move(keys), num_worker_slots),
      limit_(limit) {}

void SortState::PlanMerge(int num_parts) {
  MORSEL_CHECK(num_parts >= 1);
  // "each thread first computes local separators by picking equidistant
  // keys from its sorted run. Then ... the local separators of all
  // threads are combined, sorted, and the eventual, global separator
  // keys are computed."
  std::vector<const uint8_t*> samples = runs_.SampleKeys(num_parts);
  std::sort(samples.begin(), samples.end(),
            [this](const uint8_t* a, const uint8_t* b) {
              return runs_.Less(a, b);
            });
  std::vector<const uint8_t*> separators =
      PickSeparators(samples, num_parts);
  runs_.PlanPartitions(static_cast<int>(separators.size()),
                       [&](const uint8_t* row, int s) {
                         return runs_.Less(row, separators[s]);
                       });

  // "Using these indexes, the exact layout of the output array can be
  // computed" — prefix sums give each part's offset; merges then write
  // disjoint regions without synchronization.
  const int parts = runs_.num_parts();
  out_offsets_.assign(parts + 1, 0);
  for (int p = 0; p < parts; ++p) {
    out_offsets_[p + 1] = out_offsets_[p] + runs_.PartRows(p);
  }
  MORSEL_CHECK(out_offsets_[parts] == runs_.total_rows());
  output_ = std::make_unique<RowBuffer>(&runs_.layout(), kInterleavedSocket);
  // Pre-size so merge workers write disjoint row slots directly.
  for (uint64_t i = 0; i < runs_.total_rows(); ++i) output_->AppendRow();
}

std::vector<MorselRange> SortState::MergeRanges(const Topology& topo) const {
  std::vector<MorselRange> out;
  const int parts = static_cast<int>(out_offsets_.size()) - 1;
  for (int p = 0; p < parts; ++p) {
    out.push_back(MorselRange{p, 0, 1, p % topo.num_sockets()});
  }
  return out;
}

void SortState::MergePart(int part, WorkerContext& wctx,
                          QueryContext* interrupt) {
  const TupleLayout& layout = runs_.layout();
  uint64_t out_pos = out_offsets_[part];
  SocketTally run_reads;
  uint64_t ticks = 0;
  for (RunSet::PartCursor cur(&runs_, part); !cur.AtEnd(); cur.Advance()) {
    // One output part is one morsel; checkpoint per ~1k merged rows so
    // cancellation does not wait out the whole k-way merge (DESIGN §11).
    // Safe to abandon mid-part: the output region is only read by
    // ToResult after a clean finish.
    if ((ticks++ & 0x3FF) == 0) CheckQueryInterrupt(interrupt);
    std::memcpy(output_->row(out_pos), cur.row(), layout.row_size());
    run_reads.Add(runs_.run_by_index(cur.run_id())->socket(),
                  layout.row_size());
    ++out_pos;
  }
  MORSEL_CHECK(out_pos == out_offsets_[part + 1]);
  run_reads.FlushReads(wctx.traffic, wctx.socket,
                       wctx.topo->num_sockets());
}

ResultSet SortState::ToResult() const {
  const TupleLayout& layout = runs_.layout();
  std::vector<LogicalType> types;
  for (int f = 0; f < layout.num_fields(); ++f) {
    types.push_back(layout.field_type(f));
  }
  ResultSet rs(types);
  uint64_t n = output_ == nullptr ? 0 : output_->rows();
  if (limit_ >= 0 && static_cast<uint64_t>(limit_) < n) {
    n = static_cast<uint64_t>(limit_);
  }
  for (uint64_t i = 0; i < n; ++i) rs.AppendRow(layout, output_->row(i));
  return rs;
}

TopKSink::TopKSink(SortState* state, int64_t k)
    : state_(state), k_(k), heaps_(state->num_worker_slots()) {
  MORSEL_CHECK(k_ >= 1);
}

void TopKSink::HeapPush(Heap& heap, const uint8_t* row) {
  auto worse = [this](const std::vector<uint8_t>& a,
                      const std::vector<uint8_t>& b) {
    // max-heap by sort order: the "worst" kept row sits at the top
    return state_->Less(a.data(), b.data());
  };
  if (static_cast<int64_t>(heap.rows.size()) < k_) {
    heap.rows.emplace_back(row, row + state_->layout().row_size());
    std::push_heap(heap.rows.begin(), heap.rows.end(), worse);
    return;
  }
  // Full: replace the worst row if the new one sorts before it.
  if (state_->Less(row, heap.rows.front().data())) {
    std::pop_heap(heap.rows.begin(), heap.rows.end(), worse);
    heap.rows.back().assign(row, row + state_->layout().row_size());
    std::push_heap(heap.rows.begin(), heap.rows.end(), worse);
  }
}

void TopKSink::Consume(Chunk& chunk, ExecContext& ctx) {
  const TupleLayout& layout = state_->layout();
  int wid = ctx.worker->worker_id;
  MORSEL_CHECK(wid < static_cast<int>(heaps_.size()));
  if (heaps_[wid] == nullptr) heaps_[wid] = std::make_unique<Heap>();
  Heap& heap = *heaps_[wid];

  // Assemble the chunk's rows column at a time in arena scratch (zeroed
  // next/hash headers), reading through the selection vector, then
  // offer each to the heap.
  const int n = chunk.ActiveRows();
  if (n == 0) return;
  const size_t rs = static_cast<size_t>(layout.row_size());
  uint8_t* rows = ctx.arena.AllocArray<uint8_t>(n * rs);
  std::memset(rows, 0, n * rs);
  auto row_at = [rows, rs](int k) { return rows + k * rs; };
  layout.StoreColumns(chunk, layout.num_fields(), row_at,
                      [this, wid](std::string_view s) {
                        return state_->InternString(wid, s);
                      });
  for (int k = 0; k < n; ++k) HeapPush(heap, row_at(k));
}

void TopKSink::Finalize(ExecContext& ctx) {
  (void)ctx;
  final_rows_.clear();
  for (auto& h : heaps_) {
    if (h == nullptr) continue;
    for (auto& r : h->rows) final_rows_.push_back(std::move(r));
  }
  std::sort(final_rows_.begin(), final_rows_.end(),
            [this](const std::vector<uint8_t>& a,
                   const std::vector<uint8_t>& b) {
              return state_->Less(a.data(), b.data());
            });
  if (static_cast<int64_t>(final_rows_.size()) > k_) {
    final_rows_.resize(k_);
  }
}

ResultSet TopKSink::ToResult() const {
  const TupleLayout& layout = state_->layout();
  std::vector<LogicalType> types;
  for (int f = 0; f < layout.num_fields(); ++f) {
    types.push_back(layout.field_type(f));
  }
  ResultSet rs(types);
  for (const auto& row : final_rows_) rs.AppendRow(layout, row.data());
  return rs;
}

}  // namespace morsel
