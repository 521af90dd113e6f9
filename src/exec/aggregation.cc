#include "exec/aggregation.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace morsel {

LogicalType AggStateType(AggFunc func, LogicalType input_type) {
  switch (func) {
    case AggFunc::kCount:
      return LogicalType::kInt64;
    case AggFunc::kSum:
      return input_type == LogicalType::kDouble ? LogicalType::kDouble
                                                : LogicalType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      MORSEL_CHECK_MSG(input_type != LogicalType::kString,
                       "string min/max not supported");
      return input_type;
  }
  return LogicalType::kInt64;
}

namespace {

LogicalType StateTypeFor(const AggSpec& spec) {
  return AggStateType(spec.func, spec.input_type);
}

// FoldInput's loop for one aggregate state at byte offset `off` of the
// group rows: get(i) reads input row i widened to the state type.
template <typename Get, typename Op>
void FoldState(uint8_t* const* rows, const uint8_t* fresh, int off,
               const int32_t* sel, int from, int to, const Get& get,
               const Op& op) {
  using S = decltype(get(0));
  for (int k = from; k < to; ++k) {
    uint8_t* p = rows[k] + off;
    const S v = get(sel != nullptr ? sel[k] : k);
    S cur;
    std::memcpy(&cur, p, sizeof cur);
    cur = fresh == nullptr || fresh[k] != 0 ? v : op(cur, v);
    std::memcpy(p, &cur, sizeof cur);
  }
}

}  // namespace

GroupByState::GroupByState(std::vector<LogicalType> key_types,
                           std::vector<AggSpec> specs, int num_worker_slots,
                           int num_partitions)
    : key_types_(std::move(key_types)),
      specs_(std::move(specs)),
      num_keys_(static_cast<int>(key_types_.size())),
      num_partitions_(num_partitions),
      string_arenas_(num_worker_slots) {
  std::vector<LogicalType> fields = key_types_;
  for (const AggSpec& s : specs_) {
    state_types_.push_back(StateTypeFor(s));
    fields.push_back(state_types_.back());
  }
  layout_ = TupleLayout(std::move(fields), /*with_marker=*/false);
  partitions_ = std::make_unique<RadixPartitionSet>(
      &layout_, num_worker_slots, num_partitions_);
}

std::string_view GroupByState::InternString(int worker_id,
                                            std::string_view s) {
  std::unique_ptr<Arena>& a = string_arenas_[worker_id];
  if (a == nullptr) a = std::make_unique<Arena>();
  return a->CopyString(s);
}

void GroupByState::FoldInput(uint8_t* const* rows, const uint8_t* fresh,
                             const Chunk& in, int from, int to) const {
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    const int off = layout_.field_offset(num_keys_ + static_cast<int>(s));
    auto fold = [&](const auto& get) {
      using S = decltype(get(0));
      auto run = [&](const auto& op) {
        FoldState(rows, fresh, off, in.sel, from, to, get, op);
      };
      switch (spec.func) {
        case AggFunc::kCount:
        case AggFunc::kSum:
          return run([](S a, S b) { return a + b; });
        case AggFunc::kMin:
          return run([](S a, S b) { return std::min(a, b); });
        case AggFunc::kMax:
          return run([](S a, S b) { return std::max(a, b); });
      }
    };
    if (spec.func == AggFunc::kCount) {
      fold([](int) { return int64_t{1}; });
      continue;
    }
    // The state is double exactly when the input is (AggStateType).
    const Vector& v = in.cols[spec.input_col];
    switch (v.type) {
      case LogicalType::kInt32:
        fold([p = v.i32()](int i) { return int64_t{p[i]}; });
        break;
      case LogicalType::kInt64:
        fold([p = v.i64()](int i) { return p[i]; });
        break;
      case LogicalType::kDouble:
        fold([p = v.f64()](int i) { return p[i]; });
        break;
      default:
        MORSEL_CHECK(false);  // string aggregates are rejected upstream
    }
  }
}

void GroupByState::CombinePartial(uint8_t* row,
                                  const uint8_t* partial) const {
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    int f = num_keys_ + static_cast<int>(s);
    switch (spec.func) {
      case AggFunc::kCount:
        layout_.SetI64(row, f,
                       layout_.GetI64(row, f) + layout_.GetI64(partial, f));
        break;
      case AggFunc::kSum:
        if (state_types_[s] == LogicalType::kDouble) {
          layout_.SetF64(row, f, layout_.GetF64(row, f) +
                                     layout_.GetF64(partial, f));
        } else {
          layout_.SetI64(row, f, layout_.GetI64(row, f) +
                                     layout_.GetI64(partial, f));
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax: {
        bool is_min = spec.func == AggFunc::kMin;
        if (spec.input_type == LogicalType::kDouble) {
          double v = layout_.GetF64(partial, f);
          double cur = layout_.GetF64(row, f);
          layout_.SetF64(row, f, is_min ? std::min(cur, v)
                                        : std::max(cur, v));
        } else {
          int64_t v = layout_.GetI64(partial, f);
          int64_t cur = layout_.GetI64(row, f);
          layout_.SetI64(row, f, is_min ? std::min(cur, v)
                                        : std::max(cur, v));
        }
        break;
      }
    }
  }
}

bool GroupByState::KeysEqualInput(const uint8_t* row, const Chunk& in,
                                  int i) const {
  for (int k = 0; k < num_keys_; ++k) {
    const Vector& v = in.cols[k];
    switch (key_types_[k]) {
      case LogicalType::kInt32:
        if (layout_.GetI64(row, k) != v.i32()[i]) return false;
        break;
      case LogicalType::kInt64:
        if (layout_.GetI64(row, k) != v.i64()[i]) return false;
        break;
      case LogicalType::kDouble:
        if (layout_.GetF64(row, k) != v.f64()[i]) return false;
        break;
      case LogicalType::kString:
        if (layout_.GetStr(row, k) != v.str()[i]) return false;
        break;
    }
  }
  return true;
}

bool GroupByState::KeysEqualRow(const uint8_t* a, const uint8_t* b) const {
  for (int k = 0; k < num_keys_; ++k) {
    if (key_types_[k] == LogicalType::kString) {
      if (layout_.GetStr(a, k) != layout_.GetStr(b, k)) return false;
    } else {
      if (layout_.GetI64(a, k) != layout_.GetI64(b, k)) return false;
    }
  }
  return true;
}

AggPhase1Sink::AggPhase1Sink(GroupByState* state, Options opts)
    : state_(state),
      opts_(opts),
      locals_(state->num_worker_slots()),
      key_cols_(IdentityCols(state->num_keys())) {}

AggPhase1Sink::Local& AggPhase1Sink::LocalOf(ExecContext& ctx) {
  std::unique_ptr<Local>& slot = locals_[ctx.worker->worker_id];
  if (slot == nullptr) {
    slot = std::make_unique<Local>();
    slot->slots.assign(kLocalSlots, kEmpty);
    slot->rows =
        std::make_unique<RowBuffer>(&state_->layout(), ctx.socket());
  }
  return *slot;
}

void AggPhase1Sink::SpillLocal(Local& local, int worker_id, int socket,
                               TrafficCounters* traffic) {
  const TupleLayout& layout = state_->layout();
  uint64_t bytes = 0;
  for (size_t i = 0; i < local.rows->rows(); ++i) {
    const uint8_t* row = local.rows->row(i);
    int p = RadixPartitionOf(TupleLayout::GetHash(row),
                             state_->num_partitions());
    RowBuffer* out = state_->spill(worker_id, p, socket);
    std::memcpy(out->AppendRow(), row, layout.row_size());
    bytes += layout.row_size();
  }
  if (traffic != nullptr) traffic->OnWrite(socket, socket, bytes);
  local.slots.assign(kLocalSlots, kEmpty);
  local.rows->Clear();
  local.count = 0;
}

void AggPhase1Sink::SwitchToRadix(Local& local, int worker_id, int socket,
                                  TrafficCounters* traffic) {
  // Flush whatever the table pre-aggregated so far — those partials are
  // indistinguishable from radix-scattered ones downstream — then stop
  // maintaining the table for good. One-way: radix mode has no fill
  // rate to observe and flapping back would just re-pay the table.
  SpillLocal(local, worker_id, socket, traffic);
  local.radix = true;
  local.switch_pending = false;
  local.scatter = std::make_unique<RadixScatter>(
      &state_->layout(), state_->num_partitions());
}

// Radix-mode Consume: every input row becomes a count-1 partial record
// ([keys..., init states...] with its group hash in the header) placed
// by RadixPartitionOf — the same record SpillLocal would have emitted
// for a group seen once. Straight-line per chunk: hash, histogram,
// bulk-append, column-wise field stores; no probes, no table churn.
void AggPhase1Sink::ConsumeRadix(Chunk& chunk, ExecContext& ctx,
                                 Local& local) {
  // Packed per-selected-row hashes drive the scatter; dest[k] is the
  // partial record for selected row chunk.RowAt(k), so the column-wise
  // stores read straight through the selection vector.
  const int n = chunk.ActiveRows();
  if (n == 0) return;
  const int wid = ctx.worker->worker_id;
  const int socket = ctx.socket();
  const TupleLayout& layout = state_->layout();
  const uint64_t* hashes = HashRowsPacked(chunk, key_cols_, ctx);
  uint8_t** dest = local.scatter->Scatter(
      hashes, n, ctx,
      [&](int p) { return state_->spill(wid, p, socket); });
  // AppendRows zero-filled the headers (next = null); store the hashes
  // and the key fields, then the initial states.
  for (int i = 0; i < n; ++i) TupleLayout::SetHash(dest[i], hashes[i]);
  for (int k = 0; k < state_->num_keys(); ++k) {
    const Vector& v = chunk.cols[k];
    if (layout.field_type(k) == LogicalType::kString) {
      const std::string_view* src = v.str();
      for (int i = 0; i < n; ++i) {
        layout.SetStr(dest[i], k,
                      state_->InternString(wid, src[chunk.RowAt(i)]));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        layout.StoreFromVector(dest[i], k, v, chunk.RowAt(i));
      }
    }
  }
  state_->FoldInput(dest, /*fresh=*/nullptr, chunk, 0, n);
  ctx.traffic()->OnWrite(socket, socket,
                         static_cast<uint64_t>(n) * layout.row_size());
}

void AggPhase1Sink::Consume(Chunk& chunk, ExecContext& ctx) {
  Local& local = LocalOf(ctx);
  // switch_ratio <= 0 means "any fill rate qualifies": go radix before
  // the first row (the forced-radix bench/ablation arm).
  if (!local.radix && opts_.adaptive && opts_.switch_ratio <= 0.0) {
    SwitchToRadix(local, ctx.worker->worker_id, ctx.socket(),
                  ctx.traffic());
  }
  if (local.radix) {
    ConsumeRadix(chunk, ctx, local);
    return;
  }
  const TupleLayout& layout = state_->layout();
  const int wid = ctx.worker->worker_id;

  // Staged, in the probe's shape (DESIGN §5): hash the chunk, find or
  // insert each row's group, then fold the aggregates column at a time.
  // groups[k] holds a row *index* (AppendRow may move the buffer) and
  // fresh[k] says row k created the group; indices become row pointers
  // only right before a fold. Keys and inputs are read through the
  // selection vector.
  const int active = chunk.ActiveRows();
  const uint64_t* hashes = HashRowsPacked(chunk, key_cols_, ctx);
  uint32_t* groups = ctx.arena.AllocArray<uint32_t>(active);
  uint8_t* fresh = ctx.arena.AllocArray<uint8_t>(active);
  uint8_t** rows = ctx.arena.AllocArray<uint8_t*>(active);
  int folded = 0;  // rows [0, folded) are already folded
  auto fold_to = [&](int to) {
    for (int k = folded; k < to; ++k) rows[k] = local.rows->row(groups[k]);
    state_->FoldInput(rows, fresh, chunk, folded, to);
    folded = to;
  };
  for (int k = 0; k < active; ++k) {
    const int i = chunk.RowAt(k);
    const uint64_t h = hashes[k];
    ++local.window_rows;
    uint32_t slot = static_cast<uint32_t>(h) & (kLocalSlots - 1);
    uint32_t found = kEmpty;
    while (local.slots[slot] != kEmpty) {
      const uint32_t idx = local.slots[slot];
      const uint8_t* row = local.rows->row(idx);
      if (TupleLayout::GetHash(row) == h &&
          state_->KeysEqualInput(row, chunk, i)) {
        found = idx;
        break;
      }
      slot = (slot + 1) & (kLocalSlots - 1);
    }
    if (found != kEmpty) {
      groups[k] = found;
      fresh[k] = 0;
      continue;
    }
    // "spill when ht becomes full" (Figure 8): fold the rows gathered so
    // far into the table, flush it to the overflow partitions and start
    // over with an empty one. A full table is also a forced observation
    // point: if the window that filled it was mostly fresh groups, flag
    // the radix switch (applied at the chunk boundary — one chunk is
    // never split across modes).
    if (local.count >= kLocalSlots * 3 / 4) {
      fold_to(k);
      if (local.window_rows > 0 && WantRadix(local)) {
        local.switch_pending = true;
      }
      SpillLocal(local, wid, ctx.socket(), ctx.traffic());
      slot = static_cast<uint32_t>(h) & (kLocalSlots - 1);
      while (local.slots[slot] != kEmpty) {
        slot = (slot + 1) & (kLocalSlots - 1);
      }
    }
    const uint32_t idx = static_cast<uint32_t>(local.rows->rows());
    uint8_t* row = local.rows->AppendRow();
    TupleLayout::SetNext(row, nullptr);
    TupleLayout::SetHash(row, h);
    for (int c = 0; c < state_->num_keys(); ++c) {
      if (layout.field_type(c) == LogicalType::kString) {
        layout.SetStr(row, c,
                      state_->InternString(wid, chunk.cols[c].str()[i]));
      } else {
        layout.StoreFromVector(row, c, chunk.cols[c], i);
      }
    }
    local.slots[slot] = idx;
    ++local.count;
    ++local.window_groups;
    groups[k] = idx;
    fresh[k] = 1;
  }
  fold_to(active);

  // Chunk-boundary observation: distinct-group growth over the window
  // (kObserveWindow rows, counted across spills). window_groups counts
  // *table inserts* — after a spill a returning group counts again — so
  // the ratio measures how much pre-aggregation the table is actually
  // achieving, which is exactly the quantity radix mode competes with.
  if (opts_.adaptive && !local.switch_pending &&
      local.window_rows >= kObserveWindow) {
    if (WantRadix(local)) local.switch_pending = true;
    local.window_rows = 0;
    local.window_groups = 0;
  }
  if (local.switch_pending) {
    SwitchToRadix(local, wid, ctx.socket(), ctx.traffic());
  }
}

void AggPhase1Sink::Finalize(ExecContext& ctx) {
  // Runs single-threaded after the last morsel; flushes every worker's
  // remaining pre-aggregation table into the partitions. Radix-mode
  // workers have nothing buffered (their table was flushed at the
  // switch and Clear() left `rows` empty), so the spill no-ops.
  for (size_t w = 0; w < locals_.size(); ++w) {
    if (locals_[w] == nullptr) continue;
    Local& local = *locals_[w];
    SpillLocal(local, static_cast<int>(w), local.rows->socket(),
               ctx.traffic());
  }
}

std::string AggPhase1Sink::RuntimeInfo() const {
  int workers = 0;
  int radix = 0;
  for (const std::unique_ptr<Local>& l : locals_) {
    if (l == nullptr) continue;
    ++workers;
    if (l->radix) ++radix;
  }
  if (workers == 0) return std::string();
  std::string mode;
  if (radix == 0) {
    mode = "local-preagg";
  } else if (radix == workers) {
    mode = "radix";
  } else {
    mode = "radix " + std::to_string(radix) + "/" +
           std::to_string(workers) + " workers";
  }
  return "[agg: " + mode + ", groups≈" + std::to_string(RowsProduced()) +
         "]";
}

int64_t AggPhase1Sink::RowsProduced() const {
  int64_t partials = 0;
  for (int w = 0; w < state_->num_worker_slots(); ++w) {
    for (int p = 0; p < state_->num_partitions(); ++p) {
      RowBuffer* spill = state_->spill_if_exists(w, p);
      if (spill != nullptr) partials += static_cast<int64_t>(spill->rows());
    }
  }
  return partials;
}

std::vector<MorselRange> AggPartitionSource::MakeRanges(
    const Topology& topo) {
  // Partition -> socket affinity: phase 2 reads every worker's spill
  // buffers for the partition, so schedule it on the socket that holds
  // the majority of those rows (the buffers were allocated NUMA-local
  // to the spilling workers). Empty partitions keep the old round-robin
  // placement — there is nothing to be local to.
  std::vector<MorselRange> out;
  std::vector<uint64_t> socket_rows(topo.num_sockets());
  for (int p = 0; p < state_->num_partitions(); ++p) {
    std::fill(socket_rows.begin(), socket_rows.end(), 0);
    for (int w = 0; w < state_->num_worker_slots(); ++w) {
      RowBuffer* buf = state_->spill_if_exists(w, p);
      if (buf != nullptr) {
        socket_rows[buf->socket() % topo.num_sockets()] += buf->rows();
      }
    }
    int socket = p % topo.num_sockets();
    uint64_t best = 0;
    for (int s = 0; s < topo.num_sockets(); ++s) {
      if (socket_rows[s] > best) {
        best = socket_rows[s];
        socket = s;
      }
    }
    out.push_back(MorselRange{p, 0, 1, socket});
  }
  return out;
}

void AggPartitionSource::RunMorsel(const Morsel& m, Pipeline& pipeline,
                                   ExecContext& ctx) {
  const int p = m.partition;
  const TupleLayout& layout = state_->layout();

  // Upper bound on distinct groups in this partition.
  uint64_t total = 0;
  for (int w = 0; w < state_->num_worker_slots(); ++w) {
    RowBuffer* buf = state_->spill_if_exists(w, p);
    if (buf != nullptr) total += buf->rows();
  }

  // Scalar aggregation over empty input still yields one all-zero group.
  if (total == 0) {
    if (state_->num_keys() == 0 && p == 0) {
      RowBuffer empty_row(&layout, ctx.socket());
      uint8_t* row = empty_row.AppendRow();
      std::memset(row, 0, layout.row_size());
      EmitRows(empty_row, pipeline, ctx);
    }
    return;
  }

  uint64_t cap = 1024;
  while (cap < total * 2) cap <<= 1;
  // Slot index = top log2(cap) hash bits. The low bits are OFF LIMITS:
  // RadixPartitionOf pinned bits 13..18 to this partition's id, so a
  // low-bit index would reach only 1/num_partitions of the slots as
  // probe starts and linear probing would degenerate into giant runs
  // (measured: ~5000 probe steps per record on a 1M-group input).
  const int slot_shift = 64 - std::countr_zero(cap);
  std::vector<uint32_t> slots(cap, UINT32_MAX);
  RowBuffer merged(&layout, ctx.socket());

  // Staged merge (same pattern as the batched join probe, DESIGN.md §5):
  // sweep a block of spill records first, hashing and prefetching their
  // open-addressing slots, then combine the block — the random slot-array
  // misses overlap instead of serializing per record.
  constexpr size_t kMergeBlock = 32;
  uint64_t block_hashes[kMergeBlock];
  for (int w = 0; w < state_->num_worker_slots(); ++w) {
    RowBuffer* buf = state_->spill_if_exists(w, p);
    if (buf == nullptr || buf->rows() == 0) continue;
    ctx.traffic()->OnRead(ctx.socket(), buf->socket(), buf->bytes());
    for (size_t base = 0; base < buf->rows(); base += kMergeBlock) {
      // One partition is one morsel, and radix-mode phase 1 can make a
      // partition as large as its share of the *input* — checkpoint at
      // block granularity so cancellation never waits out the merge
      // (DESIGN §11; CheckInterrupt self-throttles).
      ctx.CheckInterrupt();
      const size_t limit = std::min(base + kMergeBlock, buf->rows());
      for (size_t i = base; i < limit; ++i) {
        uint64_t h = TupleLayout::GetHash(buf->row(i));
        block_hashes[i - base] = h;
        MORSEL_PREFETCH(&slots[h >> slot_shift]);
      }
      for (size_t i = base; i < limit; ++i) {
        const uint8_t* partial = buf->row(i);
        uint64_t h = block_hashes[i - base];
        uint64_t slot = h >> slot_shift;
        bool combined = false;
        while (slots[slot] != UINT32_MAX) {
          uint8_t* row = merged.row(slots[slot]);
          if (TupleLayout::GetHash(row) == h &&
              state_->KeysEqualRow(row, partial)) {
            state_->CombinePartial(row, partial);
            combined = true;
            break;
          }
          slot = (slot + 1) & (cap - 1);
        }
        if (!combined) {
          uint32_t idx = static_cast<uint32_t>(merged.rows());
          std::memcpy(merged.AppendRow(), partial, layout.row_size());
          slots[slot] = idx;
        }
      }
    }
  }
  EmitRows(merged, pipeline, ctx);
}

void AggPartitionSource::EmitRows(const RowBuffer& rows, Pipeline& pipeline,
                                  ExecContext& ctx) {
  const TupleLayout& layout = state_->layout();
  const int num_fields = layout.num_fields();
  for (uint64_t base = 0; base < rows.rows(); base += kChunkCapacity) {
    int n = static_cast<int>(
        std::min<uint64_t>(kChunkCapacity, rows.rows() - base));
    Chunk out;
    out.n = n;
    out.cols.resize(num_fields);
    for (int f = 0; f < num_fields; ++f) {
      Vector& v = out.cols[f];
      v.type = layout.field_type(f);
      switch (v.type) {
        case LogicalType::kInt32: {
          auto* d = ctx.arena.AllocArray<int32_t>(n);
          for (int i = 0; i < n; ++i) d[i] = layout.GetI32(rows.row(base + i), f);
          v.data = d;
          break;
        }
        case LogicalType::kInt64: {
          auto* d = ctx.arena.AllocArray<int64_t>(n);
          for (int i = 0; i < n; ++i) d[i] = layout.GetI64(rows.row(base + i), f);
          v.data = d;
          break;
        }
        case LogicalType::kDouble: {
          auto* d = ctx.arena.AllocArray<double>(n);
          for (int i = 0; i < n; ++i) d[i] = layout.GetF64(rows.row(base + i), f);
          v.data = d;
          break;
        }
        case LogicalType::kString: {
          auto* d = ctx.arena.AllocArray<std::string_view>(n);
          for (int i = 0; i < n; ++i) d[i] = layout.GetStr(rows.row(base + i), f);
          v.data = d;
          break;
        }
      }
    }
    // The emitted views point into `rows`, which lives until this call
    // returns: "tuples are immediately pushed into the following operator
    // ... likely still in cache" (§4.4). Sinks deep-copy strings.
    pipeline.Push(out, 0, ctx);
  }
}

}  // namespace morsel
