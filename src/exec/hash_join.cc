#include "exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>

namespace morsel {

namespace {

bool NeedsMarker(JoinKind kind) { return kind == JoinKind::kRightOuterMark; }

// Relaxed atomic view of a tuple's 8-byte marker slot.
std::atomic<uint64_t>* MarkerOf(uint8_t* tuple, const TupleLayout& layout) {
  return reinterpret_cast<std::atomic<uint64_t>*>(tuple +
                                                  layout.marker_offset());
}

}  // namespace

JoinState::JoinState(std::vector<LogicalType> build_types, int num_keys,
                     JoinKind kind, int num_worker_slots)
    : layout_(std::move(build_types), NeedsMarker(kind)),
      num_keys_(num_keys),
      kind_(kind),
      buffers_(num_worker_slots),
      string_arenas_(num_worker_slots) {
  MORSEL_CHECK(num_keys_ >= 1 && num_keys_ <= layout_.num_fields());
}

RowBuffer* JoinState::buffer(int worker_id, int socket) {
  std::unique_ptr<RowBuffer>& b = buffers_[worker_id];
  if (b == nullptr) b = std::make_unique<RowBuffer>(&layout_, socket);
  return b.get();
}

std::string_view JoinState::InternString(int worker_id,
                                         std::string_view s) {
  std::unique_ptr<Arena>& a = string_arenas_[worker_id];
  if (a == nullptr) a = std::make_unique<Arena>();
  return a->CopyString(s);
}

void JoinState::FinishMaterialize() {
  build_rows_ = 0;
  ranges_.clear();
  for (const auto& b : buffers_) {
    if (b == nullptr || b->rows() == 0) continue;
    build_rows_ += b->rows();
    ranges_.push_back(TupleRange{b->row(0), b->row(0) + b->bytes(),
                                 b->socket()});
  }
  // Storage areas are disjoint, so address order gives a total order the
  // probe-side socket lookup can binary-search. std::less, not built-in
  // <: the begins come from unrelated allocations.
  std::sort(ranges_.begin(), ranges_.end(),
            [](const TupleRange& a, const TupleRange& b) {
              return std::less<const uint8_t*>{}(a.begin, b.begin);
            });
  // "an empty hash table is created with the perfect size, because the
  // input size is now known precisely" (§4.1).
  ht_ = std::make_unique<TaggedHashTable>(build_rows_);
}

int JoinState::SocketOfTuple(const uint8_t* tuple, int* hint) const {
  if (*hint >= 0) {
    const TupleRange& r = ranges_[*hint];
    if (tuple >= r.begin && tuple < r.end) return r.socket;
  }
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), tuple,
      [](const uint8_t* t, const TupleRange& r) {
        return std::less<const uint8_t*>{}(t, r.begin);
      });
  if (it == ranges_.begin()) return 0;
  --it;
  if (tuple >= it->end) return 0;
  *hint = static_cast<int>(it - ranges_.begin());
  return it->socket;
}

std::vector<MorselRange> JoinState::InsertRanges() const {
  std::vector<MorselRange> out;
  for (size_t i = 0; i < buffers_.size(); ++i) {
    const auto& b = buffers_[i];
    if (b == nullptr || b->rows() == 0) continue;
    out.push_back(MorselRange{static_cast<int>(i), 0, b->rows(),
                              b->socket()});
  }
  return out;
}

void HashBuildSink::Consume(Chunk& chunk, ExecContext& ctx) {
  const TupleLayout& layout = state_->layout();
  int wid = ctx.worker->worker_id;
  RowBuffer* buf = state_->buffer(wid, ctx.socket());
  // Reads through the selection vector: materializing row-wise anyway,
  // a gather-compaction of every column first would be pure overhead.
  const int active = chunk.ActiveRows();
  for (int k = 0; k < active; ++k) {
    const int i = chunk.RowAt(k);
    uint8_t* row = buf->AppendRow();
    TupleLayout::SetNext(row, nullptr);
    TupleLayout::SetHash(row, HashRow(chunk, key_cols_, i));
    if (layout.has_marker()) {
      std::memset(row + layout.marker_offset(), 0, 8);
    }
    for (int f = 0; f < layout.num_fields(); ++f) {
      if (layout.field_type(f) == LogicalType::kString) {
        // Chunk strings may live in the per-morsel arena; intern them.
        layout.SetStr(row, f,
                      state_->InternString(wid, chunk.cols[f].str()[i]));
      } else {
        layout.StoreFromVector(row, f, chunk.cols[f], i);
      }
    }
  }
  // Materialization writes NUMA-locally (§2, Figure 3).
  ctx.traffic()->OnWrite(ctx.socket(), ctx.socket(),
                         uint64_t{static_cast<uint64_t>(active)} *
                             layout.row_size());
}

void HashBuildSink::Finalize(ExecContext& ctx) {
  (void)ctx;
  state_->FinishMaterialize();
}

void HashInsertJob::RunMorsel(const Morsel& m, WorkerContext& wctx) {
  RowBuffer* buf = state_->buffer_by_index(m.partition);
  TaggedHashTable* ht = state_->table();
  const int num_sockets = wctx.topo->num_sockets();
  // Software pipeline: rows are prefetched kRowAhead iterations early, so
  // by i+kSlotAhead the row header is resident and its hash can steer a
  // slot prefetch — both the sequential row stream and the random slot
  // stream stay ahead of the insert.
  constexpr uint64_t kRowAhead = 8;
  constexpr uint64_t kSlotAhead = 4;
  SocketTally slot_writes;
  for (uint64_t i = m.begin; i < m.end; ++i) {
    // Insert morsels can be large; checkpoint per ~4k rows so a build
    // aborts promptly (DESIGN §11). A half-populated table is fine: an
    // aborted query never probes it.
    if ((i & 0xFFF) == 0) CheckQueryInterrupt(query());
    if (i + kRowAhead < m.end) MORSEL_PREFETCH(buf->row(i + kRowAhead));
    if (i + kSlotAhead < m.end) {
      ht->PrefetchSlot(TupleLayout::GetHash(buf->row(i + kSlotAhead)));
    }
    uint8_t* row = buf->row(i);
    uint64_t hash = TupleLayout::GetHash(row);
    ht->Insert(row, hash);
    slot_writes.AddInterleaved(ht->SlotByteOffset(hash), 8, num_sockets);
  }
  // Per-morsel aggregated accounting: the tuples read from their storage
  // area, and the 8-byte slots written into the socket-interleaved hash
  // table array.
  if (m.end > m.begin) {
    wctx.traffic->OnRead(wctx.socket, buf->socket(),
                         (m.end - m.begin) * state_->layout().row_size());
  }
  slot_writes.FlushWrites(wctx.traffic, wctx.socket, num_sockets);
}

HashProbeOp::HashProbeOp(JoinState* state, std::vector<int> probe_key_cols,
                         std::vector<int> build_output_fields,
                         ExprPtr residual)
    : state_(state),
      probe_key_cols_(std::move(probe_key_cols)),
      build_output_fields_(std::move(build_output_fields)),
      residual_(std::move(residual)) {
  MORSEL_CHECK(static_cast<int>(probe_key_cols_.size()) ==
               state_->num_keys());
}

bool HashProbeOp::KeysEqual(const Chunk& in, int row,
                            const uint8_t* tuple) const {
  const TupleLayout& layout = state_->layout();
  for (size_t k = 0; k < probe_key_cols_.size(); ++k) {
    const Vector& v = in.cols[probe_key_cols_[k]];
    int f = static_cast<int>(k);
    switch (v.type) {
      case LogicalType::kInt32:
        if (layout.GetI64(tuple, f) != v.i32()[row]) return false;
        break;
      case LogicalType::kInt64:
        if (layout.GetI64(tuple, f) != v.i64()[row]) return false;
        break;
      case LogicalType::kDouble:
        if (layout.GetF64(tuple, f) != v.f64()[row]) return false;
        break;
      case LogicalType::kString:
        if (layout.GetStr(tuple, f) != v.str()[row]) return false;
        break;
    }
  }
  return true;
}

void HashProbeOp::EmitProbeOnly(const Chunk& in, const int32_t* rows,
                                int count, bool pad_build, ExecContext& ctx,
                                Pipeline& pipeline, int self_index) {
  if (count == 0) return;
  Chunk out;
  GatherChunk(in, rows, count, &ctx.arena, &out);
  if (pad_build) {
    AppendDefaultColumns(state_->layout(), build_output_fields_, count,
                         &ctx.arena, &out);
  }
  pipeline.Push(out, self_index + 1, ctx);
}

void HashProbeOp::FlushCandidates(const Chunk& in, const int32_t* cand_rows,
                                  const uint8_t* const* cand_tuples,
                                  int count, uint8_t* matched,
                                  ExecContext& ctx, Pipeline& pipeline,
                                  int self_index) {
  if (count == 0) return;
  const TupleLayout& layout = state_->layout();
  // Combined chunk: gathered probe columns + decoded build fields.
  Chunk combined;
  GatherChunk(in, cand_rows, count, &ctx.arena, &combined);
  DecodeRowsToColumns(layout, cand_tuples, count, build_output_fields_,
                      &ctx.arena, &combined);

  // Residual predicate over the combined rows.
  const int32_t* pass = nullptr;
  if (residual_ != nullptr) {
    Vector flags;
    residual_->Eval(combined, ctx, &flags);
    pass = flags.i32();
  }

  int surviving = 0;
  int32_t* keep = ctx.arena.AllocArray<int32_t>(count);
  for (int i = 0; i < count; ++i) {
    if (pass != nullptr && pass[i] == 0) continue;
    keep[surviving++] = i;
    if (matched != nullptr) matched[cand_rows[i]] = 1;
    if (state_->kind() == JoinKind::kRightOuterMark) {
      // "Before setting the marker it is advantageous to first check that
      // the marker is not yet set, to avoid unnecessary contention."
      auto* marker =
          MarkerOf(const_cast<uint8_t*>(cand_tuples[i]), layout);
      if (marker->load(std::memory_order_relaxed) == 0) {
        marker->store(1, std::memory_order_relaxed);
      }
    }
  }

  JoinKind kind = state_->kind();
  if (kind == JoinKind::kSemi || kind == JoinKind::kAnti) {
    return;  // only the match flags matter
  }
  if (surviving == 0) return;
  if (surviving == count) {
    pipeline.Push(combined, self_index + 1, ctx);
    return;
  }
  Chunk filtered;
  GatherChunk(combined, keep, surviving, &ctx.arena, &filtered);
  pipeline.Push(filtered, self_index + 1, ctx);
}

void HashProbeOp::ProbeBatched(const Chunk& chunk, const uint64_t* hashes,
                               uint8_t* matched, ExecContext& ctx,
                               Pipeline& pipeline, int self_index) {
  TaggedHashTable* ht = state_->table();
  const TupleLayout& layout = state_->layout();
  const JoinKind kind = state_->kind();
  // Semi/anti without residual: first key match settles the probe row.
  const bool settle_on_first =
      residual_ == nullptr &&
      (kind == JoinKind::kSemi || kind == JoinKind::kAnti);

  // Stage 1: sweep all slot prefetches before the first slot is read, so
  // the (usually cold) hash-table lines stream in concurrently. The
  // 8-byte-per-probe slot-read accounting rides the same pass.
  SocketTally slot_reads;
  const int num_sockets = ctx.num_sockets();
  const int active = chunk.ActiveRows();
  for (int k = 0; k < active; ++k) {
    const int i = chunk.RowAt(k);
    ht->PrefetchSlot(hashes[i]);
    slot_reads.AddInterleaved(ht->SlotByteOffset(hashes[i]), 8,
                              num_sockets);
  }
  slot_reads.FlushReads(ctx.traffic(), ctx.socket(), num_sockets);

  // Stage 2: load the chain heads, apply the 16-bit tag filter in bulk,
  // and prefetch the surviving heads. Most misses die here having cost
  // only the single slot read (§4.2).
  int32_t* pend_rows = ctx.arena.AllocArray<int32_t>(chunk.n);
  const uint8_t** pend_heads =
      ctx.arena.AllocArray<const uint8_t*>(chunk.n);
  int n_pend = 0;
  const bool tag = ctx.use_tagging;
  for (int k = 0; k < active; ++k) {
    const int i = chunk.RowAt(k);
    uint64_t slot = ht->SlotValue(hashes[i]);
    if (tag && (slot & TaggedHashTable::TagOf(hashes[i])) == 0) continue;
    const uint8_t* head = TaggedHashTable::DecodePointer(slot);
    if (head == nullptr) continue;
    MORSEL_PREFETCH(head);
    pend_rows[n_pend] = i;
    pend_heads[n_pend] = head;
    ++n_pend;
  }

  int32_t* cand_rows = ctx.arena.AllocArray<int32_t>(kChunkCapacity);
  const uint8_t** cand_tuples =
      ctx.arena.AllocArray<const uint8_t*>(kChunkCapacity);
  int n_cand = 0;

  SocketTally chain_reads;
  int socket_hint = -1;

  // Stage 3: AMAC-style chain walking. A fixed window of in-flight
  // probes round-robins: each visit examines one chain node whose line
  // was prefetched a full window-sweep earlier, then prefetches the next
  // node, so up to kProbeWindow chain misses are outstanding at once.
  struct InFlight {
    int32_t row;
    const uint8_t* tuple;
  };
  InFlight win[kProbeWindow];
  int filled = 0;
  int next = 0;
  while (filled < kProbeWindow && next < n_pend) {
    win[filled++] = InFlight{pend_rows[next], pend_heads[next]};
    ++next;
  }
  while (filled > 0) {
    for (int j = 0; j < filled;) {
      const uint8_t* tuple = win[j].tuple;
      const int32_t row = win[j].row;
      const uint64_t hash = hashes[row];
      chain_reads.Add(state_->SocketOfTuple(tuple, &socket_hint),
                      layout.row_size());
      bool settled = false;
      if (TupleLayout::GetHash(tuple) == hash &&
          KeysEqual(chunk, row, tuple)) {
        cand_rows[n_cand] = row;
        cand_tuples[n_cand] = tuple;
        if (++n_cand == kChunkCapacity) {
          FlushCandidates(chunk, cand_rows, cand_tuples, n_cand, matched,
                          ctx, pipeline, self_index);
          n_cand = 0;
        }
        settled = settle_on_first;
      }
      const uint8_t* nxt =
          settled ? nullptr : TupleLayout::GetNext(tuple);
      if (nxt != nullptr) {
        MORSEL_PREFETCH(nxt);
        win[j].tuple = nxt;
        ++j;
      } else if (next < n_pend) {
        // Chain exhausted: refill the slot with the next pending probe
        // (its head line was prefetched in stage 2).
        win[j] = InFlight{pend_rows[next], pend_heads[next]};
        ++next;
        ++j;
      } else {
        // Drain: shrink the window; the moved entry is examined next.
        win[j] = win[--filled];
      }
    }
  }
  FlushCandidates(chunk, cand_rows, cand_tuples, n_cand, matched, ctx,
                  pipeline, self_index);

  chain_reads.FlushReads(ctx.traffic(), ctx.socket(), num_sockets);
}

void HashProbeOp::Process(Chunk& chunk, ExecContext& ctx,
                          Pipeline& pipeline, int self_index) {
  // The staged probe reads straight through the selection vector: every
  // per-row structure (hashes, match flags, candidate lists) stays
  // physically indexed, and the stage loops visit only selected rows.
  const uint64_t* hashes = HashRows(chunk, probe_key_cols_, ctx);
  JoinKind kind = state_->kind();
  const bool track_matches = kind != JoinKind::kInner &&
                             kind != JoinKind::kRightOuterMark;

  uint8_t* matched = nullptr;
  if (track_matches) {
    matched = ctx.arena.AllocArray<uint8_t>(chunk.n);
    std::memset(matched, 0, chunk.n);
  }

  ProbeBatched(chunk, hashes, matched, ctx, pipeline, self_index);

  // Post-pass for kinds keyed on match existence.
  if (kind == JoinKind::kSemi || kind == JoinKind::kAnti ||
      kind == JoinKind::kLeftOuter) {
    const bool want = kind == JoinKind::kSemi;
    int32_t* rows = ctx.arena.AllocArray<int32_t>(chunk.n);
    int count = 0;
    const int active = chunk.ActiveRows();
    for (int k = 0; k < active; ++k) {
      const int i = chunk.RowAt(k);
      bool is_matched = matched[i] != 0;
      if (kind == JoinKind::kLeftOuter) {
        if (!is_matched) rows[count++] = i;  // pad-and-emit misses
      } else if (is_matched == want) {
        rows[count++] = i;
      }
    }
    EmitProbeOnly(chunk, rows, count, kind == JoinKind::kLeftOuter, ctx,
                  pipeline, self_index);
  }
}

std::vector<MorselRange> UnmatchedBuildSource::MakeRanges(
    const Topology& topo) {
  (void)topo;
  return state_->InsertRanges();
}

void UnmatchedBuildSource::RunMorsel(const Morsel& m, Pipeline& pipeline,
                                     ExecContext& ctx) {
  RowBuffer* buf = state_->buffer_by_index(m.partition);
  const TupleLayout& layout = state_->layout();
  MORSEL_CHECK(layout.has_marker());
  std::vector<int> all_fields;
  for (int f = 0; f < layout.num_fields(); ++f) all_fields.push_back(f);
  const uint8_t** unmatched =
      ctx.arena.AllocArray<const uint8_t*>(kChunkCapacity);
  for (uint64_t base = m.begin; base < m.end; base += kChunkCapacity) {
    uint64_t limit = std::min(base + kChunkCapacity, m.end);
    int count = 0;
    for (uint64_t i = base; i < limit; ++i) {
      uint8_t* row = buf->row(i);
      if (MarkerOf(row, layout)->load(std::memory_order_relaxed) == 0) {
        unmatched[count++] = row;
      }
    }
    if (count == 0) continue;
    Chunk out;
    out.n = count;
    DecodeRowsToColumns(layout, unmatched, count, all_fields, &ctx.arena,
                        &out);
    ctx.traffic()->OnRead(ctx.socket(), buf->socket(),
                          uint64_t{static_cast<uint64_t>(count)} *
                              layout.row_size());
    pipeline.Push(out, 0, ctx);
  }
}

}  // namespace morsel
