#include "exec/exchange.h"

#include <algorithm>

#include "exec/operators.h"

namespace morsel {

namespace {

const char* ModeName(ExchangeMode m) {
  switch (m) {
    case ExchangeMode::kUndecided:
      return "undecided";
    case ExchangeMode::kRepartition:
      return "repartition";
    case ExchangeMode::kBroadcast:
      return "broadcast";
  }
  return "?";
}

}  // namespace

ExchangeChannel::ExchangeChannel(std::vector<LogicalType> types,
                                 std::vector<int> sender_worker_slots,
                                 int num_buckets)
    : types_(std::move(types)),
      layout_(types_, /*with_marker=*/false),
      num_buckets_(num_buckets) {
  MORSEL_CHECK(num_buckets >= 1 && !sender_worker_slots.empty());
  int total_slots = 0;
  for (int slots : sender_worker_slots) {
    MORSEL_CHECK(slots >= 1);
    sets_.push_back(std::make_unique<RadixPartitionSet>(&layout_, slots,
                                                        num_buckets));
    arena_base_.push_back(total_slots);
    total_slots += slots;
  }
  arenas_.resize(total_slots);
}

Arena* ExchangeChannel::intern_arena(int sender_shard, int worker_id) {
  // Pre-sized vector + one writer per slot: no lock, no reallocation.
  std::unique_ptr<Arena>& a = arenas_[arena_base_[sender_shard] + worker_id];
  if (a == nullptr) a = std::make_unique<Arena>();
  return a.get();
}

uint64_t ExchangeChannel::bucket_rows(int bucket) const {
  uint64_t n = 0;
  for (const std::unique_ptr<RadixPartitionSet>& set : sets_) {
    n += set->partition_rows(bucket);
  }
  return n;
}

uint64_t ExchangeChannel::total_rows() const {
  uint64_t n = 0;
  for (const std::unique_ptr<RadixPartitionSet>& set : sets_) {
    n += set->total_rows();
  }
  return n;
}

ExchangeSendSink::ExchangeSendSink(ExchangeChannel* channel,
                                   int sender_shard,
                                   std::vector<int> key_cols,
                                   int num_worker_slots)
    : channel_(channel),
      sender_shard_(sender_shard),
      key_cols_(std::move(key_cols)),
      locals_(num_worker_slots) {}

void ExchangeSendSink::Consume(Chunk& chunk, ExecContext& ctx) {
  // Packed per-selected-row hashes drive the scatter; dest[k] holds the
  // channel slot for selected row chunk.RowAt(k), so the field stores
  // read through the selection and dropped rows never cross the wire.
  const int n = chunk.ActiveRows();
  if (n == 0) return;
  const int wid = ctx.worker->worker_id;
  const int socket = ctx.socket();
  const TupleLayout& layout = channel_->layout();

  // Keyless exchange (global-aggregation partials) hashes every row to
  // 0: one bucket.
  const uint64_t* hashes = HashRowsPacked(chunk, key_cols_, ctx);

  Local& local = locals_[wid];
  if (local.scatter == nullptr) {
    local.scatter = std::make_unique<RadixScatter>(
        &layout, channel_->num_buckets(), /*shift=*/32);
  }
  RadixPartitionSet* set = channel_->sender_set(sender_shard_);
  uint8_t** dest = local.scatter->Scatter(
      hashes, n, ctx,
      [&](int b) { return set->buffer(wid, b, socket); });
  for (int k = 0; k < n; ++k) TupleLayout::SetHash(dest[k], hashes[k]);

  Arena* intern = nullptr;
  for (int f = 0; f < layout.num_fields(); ++f) {
    const Vector& v = chunk.cols[f];
    if (v.type == LogicalType::kString) {
      // Rows outlive this query's arenas and tables on other shards
      // never see this shard's storage: deep-copy string payloads into
      // the channel's per-(sender, worker) arena.
      if (intern == nullptr) {
        intern = channel_->intern_arena(sender_shard_, wid);
      }
      const std::string_view* s = v.str();
      for (int k = 0; k < n; ++k) {
        layout.SetStr(dest[k], f, intern->CopyString(s[chunk.RowAt(k)]));
      }
    } else {
      for (int k = 0; k < n; ++k) {
        layout.StoreFromVector(dest[k], f, v, chunk.RowAt(k));
      }
    }
  }
  ctx.traffic()->OnWrite(socket, socket,
                         static_cast<uint64_t>(n) * layout.row_size());
}

int64_t ExchangeSendSink::RowsProduced() const {
  return static_cast<int64_t>(
      channel_->sender_set(sender_shard_)->total_rows());
}

std::string ExchangeSendSink::RuntimeInfo() const {
  const RadixPartitionSet* set = channel_->sender_set(sender_shard_);
  std::string info = "[exchange-send: " +
                     std::to_string(channel_->num_buckets()) +
                     " buckets, rows=";
  for (int b = 0; b < channel_->num_buckets(); ++b) {
    if (b > 0) info += "/";
    info += std::to_string(set->partition_rows(b));
  }
  info += "]";
  return info;
}

ExchangeRecvSource::ExchangeRecvSource(ExchangeChannel* channel,
                                       int receiver_shard)
    : channel_(channel), receiver_shard_(receiver_shard) {
  for (int f = 0; f < channel_->layout().num_fields(); ++f) {
    fields_.push_back(f);
  }
}

std::vector<MorselRange> ExchangeRecvSource::MakeRanges(
    const Topology& topo) {
  const ExchangeMode mode = channel_->mode();
  MORSEL_CHECK_MSG(mode != ExchangeMode::kUndecided,
                   "receive stage started before the exchange mode was "
                   "decided");
  buffers_.clear();
  std::vector<MorselRange> ranges;
  for (int s = 0; s < channel_->num_senders(); ++s) {
    const RadixPartitionSet* set = channel_->sender_set(s);
    for (int w = 0; w < set->num_worker_slots(); ++w) {
      const int b_begin =
          mode == ExchangeMode::kBroadcast ? 0 : receiver_shard_;
      const int b_end = mode == ExchangeMode::kBroadcast
                            ? channel_->num_buckets()
                            : receiver_shard_ + 1;
      for (int b = b_begin; b < b_end; ++b) {
        const RowBuffer* buf = set->buffer_if_exists(w, b);
        if (buf == nullptr || buf->rows() == 0) continue;
        MorselRange r;
        r.partition = static_cast<int>(buffers_.size());
        r.begin = 0;
        r.end = buf->rows();
        // Sender-side socket tags can exceed this shard's socket count
        // (shards run on sliced topologies); clamp for scheduling.
        r.socket = buf->socket() % topo.num_sockets();
        buffers_.push_back(buf);
        ranges.push_back(r);
      }
    }
  }
  return ranges;
}

void ExchangeRecvSource::RunMorsel(const Morsel& m, Pipeline& pipeline,
                                   ExecContext& ctx) {
  const RowBuffer* buf = buffers_[m.partition];
  const TupleLayout& layout = channel_->layout();
  for (uint64_t begin = m.begin; begin < m.end; begin += kChunkCapacity) {
    ctx.CheckInterrupt();
    const int count = static_cast<int>(
        std::min<uint64_t>(kChunkCapacity, m.end - begin));
    const uint8_t** rows = ctx.arena.AllocArray<const uint8_t*>(count);
    for (int i = 0; i < count; ++i) rows[i] = buf->row(begin + i);
    Chunk out;
    out.n = count;
    DecodeRowsToColumns(layout, rows, count, fields_, &ctx.arena, &out);
    ctx.traffic()->OnRead(ctx.socket(), m.socket,
                          static_cast<uint64_t>(count) * layout.row_size());
    rows_received_.fetch_add(static_cast<uint64_t>(count),
                             std::memory_order_relaxed);
    pipeline.Push(out, 0, ctx);
  }
}

std::string ExchangeRecvSource::RuntimeInfo() const {
  return std::string("[exchange: ") + ModeName(channel_->mode()) + " " +
         std::to_string(channel_->num_buckets()) + " shards, rows=" +
         std::to_string(rows_received_.load(std::memory_order_relaxed)) +
         "]";
}

}  // namespace morsel
