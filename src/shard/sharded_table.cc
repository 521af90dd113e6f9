#include "shard/sharded_table.h"

#include <exception>
#include <thread>
#include <type_traits>

#include "common/hash.h"
#include "common/macros.h"
#include "exec/radix_partition.h"

namespace morsel {

ShardedTable::ShardedTable(const Table* canonical, ShardDist dist,
                           std::vector<std::string> hash_keys,
                           const std::vector<Topology>& shard_topos)
    : canonical_(canonical),
      dist_(dist),
      hash_keys_(std::move(hash_keys)) {
  MORSEL_CHECK(!shard_topos.empty());
  MORSEL_CHECK_MSG(dist != ShardDist::kHash || !hash_keys_.empty(),
                   "hash distribution requires key columns");
  for (const std::string& k : hash_keys_) {
    hash_key_cols_.push_back(canonical_->schema().IndexOf(k));
  }
  for (size_t s = 0; s < shard_topos.size(); ++s) {
    frags_.push_back(std::make_unique<Table>(
        canonical_->name() + "@shard" + std::to_string(s),
        canonical_->schema(), shard_topos[s], canonical_->placement()));
  }
}

namespace {

// Runs fn(i) for every i in [0, n), one thread each (i = 0 on the
// calling thread), and rethrows the first failure once all have ended.
template <typename Fn>
void ParallelFor(int n, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  auto run = [&](int i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    threads.reserve(n);
    for (int i = 1; i < n; ++i) threads.emplace_back(run, i);
    run(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Calls fn(std::type_identity<ColumnClass>{}) for a column of `type`, so
// the caller writes one typed loop per column instead of a per-value
// switch.
template <typename Fn>
void VisitColumnType(LogicalType type, const Fn& fn) {
  switch (type) {
    case LogicalType::kInt32:
      return fn(std::type_identity<Int32Column>{});
    case LogicalType::kInt64:
      return fn(std::type_identity<Int64Column>{});
    case LogicalType::kDouble:
      return fn(std::type_identity<DoubleColumn>{});
    case LogicalType::kString:
      return fn(std::type_identity<StringColumn>{});
  }
}

template <typename ColT>
const ColT& ColumnOf(const Table& t, int part, int col) {
  return static_cast<const ColT&>(*t.column(part, col));
}

}  // namespace

std::vector<uint32_t> ShardedTable::RoutePartition(int part,
                                                   size_t first_ordinal) const {
  const size_t rows = canonical_->PartitionRows(part);
  const size_t n = frags_.size();
  std::vector<uint32_t> route(rows);
  if (dist_ == ShardDist::kRoundRobin) {
    for (size_t r = 0; r < rows; ++r) {
      route[r] = static_cast<uint32_t>((first_ordinal + r) % n);
    }
    return route;
  }
  // The key hash of HashColumns (exec/operators.h), one typed pass per
  // key column: the exchange send path hashes chunk values the same way,
  // so a hash-distributed table is co-partitioned with exchange output
  // on the same keys — the whole point of the kHash policy.
  std::vector<uint64_t> h(rows);
  for (size_t k = 0; k < hash_key_cols_.size(); ++k) {
    const int c = hash_key_cols_[k];
    VisitColumnType(canonical_->schema().field(c).type, [&](auto tag) {
      using ColT = typename decltype(tag)::type;
      const ColT& col = ColumnOf<ColT>(*canonical_, part, c);
      if (k == 0) {
        for (size_t r = 0; r < rows; ++r) h[r] = HashValue(col.Get(r));
      } else {
        for (size_t r = 0; r < rows; ++r) {
          h[r] = HashCombine(h[r], HashValue(col.Get(r)));
        }
      }
    });
  }
  for (size_t r = 0; r < rows; ++r) {
    route[r] = static_cast<uint32_t>(
        ShardPartitionOf(h[r], static_cast<int>(n)));
  }
  return route;
}

void ShardedTable::LoadFragment(
    int shard, const std::vector<std::vector<uint32_t>>& routes) {
  Table* dst = frags_[shard].get();
  const int src_parts = canonical_->num_partitions();
  const int dst_parts = dst->num_partitions();
  // rows[p][dp]: the rows of source partition p this shard keeps, dealt
  // round-robin across the fragment's own (per-socket) partitions in
  // arrival order, so every shard still has many morsel-able storage
  // areas. The deal carries on from one source partition to the next.
  std::vector<std::vector<std::vector<uint32_t>>> rows(
      src_parts, std::vector<std::vector<uint32_t>>(dst_parts));
  std::vector<size_t> dst_rows(dst_parts, 0);
  size_t dealt = 0;
  for (int p = 0; p < src_parts; ++p) {
    const size_t n = canonical_->PartitionRows(p);
    const uint32_t me = static_cast<uint32_t>(shard);
    for (size_t r = 0; r < n; ++r) {
      if (dist_ != ShardDist::kReplicated && routes[p][r] != me) continue;
      const int dp = static_cast<int>(dealt++ % dst_parts);
      rows[p][dp].push_back(static_cast<uint32_t>(r));
      ++dst_rows[dp];
    }
  }
  // A column at a time, one typed loop each. Exact reservations: a
  // grown column would keep every superseded buffer (StableVector).
  const Schema& schema = canonical_->schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    VisitColumnType(schema.field(c).type, [&](auto tag) {
      using ColT = typename decltype(tag)::type;
      for (int dp = 0; dp < dst_parts; ++dp) {
        ColT* out = static_cast<ColT*>(dst->column(dp, c));
        if constexpr (std::is_same_v<ColT, StringColumn>) {
          size_t bytes = 0;
          for (int p = 0; p < src_parts; ++p) {
            const ColT& in = ColumnOf<ColT>(*canonical_, p, c);
            for (uint32_t r : rows[p][dp]) bytes += in.Get(r).size();
          }
          out->Reserve(dst_rows[dp], bytes);
        } else {
          out->Reserve(out->size() + dst_rows[dp]);
        }
        for (int p = 0; p < src_parts; ++p) {
          const ColT& in = ColumnOf<ColT>(*canonical_, p, c);
          for (uint32_t r : rows[p][dp]) out->Append(in.Get(r));
        }
      }
    });
  }
  for (int dp = 0; dp < dst_parts; ++dp) dst->SealPartition(dp);
}

void ShardedTable::Load() {
  const int shards = num_shards();
  const int src_parts = canonical_->num_partitions();
  // The shard of every canonical row, one route vector per source
  // partition; round-robin ordinals run across partitions in order.
  // Replicated tables need none: every shard keeps every row.
  std::vector<std::vector<uint32_t>> routes(src_parts);
  if (dist_ != ShardDist::kReplicated) {
    std::vector<size_t> first_ordinal(src_parts, 0);
    for (int p = 1; p < src_parts; ++p) {
      first_ordinal[p] =
          first_ordinal[p - 1] + canonical_->PartitionRows(p - 1);
    }
    ParallelFor(shards, [&](int t) {
      for (int p = t; p < src_parts; p += shards) {
        routes[p] = RoutePartition(p, first_ordinal[p]);
      }
    });
  }
  // One loader per shard: each writes only its own fragment.
  ParallelFor(shards, [&](int s) { LoadFragment(s, routes); });
}

}  // namespace morsel
