#include "shard/sharded_table.h"

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

int ShardedTable::RouteRow(const Table& src, int part, size_t row,
                           size_t ordinal) {
  switch (dist_) {
    case ShardDist::kReplicated:
      return -1;  // caller appends to every shard
    case ShardDist::kRoundRobin:
      return static_cast<int>(ordinal % frags_.size());
    case ShardDist::kHash:
      break;
  }
  // The key hash of HashColumns (exec/operators.h), value by value: the
  // exchange send path hashes chunk values the same way, so a
  // hash-distributed table is co-partitioned with exchange output on
  // the same keys — the whole point of the kHash policy.
  Table& t = const_cast<Table&>(src);
  uint64_t h = 0;
  for (size_t k = 0; k < hash_key_cols_.size(); ++k) {
    const int c = hash_key_cols_[k];
    uint64_t hk = 0;
    switch (src.schema().field(c).type) {
      case LogicalType::kInt32:
        hk = HashValue(t.Int32Col(part, c)->Get(row));
        break;
      case LogicalType::kInt64:
        hk = HashValue(t.Int64Col(part, c)->Get(row));
        break;
      case LogicalType::kDouble:
        hk = HashValue(t.DoubleCol(part, c)->Get(row));
        break;
      case LogicalType::kString:
        hk = HashValue(t.StrCol(part, c)->Get(row));
        break;
    }
    h = k == 0 ? hk : HashCombine(h, hk);
  }
  return ShardPartitionOf(h, static_cast<int>(frags_.size()));
}

void ShardedTable::Load() {
  const Schema& schema = canonical_->schema();
  const int ncols = schema.num_fields();
  // Per-fragment row tally: rows deal round-robin across the
  // fragment's own (per-socket) partitions so every shard still has
  // many morsel-able storage areas.
  std::vector<size_t> frag_rows(frags_.size(), 0);
  auto append_row = [&](int shard, int part, size_t row) {
    Table* dst = frags_[shard].get();
    const int dp =
        static_cast<int>(frag_rows[shard]++ % dst->num_partitions());
    Table& src = const_cast<Table&>(*canonical_);
    for (int c = 0; c < ncols; ++c) {
      switch (schema.field(c).type) {
        case LogicalType::kInt32:
          dst->Int32Col(dp, c)->Append(src.Int32Col(part, c)->Get(row));
          break;
        case LogicalType::kInt64:
          dst->Int64Col(dp, c)->Append(src.Int64Col(part, c)->Get(row));
          break;
        case LogicalType::kDouble:
          dst->DoubleCol(dp, c)->Append(src.DoubleCol(part, c)->Get(row));
          break;
        case LogicalType::kString:
          dst->StrCol(dp, c)->Append(src.StrCol(part, c)->Get(row));
          break;
      }
    }
  };

  size_t ordinal = 0;
  for (int p = 0; p < canonical_->num_partitions(); ++p) {
    const size_t rows = canonical_->PartitionRows(p);
    for (size_t r = 0; r < rows; ++r, ++ordinal) {
      const int shard = RouteRow(*canonical_, p, r, ordinal);
      if (shard < 0) {
        for (int s = 0; s < num_shards(); ++s) append_row(s, p, r);
      } else {
        append_row(shard, p, r);
      }
    }
  }
  for (std::unique_ptr<Table>& frag : frags_) {
    for (int p = 0; p < frag->num_partitions(); ++p) {
      frag->SealPartition(p);
    }
  }
}

}  // namespace morsel
