// Unit tests for execution-plane pieces: Arena, TupleLayout, RowBuffer,
// gather utilities, scan + traffic accounting, ResultSet.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "exec/operators.h"
#include "exec/result.h"
#include "exec/scan.h"
#include "exec/tuple.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::SmallTopo;

TEST(Arena, ReusesBlocksAfterReset) {
  Arena arena;
  void* first = arena.Alloc(100);
  arena.Alloc(1000);
  arena.Reset();
  void* again = arena.Alloc(100);
  EXPECT_EQ(first, again);  // same block reused, no fresh allocation
}

TEST(Arena, LargeAllocations) {
  Arena arena;
  // bigger than the 256 KiB block size
  char* big = static_cast<char*>(arena.Alloc(1 << 20));
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  char* after = static_cast<char*>(arena.Alloc(64));
  EXPECT_NE(after, nullptr);
}

TEST(Arena, CopyStringOwnsBytes) {
  Arena arena;
  std::string source = "ephemeral";
  std::string_view view = arena.CopyString(source);
  source.assign("XXXXXXXXX");
  EXPECT_EQ(view, "ephemeral");
}

TEST(TupleLayout, OffsetsAndWidths) {
  TupleLayout layout({LogicalType::kInt64, LogicalType::kString,
                      LogicalType::kInt32},
                     /*with_marker=*/true);
  EXPECT_TRUE(layout.has_marker());
  EXPECT_EQ(layout.marker_offset(), 16);
  EXPECT_EQ(layout.field_offset(0), 24);
  EXPECT_EQ(layout.field_offset(1), 32);  // 8-byte int slot
  EXPECT_EQ(layout.field_offset(2),
            32 + static_cast<int>(sizeof(std::string_view)));
  EXPECT_EQ(layout.row_size() % 8, 0);
}

TEST(TupleLayout, RoundTripValues) {
  TupleLayout layout({LogicalType::kInt64, LogicalType::kDouble,
                      LogicalType::kString},
                     false);
  std::vector<uint8_t> row(layout.row_size());
  layout.SetI64(row.data(), 0, -42);
  layout.SetF64(row.data(), 1, 2.75);
  layout.SetStr(row.data(), 2, "tuple");
  TupleLayout::SetHash(row.data(), 0xdeadbeef);
  TupleLayout::SetNext(row.data(), row.data());
  EXPECT_EQ(layout.GetI64(row.data(), 0), -42);
  EXPECT_EQ(layout.GetF64(row.data(), 1), 2.75);
  EXPECT_EQ(layout.GetStr(row.data(), 2), "tuple");
  EXPECT_EQ(TupleLayout::GetHash(row.data()), 0xdeadbeefu);
  EXPECT_EQ(TupleLayout::GetNext(row.data()), row.data());
}

TEST(RowBuffer, AppendAndStability) {
  TupleLayout layout({LogicalType::kInt64}, false);
  RowBuffer buf(&layout, 3);
  EXPECT_EQ(buf.socket(), 3);
  for (int64_t i = 0; i < 10000; ++i) {
    layout.SetI64(buf.AppendRow(), 0, i);
  }
  ASSERT_EQ(buf.rows(), 10000u);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(layout.GetI64(buf.row(i), 0), i);
  }
  EXPECT_EQ(buf.bytes(), 10000u * layout.row_size());
  buf.Clear();
  EXPECT_EQ(buf.rows(), 0u);
}

TEST(Gather, AllTypes) {
  Arena arena;
  static const int64_t i64s[4] = {10, 20, 30, 40};
  static const std::string_view strs[4] = {"a", "b", "c", "d"};
  Chunk in;
  in.n = 4;
  in.cols = {Vector{LogicalType::kInt64, i64s},
             Vector{LogicalType::kString, strs}};
  int32_t idx[2] = {3, 1};
  Chunk out;
  GatherChunk(in, idx, 2, &arena, &out);
  EXPECT_EQ(out.n, 2);
  EXPECT_EQ(out.cols[0].i64()[0], 40);
  EXPECT_EQ(out.cols[0].i64()[1], 20);
  EXPECT_EQ(out.cols[1].str()[0], "d");
  EXPECT_EQ(out.cols[1].str()[1], "b");
}

TEST(HashRows, MultiColumnDiffersFromSingle) {
  static const int64_t a[2] = {1, 2};
  static const int64_t b[2] = {2, 1};
  Chunk c;
  c.n = 2;
  c.cols = {Vector{LogicalType::kInt64, a}, Vector{LogicalType::kInt64, b}};
  uint64_t both[2], first[2], second[2];
  HashColumns(c, {0, 1}, /*packed=*/true, both);
  HashColumns(c, {0}, /*packed=*/true, first);
  HashColumns(c, {1}, /*packed=*/true, second);
  // (1,2) and (2,1) must hash differently (order-dependent combine).
  EXPECT_NE(both[0], both[1]);
  // single-column hashes equal the row value hash irrespective of chunk
  EXPECT_EQ(first[0], second[1]);
}

// Per-row reference for HashColumns, written independently of the
// column-at-a-time code: the first key column stores its value hash,
// later ones combine into it; integers hash sign-extended, doubles by
// bit pattern.
uint64_t ReferenceRowHash(const Chunk& c, const std::vector<int>& keys,
                          int i) {
  uint64_t h = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    const Vector& v = c.cols[keys[k]];
    uint64_t hk = 0;
    switch (v.type) {
      case LogicalType::kInt32:
        hk = Hash64(static_cast<uint64_t>(int64_t{v.i32()[i]}));
        break;
      case LogicalType::kInt64:
        hk = Hash64(static_cast<uint64_t>(v.i64()[i]));
        break;
      case LogicalType::kDouble: {
        uint64_t bits;
        std::memcpy(&bits, &v.f64()[i], 8);
        hk = Hash64(bits);
        break;
      }
      case LogicalType::kString:
        hk = HashString(v.str()[i]);
        break;
    }
    h = k == 0 ? hk : HashCombine(h, hk);
  }
  return h;
}

TEST(HashColumns, MatchesPerRowReferenceForEveryTypeAndShape) {
  constexpr int kN = 8;
  static const int32_t i32[kN] = {0, -1, 7, INT32_MIN, INT32_MAX, 42, -7, 3};
  static const int64_t i64[kN] = {0,  -1, 7, INT64_MIN, INT64_MAX,
                                  42, -7, int64_t{1} << 40};
  static const double f64[kN] = {0.0,  -0.0, 7.0,  std::nan(""),
                                 1e300, 42.5, -7.0, -HUGE_VAL};
  static const std::string_view str[kN] = {"",   "a",  "bc", "promo",
                                            "a b", "zz", "a",  "longer value"};
  Chunk c;
  c.n = kN;
  c.cols = {Vector{LogicalType::kInt32, i32}, Vector{LogicalType::kInt64, i64},
            Vector{LogicalType::kDouble, f64},
            Vector{LogicalType::kString, str}};
  static const int32_t sel[] = {0, 2, 3, 6, 7};
  const std::vector<std::vector<int>> key_sets = {
      {},     {0},    {1},       {2},       {3},      {2, 0},
      {3, 1}, {0, 3}, {0, 1, 2}, {3, 2, 1}, {1, 1, 3}};
  constexpr uint64_t kUntouched = 0x5a5a5a5a5a5a5a5aULL;
  for (const std::vector<int>& keys : key_sets) {
    for (bool selected : {false, true}) {
      SCOPED_TRACE(testing::Message() << "keys=" << keys.size()
                                      << " selected=" << selected);
      c.sel = selected ? sel : nullptr;
      c.sel_n = selected ? 5 : 0;
      uint64_t packed[kN], physical[kN];
      std::fill(packed, packed + kN, kUntouched);
      std::fill(physical, physical + kN, kUntouched);
      HashColumns(c, keys, /*packed=*/true, packed);
      HashColumns(c, keys, /*packed=*/false, physical);
      std::vector<bool> is_selected(kN, false);
      for (int k = 0; k < c.ActiveRows(); ++k) {
        const int i = c.RowAt(k);
        is_selected[i] = true;
        EXPECT_EQ(packed[k], ReferenceRowHash(c, keys, i)) << "row " << i;
        EXPECT_EQ(physical[i], ReferenceRowHash(c, keys, i)) << "row " << i;
      }
      for (int i = 0; i < kN; ++i) {
        if (!is_selected[i]) {
          EXPECT_EQ(physical[i], kUntouched);
        }
      }
    }
  }
  // An int32 and an int64 key holding the same number hash alike (joins
  // and exchanges across key widths rely on it).
  c.sel = nullptr;
  uint64_t h32[kN], h64[kN];
  HashColumns(c, {0}, true, h32);
  HashColumns(c, {1}, true, h64);
  for (int i : {0, 1, 2, 5, 6}) EXPECT_EQ(h32[i], h64[i]);
}

TEST(Scan, TrafficChargedAtMorselSocket) {
  const Topology& topo = SmallTopo();
  Schema schema({{"x", LogicalType::kInt64}});
  Table t("t", schema, topo);
  for (int64_t i = 0; i < 1000; ++i) {
    t.Int64Col(static_cast<int>(i % t.num_partitions()), 0)->Append(i);
  }
  for (int p = 0; p < t.num_partitions(); ++p) t.SealPartition(p);

  MemStatsRegistry stats(1);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.socket = 0;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  struct NullSink : Sink {
    int64_t rows = 0;
    void Consume(Chunk& c, ExecContext&) override { rows += c.n; }
  };
  auto source = std::make_unique<TableScanSource>(&t, std::vector<int>{0});
  TableScanSource* src = source.get();
  NullSink sink;
  Pipeline pipe(std::move(source), {}, &sink);

  // Partition 1 lives on socket 1; scanning it from socket 0 is remote.
  Morsel m;
  m.partition = 1;
  m.begin = 0;
  m.end = t.PartitionRows(1);
  m.socket = 1;
  src->RunMorsel(m, pipe, ctx);
  EXPECT_EQ(sink.rows, static_cast<int64_t>(t.PartitionRows(1)));
  TrafficSnapshot snap = stats.Aggregate();
  EXPECT_EQ(snap.read_local, 0u);
  EXPECT_EQ(snap.read_remote, t.PartitionRows(1) * 8);
}

TEST(ResultSet, AppendAndOwnership) {
  ResultSet rs({LogicalType::kInt64, LogicalType::kString});
  {
    // Chunk strings go out of scope; ResultSet must have copied them.
    std::string transient = "will-be-freed";
    std::string_view views[1] = {transient};
    int64_t nums[1] = {5};
    Chunk c;
    c.n = 1;
    c.cols = {Vector{LogicalType::kInt64, nums},
              Vector{LogicalType::kString, views}};
    rs.AppendChunk(c);
    transient.assign("XXXXXXXXXXXXX");
  }
  EXPECT_EQ(rs.num_rows(), 1);
  EXPECT_EQ(rs.I64(0, 0), 5);
  EXPECT_EQ(rs.Str(0, 1), "will-be-freed");
  EXPECT_EQ(rs.RowToString(0), "5\twill-be-freed");

  ResultSet other({LogicalType::kInt64, LogicalType::kString});
  int64_t nums2[1] = {6};
  std::string_view views2[1] = {"second"};
  Chunk c2;
  c2.n = 1;
  c2.cols = {Vector{LogicalType::kInt64, nums2},
             Vector{LogicalType::kString, views2}};
  other.AppendChunk(c2);
  rs.Append(std::move(other));
  EXPECT_EQ(rs.num_rows(), 2);
  EXPECT_EQ(rs.Str(1, 1), "second");
}

TEST(Storage, TablePartitioningAndPlacement) {
  const Topology& topo = SmallTopo();
  Schema schema({{"x", LogicalType::kInt64}});
  Table local("l", schema, topo, Placement::kNumaLocal);
  Table osdef("o", schema, topo, Placement::kOsDefault);
  Table inter("i", schema, topo, Placement::kInterleaved);
  EXPECT_EQ(local.num_partitions(), topo.num_sockets());
  EXPECT_EQ(local.SocketOfRange(1, 0), 1);
  EXPECT_EQ(osdef.SocketOfRange(1, 0), 0);  // everything on node 0
  // interleaved alternates with row blocks
  EXPECT_NE(inter.SocketOfRange(0, 0), inter.SocketOfRange(0, 8192));
}

TEST(Storage, StringColumnHeap) {
  StringColumn col(0);
  col.Append("alpha");
  col.Append("");
  col.Append("gamma");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Get(0), "alpha");
  EXPECT_EQ(col.Get(1), "");
  EXPECT_EQ(col.Get(2), "gamma");
  EXPECT_EQ(col.heap_bytes(), 10u);
  // Contract: views are stable only once loading is finished (the heap
  // may reallocate while growing). After the last append, views stay
  // valid for the lifetime of the column — queries rely on this.
  for (int i = 0; i < 10000; ++i) col.Append("padpadpad");
  std::string_view first = col.Get(0);
  std::string_view last = col.Get(10002);
  EXPECT_EQ(first, "alpha");
  EXPECT_EQ(last, "padpadpad");
  EXPECT_EQ(col.Get(0), first);  // repeated reads agree
}

}  // namespace
}  // namespace morsel
