// Engine-level hash-join tests: every join kind, duplicate keys,
// residual predicates, multi-column keys, string keys from computed
// expressions (arena-lifetime safety), the right-outer marker path.

#include <gtest/gtest.h>

#include <map>

#include "exec/hash_join.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallEngine;
using testutil::SmallTopo;
using testutil::SortedRows;

std::vector<std::pair<int64_t, int64_t>> Numbers(int64_t n,
                                                 int64_t key_mod) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({i % key_mod, i});
  return rows;
}

TEST(HashJoin, InnerMultiplicity) {
  // probe: keys 0..9 each 100x; build: keys 0,2,4,6,8 each 2x
  auto probe = MakeKv(SmallTopo(), Numbers(1000, 10), "pk", "pv");
  std::vector<std::pair<int64_t, int64_t>> build_rows;
  for (int64_t k = 0; k < 10; k += 2) {
    build_rows.push_back({k, k * 10});
    build_rows.push_back({k, k * 10 + 1});
  }
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");

  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  aggs.push_back({AggFunc::kSum, p.Col("bv"), "sum_bv"});
  p.GroupBy({"pk"}, std::move(aggs));
  p.OrderBy({{"pk", true}});
  auto q = SmallEngine().CreateQuery(p.Build());
  ResultSet r = q->Execute();

  // 5 matching keys, each probe row matches 2 build rows.
  ASSERT_EQ(r.num_rows(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    int64_t k = r.I64(i, 0);
    EXPECT_EQ(k % 2, 0);
    EXPECT_EQ(r.I64(i, 1), 200);                     // 100 rows x 2 matches
    EXPECT_EQ(r.I64(i, 2), 100 * (k * 10 * 2 + 1));  // sum of both payloads
  }
}

TEST(HashJoin, SemiAndAntiArePartitions) {
  auto probe = MakeKv(SmallTopo(), Numbers(1000, 10), "pk", "pv");
  // build contains keys 0..4, each MANY times (semi must not duplicate)
  auto build = MakeKv(SmallTopo(), Numbers(500, 5), "bk", "bv");

  auto count_join = [&](JoinKind kind) {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {}, kind);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    p.GroupBy({}, std::move(aggs));
    p.CollectResult();
    auto q = SmallEngine().CreateQuery(p.Build());
    return q->Execute().I64(0, 0);
  };
  int64_t semi = count_join(JoinKind::kSemi);
  int64_t anti = count_join(JoinKind::kAnti);
  EXPECT_EQ(semi, 500);        // keys 0..4: half the probe rows, once each
  EXPECT_EQ(anti, 500);        // keys 5..9
  EXPECT_EQ(semi + anti, 1000);  // semi/anti partition the probe side
}

TEST(HashJoin, LeftOuterPadsMisses) {
  auto probe = MakeKv(SmallTopo(), {{1, 10}, {2, 20}, {3, 30}}, "pk", "pv");
  auto build = MakeKv(SmallTopo(), {{2, 200}}, "bk", "bv");
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kLeftOuter);
  p.OrderBy({{"pk", true}});
  auto q = SmallEngine().CreateQuery(p.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 3);
  EXPECT_EQ(r.I64(0, 2), 0);    // miss padded with type default
  EXPECT_EQ(r.I64(1, 2), 200);  // hit
  EXPECT_EQ(r.I64(2, 2), 0);
}

TEST(HashJoin, ResidualOnInner) {
  auto probe = MakeKv(SmallTopo(), Numbers(100, 10), "pk", "pv");
  auto build = MakeKv(SmallTopo(), Numbers(10, 10), "bk", "bv");
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  // join on key, residual keeps only pv < 50
  p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner,
             [](const ColScope& s) {
               return Lt(s.Col("pv"), ConstI64(50));
             });
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  p.GroupBy({}, std::move(aggs));
  p.CollectResult();
  auto q = SmallEngine().CreateQuery(p.Build());
  EXPECT_EQ(q->Execute().I64(0, 0), 50);
}

TEST(HashJoin, ResidualOnSemiAnti) {
  // Q21 pattern: semi/anti with "another row with different payload".
  auto probe = MakeKv(SmallTopo(), {{1, 100}, {2, 200}, {3, 300}},
                      "pk", "pv");
  auto build = MakeKv(SmallTopo(),
                      {{1, 100}, {1, 101}, {2, 200}, {3, 300}},
                      "bk", "bv");
  auto run = [&](JoinKind kind) {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    // exists/not-exists build row with same key but different payload
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, kind,
               [](const ColScope& s) {
                 return Ne(s.Col("bv"), s.Col("pv"));
               });
    p.OrderBy({{"pk", true}});
    auto q = SmallEngine().CreateQuery(p.Build());
    return q->Execute();
  };
  ResultSet semi = run(JoinKind::kSemi);
  ASSERT_EQ(semi.num_rows(), 1);  // only key 1 has a second, different row
  EXPECT_EQ(semi.I64(0, 0), 1);
  ResultSet anti = run(JoinKind::kAnti);
  ASSERT_EQ(anti.num_rows(), 2);
  EXPECT_EQ(anti.I64(0, 0), 2);
  EXPECT_EQ(anti.I64(1, 0), 3);
}

TEST(HashJoin, MultiColumnKeys) {
  Schema schema({{"a", LogicalType::kInt64},
                 {"b", LogicalType::kInt64},
                 {"v", LogicalType::kInt64}});
  Table t("t", schema, SmallTopo());
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      int p = static_cast<int>((a * 10 + b) % t.num_partitions());
      t.Int64Col(p, 0)->Append(a);
      t.Int64Col(p, 1)->Append(b);
      t.Int64Col(p, 2)->Append(a * 100 + b);
    }
  }
  for (int p = 0; p < t.num_partitions(); ++p) t.SealPartition(p);

  PlanBuilder build = PlanBuilder::Scan(&t, {"a", "b", "v"});
  build.Project(NE("ba", build.Col("a")), NE("bb", build.Col("b")),
                 NE("bv", build.Col("v")));
  PlanBuilder probe = PlanBuilder::Scan(&t, {"a", "b", "v"});
  probe.HashJoin(std::move(build), {"a", "b"}, {"ba", "bb"}, {"bv"},
                 JoinKind::kInner);
  // (a,b) is unique: self-join on both keys is the identity.
  probe.Filter(Eq(probe.Col("v"), probe.Col("bv")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  probe.GroupBy({}, std::move(aggs));
  probe.CollectResult();
  auto q = SmallEngine().CreateQuery(probe.Build());
  EXPECT_EQ(q->Execute().I64(0, 0), 100);
}

TEST(HashJoin, ComputedStringKeysSurviveArenaReset) {
  // Join on substr() results: the build-side chunk strings live in the
  // per-morsel arena, so the sink must intern them (regression test for
  // dangling string_views).
  Schema schema({{"name", LogicalType::kString},
                 {"v", LogicalType::kInt64}});
  Table t("t", schema, SmallTopo());
  const char* prefixes[4] = {"aa", "bb", "cc", "dd"};
  for (int64_t i = 0; i < 4000; ++i) {
    int p = static_cast<int>(i % t.num_partitions());
    std::string name = std::string(prefixes[i % 4]) + "-suffix-" +
                       std::to_string(i);
    t.StrCol(p, 0)->Append(name);
    t.Int64Col(p, 1)->Append(i);
  }
  for (int p = 0; p < t.num_partitions(); ++p) t.SealPartition(p);

  PlanBuilder build = PlanBuilder::Scan(&t, {"name", "v"});
  build.Project(
      NE("bkey", Substr(build.Col("name"), 1, 2)),
       NE("bv", build.Col("v")));
  PlanBuilder probe = PlanBuilder::Scan(&t, {"name", "v"});
  probe.Project(
      NE("pkey", Substr(probe.Col("name"), 1, 2)),
       NE("pv", probe.Col("v")));
  probe.HashJoin(std::move(build), {"pkey"}, {"bkey"}, {}, JoinKind::kSemi);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  probe.GroupBy({"pkey"}, std::move(aggs));
  probe.OrderBy({{"pkey", true}});
  auto q = SmallEngine().CreateQuery(probe.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 4);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.Str(i, 0), prefixes[i]);
    EXPECT_EQ(r.I64(i, 1), 1000);
  }
}

TEST(HashJoin, EmptyBuildSide) {
  auto probe = MakeKv(SmallTopo(), Numbers(100, 10), "pk", "pv");
  auto build = MakeKv(SmallTopo(), {}, "bk", "bv");
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
  p.CollectResult();
  auto q = SmallEngine().CreateQuery(p.Build());
  EXPECT_EQ(q->Execute().num_rows(), 0);
}

TEST(HashJoin, RightOuterMarkerFlush) {
  // Exec-level test of the §4.1 marker technique: probe marks matched
  // build tuples; BuildTupleSource then yields the unmarked rest.
  const Topology& topo = SmallTopo();
  JoinState state({LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kRightOuterMark, 2);
  MemStatsRegistry stats(2);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  // Build: keys 0..9.
  {
    Chunk chunk;
    chunk.n = 10;
    static int64_t keys[10], vals[10];
    for (int i = 0; i < 10; ++i) {
      keys[i] = i;
      vals[i] = i * 10;
    }
    chunk.cols = {Vector{LogicalType::kInt64, keys},
                  Vector{LogicalType::kInt64, vals}};
    HashBuildSink sink(&state);
    sink.Consume(chunk, ctx);
    sink.Finalize(ctx);
  }
  // Insert into the hash table.
  for (int i = 0; i < 10; ++i) {
    uint8_t* row = state.buffer_by_index(0)->row(i);
    state.table()->Insert(row, TupleLayout::GetHash(row));
  }

  // Probe with keys 0,2,4,6,8: marks the even build tuples.
  struct CollectSink : Sink {
    int rows = 0;
    void Consume(Chunk& c, ExecContext&) override { rows += c.n; }
  };
  CollectSink probe_collect;
  {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<HashProbeOp>(
        &state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
    Pipeline pipe(nullptr, std::move(ops), &probe_collect);
    Chunk chunk;
    chunk.n = 5;
    static int64_t pkeys[5] = {0, 2, 4, 6, 8};
    chunk.cols = {Vector{LogicalType::kInt64, pkeys}};
    pipe.Push(chunk, 0, ctx);
  }
  EXPECT_EQ(probe_collect.rows, 5);

  // Flush unmatched: must emit exactly the odd keys.
  CollectSink unmatched_collect;
  BuildTupleSource source(&state, BuildTupleSource::Mode::kUnmarked);
  std::vector<MorselRange> ranges = source.MakeRanges(topo);
  Pipeline flush(nullptr, {}, &unmatched_collect);
  for (const MorselRange& r : ranges) {
    Morsel m;
    m.partition = r.partition;
    m.begin = r.begin;
    m.end = r.end;
    m.socket = r.socket;
    source.RunMorsel(m, flush, ctx);
  }
  EXPECT_EQ(unmatched_collect.rows, 5);
}

}  // namespace
}  // namespace morsel
