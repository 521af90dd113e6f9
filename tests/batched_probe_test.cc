// Tests for the staged, prefetch-pipelined hash-join probe (DESIGN.md
// §5): for every JoinKind, including hash collisions, duplicate-key
// chains, residual predicates, and chunks much larger than the in-flight
// prefetch window, the probe must return exactly the rows a reference
// join computes with std containers from the same input rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "exec/hash_join.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::ReferenceJoin;
using testutil::SmallTopo;

using Kv = testutil::KvRows;
using Row = std::vector<int64_t>;

Engine& ProbeEngine(bool tagging) {
  static Engine* engines[2] = {nullptr, nullptr};
  Engine*& engine = engines[tagging ? 1 : 0];
  if (engine == nullptr) {
    EngineOptions opts;
    opts.morsel_size = 512;
    opts.tagging = tagging;
    engine = new Engine(SmallTopo(), opts);
  }
  return *engine;
}

Kv Numbers(int64_t n, int64_t key_mod) {
  Kv rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({i % key_mod, i});
  return rows;
}

// The residuals the engine plans use: semi/anti emit no build payload, so
// theirs compares build and probe values; inner/outer filter on the probe
// value alone.
bool Residual(JoinKind kind, int64_t pv, int64_t bv) {
  if (kind == JoinKind::kSemi || kind == JoinKind::kAnti) return bv != pv;
  return pv < 900;
}

std::vector<Row> EngineJoin(Engine& engine, const Table* probe,
                            const Table* build, JoinKind kind,
                            bool with_residual) {
  PlanBuilder b = PlanBuilder::Scan(build, {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe, {"pk", "pv"});
  const bool probe_only = kind == JoinKind::kSemi || kind == JoinKind::kAnti;
  std::vector<std::string> payload =
      probe_only ? std::vector<std::string>{}
                 : std::vector<std::string>{"bv"};
  if (!with_residual) {
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, payload, kind);
  } else if (probe_only) {
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, kind,
               [](const ColScope& s) {
                 return Ne(s.Col("bv"), s.Col("pv"));
               });
  } else {
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, payload, kind,
               [](const ColScope& s) {
                 return Lt(s.Col("pv"), ConstI64(900));
               });
  }
  p.CollectResult();
  ResultSet r = engine.CreateQuery(p.Build())->Execute();
  std::vector<Row> rows;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    Row row;
    for (int c = 0; c < r.num_cols(); ++c) row.push_back(r.I64(i, c));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Runs the join on the engine and checks it against the reference;
// returns the reference row count.
size_t ExpectMatchesReference(const Kv& probe_rows, const Kv& build_rows,
                              JoinKind kind, bool with_residual,
                              bool tagging = true) {
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  std::function<bool(int64_t, int64_t)> residual;
  if (with_residual) {
    residual = [kind](int64_t pv, int64_t bv) {
      return Residual(kind, pv, bv);
    };
  }
  std::vector<Row> expect =
      ReferenceJoin(probe_rows, build_rows, kind, residual);
  EXPECT_EQ(EngineJoin(ProbeEngine(tagging), probe.get(), build.get(), kind,
                       with_residual),
            expect)
      << "kind=" << static_cast<int>(kind) << " residual=" << with_residual
      << " tagging=" << tagging;
  return expect.size();
}

TEST(BatchedProbe, MatchesReferenceForAllKindsDuplicateChains) {
  // Probe: 1200 rows over 40 keys (chunks much larger than the 16-wide
  // in-flight window); build: keys 0..19, each 5 times (long duplicate
  // chains), so every probe chunk keeps many chains in flight at once.
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    EXPECT_GT(ExpectMatchesReference(Numbers(1200, 40), Numbers(100, 20),
                                     kind, false),
              0u);
  }
}

TEST(BatchedProbe, MatchesReferenceWithResiduals) {
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    ExpectMatchesReference(Numbers(1000, 25), Numbers(75, 25), kind, true);
  }
}

TEST(BatchedProbe, MatchesReferenceOnCollisionHeavyTable) {
  // Thousands of distinct keys force genuine slot collisions (distinct-key
  // chains) on top of duplicate-key chains; low hit rate also exercises
  // the bulk tag filter.
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi,
                        JoinKind::kAnti}) {
    ExpectMatchesReference(Numbers(5000, 5000), Numbers(3000, 1500), kind,
                           false);
  }
}

TEST(BatchedProbe, MatchesReferenceOnEmptyBuild) {
  EXPECT_EQ(
      ExpectMatchesReference(Numbers(100, 10), {}, JoinKind::kInner, false),
      0u);
  EXPECT_EQ(
      ExpectMatchesReference(Numbers(100, 10), {}, JoinKind::kAnti, false),
      100u);
}

// Exec-level check for kRightOuterMark: the probe must mark exactly the
// build tuples whose key it saw, so the deferred unmatched flush yields
// the complement.
TEST(BatchedProbe, RightOuterMarkMarksProbedTuples) {
  const Topology& topo = SmallTopo();
  JoinState state({LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kRightOuterMark, 2);
  MemStatsRegistry stats(2);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  // Build: keys 0..199, each twice (row i holds key i / 2, value i).
  constexpr int kBuild = 400;
  {
    Chunk chunk;
    chunk.n = kBuild;
    static int64_t keys[kBuild], vals[kBuild];
    for (int i = 0; i < kBuild; ++i) {
      keys[i] = i / 2;
      vals[i] = i;
    }
    chunk.cols = {Vector{LogicalType::kInt64, keys},
                  Vector{LogicalType::kInt64, vals}};
    HashBuildSink sink(&state);
    sink.Consume(chunk, ctx);
    sink.Finalize(ctx);
  }
  for (int i = 0; i < kBuild; ++i) {
    uint8_t* row = state.buffer_by_index(0)->row(i);
    state.table()->Insert(row, TupleLayout::GetHash(row));
  }

  struct CollectSink : Sink {
    std::vector<Row> rows;
    void Consume(Chunk& c, ExecContext&) override {
      for (int i = 0; i < c.n; ++i) {
        Row row;
        for (const Vector& v : c.cols) row.push_back(v.i64()[i]);
        rows.push_back(std::move(row));
      }
    }
  };

  // Probe with every third key, in one chunk; marks those build tuples.
  CollectSink probed;
  {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<HashProbeOp>(
        &state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
    Pipeline pipe(nullptr, std::move(ops), &probed);
    static int64_t pkeys[67];
    int n = 0;
    for (int64_t k = 0; k < 200; k += 3) pkeys[n++] = k;
    Chunk chunk;
    chunk.n = n;
    chunk.cols = {Vector{LogicalType::kInt64, pkeys}};
    pipe.Push(chunk, 0, ctx);
  }

  // Flush the unmatched build tuples.
  CollectSink unmatched;
  UnmatchedBuildSource source(&state);
  Pipeline flush(nullptr, {}, &unmatched);
  for (const MorselRange& r : source.MakeRanges(topo)) {
    Morsel m;
    m.partition = r.partition;
    m.begin = r.begin;
    m.end = r.end;
    m.socket = r.socket;
    source.RunMorsel(m, flush, ctx);
  }

  // Probe output: the probe key, then the matched build value.
  std::vector<Row> expect_probed, expect_unmatched;
  for (int i = 0; i < kBuild; ++i) {
    const int64_t key = i / 2;
    if (key % 3 == 0) {
      expect_probed.push_back({key, i});
    } else {
      expect_unmatched.push_back({key, i});
    }
  }
  std::sort(probed.rows.begin(), probed.rows.end());
  std::sort(unmatched.rows.begin(), unmatched.rows.end());
  EXPECT_EQ(probed.rows.size(), 134u);  // 67 probe keys x 2 build rows
  EXPECT_EQ(probed.rows, expect_probed);
  EXPECT_EQ(unmatched.rows, expect_unmatched);
}

// Probing without pointer tags walks every chain head the tag filter
// would have skipped; answers must not change.
TEST(BatchedProbe, MatchesReferenceWithTaggingDisabled) {
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    ExpectMatchesReference(Numbers(2000, 100), Numbers(120, 60), kind,
                           false, /*tagging=*/false);
  }
}

}  // namespace
}  // namespace morsel
