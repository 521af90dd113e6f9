// Tests for the staged, prefetch-pipelined hash-join probe (DESIGN.md
// §5): for every JoinKind, including hash collisions, duplicate-key
// chains, residual predicates, and chunks much larger than the in-flight
// prefetch window, the probe must return exactly the rows a reference
// join computes with std containers from the same input rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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
  BuildTupleSource source(&state, BuildTupleSource::Mode::kUnmarked);
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

// The build materializes column at a time (TupleLayout::StoreColumns).
// Its rows must equal, byte for byte, what the per-row store wrote:
// header (null next, the key hash), zeroed kRightOuterMark marker and
// every field, over all four LogicalTypes, a dense chunk and sparse
// selections; strings compare by content, since both intern them.
TEST(BatchedProbe, ColumnAtATimeBuildMatchesPerRowBuild) {
  const Topology& topo = SmallTopo();
  const std::vector<LogicalType> types = {
      LogicalType::kInt64, LogicalType::kInt32, LogicalType::kDouble,
      LogicalType::kString, LogicalType::kInt64};
  JoinState state(types, /*num_keys=*/2, JoinKind::kRightOuterMark, 1);
  const TupleLayout& layout = state.layout();
  ASSERT_TRUE(layout.has_marker());
  MemStatsRegistry stats(1);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  constexpr int kRows = 1000;
  std::vector<int64_t> c0(kRows), c4(kRows);
  std::vector<int32_t> c1(kRows);
  std::vector<double> c2(kRows);
  std::vector<std::string> text(kRows);
  std::vector<std::string_view> c3(kRows);
  for (int i = 0; i < kRows; ++i) {
    c0[i] = i * 1000003LL - 7;
    c1[i] = -i * 31;
    c2[i] = i * 0.25 - 3.5;
    text[i] = std::string(static_cast<size_t>(i % 23), 'a' + i % 26);
    c3[i] = text[i];
    c4[i] = ~static_cast<int64_t>(i);
  }
  // A null selection is a dense chunk; otherwise the first `sel_n`
  // entries of `sel` select.
  auto make_chunk = [&](const int32_t* sel, int sel_n) {
    Chunk chunk;
    chunk.n = kRows;
    chunk.cols = {Vector{LogicalType::kInt64, c0.data()},
                  Vector{LogicalType::kInt32, c1.data()},
                  Vector{LogicalType::kDouble, c2.data()},
                  Vector{LogicalType::kString, c3.data()},
                  Vector{LogicalType::kInt64, c4.data()}};
    chunk.sel = sel;
    chunk.sel_n = sel_n;
    return chunk;
  };
  // Every 7th row, a single row, and an empty selection.
  std::vector<int32_t> sparse;
  for (int i = 3; i < kRows; i += 7) sparse.push_back(i);
  const int32_t last = kRows - 1;
  const std::vector<std::pair<const int32_t*, int>> selections = {
      {nullptr, 0},
      {sparse.data(), static_cast<int>(sparse.size())},
      {&last, 1},
      {sparse.data(), 0}};

  // Dirty the storage area first (markers set, as a probe would), then
  // clear it: the rows the build appends next reuse that memory.
  HashBuildSink sink(&state);
  RowBuffer* buf = state.buffer(0, 0);
  {
    Chunk dense = make_chunk(nullptr, 0);
    sink.Consume(dense, ctx);
    for (size_t r = 0; r < buf->rows(); ++r) {
      std::memset(buf->row(r) + layout.marker_offset(), 0xFF, 8);
      TupleLayout::SetNext(buf->row(r), buf->row(0));
    }
    buf->Clear();
  }

  // Reference: the per-row store the build used before.
  TupleLayout ref_layout(types, /*with_marker=*/true);
  RowBuffer ref(&ref_layout, 0);
  const std::vector<int> key_cols = {0, 1};
  for (const auto& [sel, sel_n] : selections) {
    Chunk chunk = make_chunk(sel, sel_n);
    const uint64_t* hashes = HashRowsPacked(chunk, key_cols, ctx);
    for (int k = 0; k < chunk.ActiveRows(); ++k) {
      uint8_t* row = ref.AppendRow();
      TupleLayout::SetNext(row, nullptr);
      TupleLayout::SetHash(row, hashes[k]);
      std::memset(row + ref_layout.marker_offset(), 0, 8);
      for (int f = 0; f < ref_layout.num_fields(); ++f) {
        ref_layout.StoreFromVector(row, f, chunk.cols[f], chunk.RowAt(k));
      }
    }
    sink.Consume(chunk, ctx);
    ctx.arena.Reset();
  }

  ASSERT_EQ(buf->rows(), ref.rows());
  ASSERT_EQ(ref.rows(), kRows + sparse.size() + 1);
  const int str_off = layout.field_offset(3);
  for (size_t r = 0; r < ref.rows(); ++r) {
    const uint8_t* got = buf->row(r);
    const uint8_t* want = ref.row(r);
    // Everything but the string field's view bytes is bit-identical.
    EXPECT_EQ(std::memcmp(got, want, str_off), 0) << "row " << r;
    const int after = str_off + 16;
    EXPECT_EQ(std::memcmp(got + after, want + after,
                          layout.row_size() - after),
              0)
        << "row " << r;
    EXPECT_EQ(layout.GetStr(got, 3), ref_layout.GetStr(want, 3))
        << "row " << r;
    EXPECT_EQ(TupleLayout::GetNext(got), nullptr);
    uint64_t marker;
    std::memcpy(&marker, got + layout.marker_offset(), 8);
    EXPECT_EQ(marker, 0u) << "row " << r;
  }
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
