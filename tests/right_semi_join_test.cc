// Right semi / right anti joins (DESIGN §3) and the side decision that
// picks them (DESIGN §9). A semi or anti join whose left input is
// estimated smaller than its right materializes the left rows first;
// from their exact count it either builds on them (the right pipe probes
// in mark-only mode, the marked or unmarked left tuples continue) or
// replays them as the probe of the ordinary join. Every result is
// checked against testutil::ReferenceJoin, which shares no operator
// code with the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/query_status.h"
#include "exec/hash_join.h"
#include "numa/allocator.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::ReferenceJoin;
using testutil::SmallTopo;

using Kv = testutil::KvRows;
using Row = std::vector<int64_t>;

// n rows (key_offset + i % key_mod, i): every key repeats.
Kv Numbers(int64_t n, int64_t key_mod, int64_t key_offset = 0) {
  Kv rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({key_offset + i % key_mod, i});
  return rows;
}

// The residual every test uses: a left row (k, lv) needs a right row
// (k, rv) with rv < lv. Asymmetric, so a residual scope that swapped the
// two sides would show.
bool RefResidual(int64_t lv, int64_t rv) { return rv < lv; }

JoinKind PlanKind(JoinKind mark_kind) {
  return mark_kind == JoinKind::kRightSemi ? JoinKind::kSemi
                                           : JoinKind::kAnti;
}

// --- exec level --------------------------------------------------------------

struct CollectRows : Sink {
  std::vector<Row> rows;
  void Consume(Chunk& c, ExecContext&) override {
    for (int k = 0; k < c.ActiveRows(); ++k) {
      const int i = c.RowAt(k);
      Row row;
      for (const Vector& v : c.cols) row.push_back(v.i64()[i]);
      rows.push_back(std::move(row));
    }
  }
};

// Pushes (k, v) rows through `fn` one full chunk at a time.
template <typename Fn>
void ForEachChunk(const Kv& rows, Fn fn) {
  for (size_t base = 0; base < rows.size(); base += kChunkCapacity) {
    const size_t end = std::min(rows.size(), base + kChunkCapacity);
    std::vector<int64_t> ks, vs;
    for (size_t i = base; i < end; ++i) {
      ks.push_back(rows[i].first);
      vs.push_back(rows[i].second);
    }
    Chunk chunk;
    chunk.n = static_cast<int>(ks.size());
    chunk.cols = {Vector{LogicalType::kInt64, ks.data()},
                  Vector{LogicalType::kInt64, vs.data()}};
    fn(chunk);
  }
}

// Builds `left` into a mark-only join state, probes it with `right`
// (residual over the probe's combined chunk [rk, rv, lk, lv]), and
// drains the marked (kRightSemi) or unmarked (kRightAnti) tuples.
std::vector<Row> ExecRightJoin(const Kv& left, const Kv& right,
                               JoinKind kind, bool with_residual) {
  const Topology& topo = SmallTopo();
  JoinState state({LogicalType::kInt64, LogicalType::kInt64}, 1, kind, 2);
  MemStatsRegistry stats(2);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  HashBuildSink build(&state);
  ForEachChunk(left, [&](Chunk& c) { build.Consume(c, ctx); });
  build.Finalize(ctx);
  for (const MorselRange& r : state.InsertRanges()) {
    RowBuffer* buf = state.buffer_by_index(r.partition);
    for (uint64_t i = r.begin; i < r.end; ++i) {
      state.table()->Insert(buf->row(i), TupleLayout::GetHash(buf->row(i)));
    }
  }

  CollectRows probed;
  {
    ExprPtr residual;
    std::vector<int> fields;
    if (with_residual) {
      residual = Lt(ColRef(1, LogicalType::kInt64),
                    ColRef(3, LogicalType::kInt64));
      fields = {0, 1};
    }
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<HashProbeOp>(
        &state, std::vector<int>{0}, std::move(fields), std::move(residual)));
    Pipeline pipe(nullptr, std::move(ops), &probed);
    ForEachChunk(right, [&](Chunk& c) {
      pipe.Push(c, 0, ctx);
      ctx.arena.Reset();
    });
  }
  EXPECT_TRUE(probed.rows.empty()) << "a mark-only probe emits nothing";

  CollectRows out;
  BuildTupleSource source(&state, kind == JoinKind::kRightSemi
                                      ? BuildTupleSource::Mode::kMarked
                                      : BuildTupleSource::Mode::kUnmarked);
  Pipeline drain(nullptr, {}, &out);
  for (const MorselRange& r : source.MakeRanges(topo)) {
    Morsel m;
    m.partition = r.partition;
    m.begin = r.begin;
    m.end = r.end;
    m.socket = r.socket;
    source.RunMorsel(m, drain, ctx);
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out.rows;
}

TEST(RightSemiJoinExec, MatchesReference) {
  struct Case {
    const char* name;
    Kv left;
    Kv right;
  };
  const Case cases[] = {
      // Duplicate keys on both sides; some left keys have no partner,
      // and right chunks far exceed the in-flight probe window.
      {"duplicates", Numbers(3000, 700), Numbers(9000, 1000, 300)},
      {"empty-left", {}, Numbers(2000, 100)},
      {"empty-right", Numbers(500, 50), {}},
      // Every left key occurs on the right, many times.
      {"all-match", Numbers(800, 200), Numbers(5000, 200)},
  };
  for (const Case& c : cases) {
    for (JoinKind kind : {JoinKind::kRightSemi, JoinKind::kRightAnti}) {
      for (bool with_residual : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + " kind=" +
                     std::to_string(static_cast<int>(kind)) +
                     " residual=" + std::to_string(with_residual));
        std::function<bool(int64_t, int64_t)> residual;
        if (with_residual) residual = RefResidual;
        const std::vector<Row> expect =
            ReferenceJoin(c.left, c.right, PlanKind(kind), residual);
        EXPECT_EQ(ExecRightJoin(c.left, c.right, kind, with_residual),
                  expect);
        if (!with_residual && std::string(c.name) == "all-match") {
          EXPECT_EQ(expect.size(),
                    kind == JoinKind::kRightSemi ? c.left.size() : 0u);
        }
      }
    }
  }
}

// --- plan level --------------------------------------------------------------

Engine& PlanEngine(bool runtime_feedback = true) {
  static Engine* engines[2] = {nullptr, nullptr};
  Engine*& e = engines[runtime_feedback ? 1 : 0];
  if (e == nullptr) {
    EngineOptions opts;
    opts.morsel_size = 512;
    opts.runtime_feedback = runtime_feedback;
    e = new Engine(SmallTopo(), opts);
  }
  return *e;
}

struct PlanShape {
  bool with_residual = false;
  std::optional<JoinStrategy> strategy;
  // Scan the left table as (lv, lk): the key does not lead, so the
  // left build reorders it and the continuation must restore the order.
  bool key_second = false;
  // A filter that passes every left row: the estimate drops to a third.
  bool filter_left = false;
  // A filter that passes no right row.
  bool empty_right = false;
};

struct PlanRun {
  std::vector<Row> rows;  // (lk, lv), sorted
  std::string plan;
};

PlanBuilder LeftJoinRight(const Table* l, const Table* r, JoinKind kind,
                          const PlanShape& s) {
  PlanBuilder right = PlanBuilder::Scan(r, {"rk", "rv"});
  if (s.empty_right) right.Filter(Lt(right.Col("rv"), ConstI64(0)));
  PlanBuilder left = PlanBuilder::Scan(
      l, s.key_second ? std::vector<std::string>{"lv", "lk"}
                      : std::vector<std::string>{"lk", "lv"});
  if (s.filter_left) left.Filter(Ge(left.Col("lv"), ConstI64(0)));
  std::function<ExprPtr(const ColScope&)> residual;
  std::vector<std::string> payload;
  if (s.with_residual) {
    residual = [](const ColScope& sc) {
      return Lt(sc.Col("rv"), sc.Col("lv"));
    };
    payload = {"rv"};
  }
  left.Join(std::move(right), {"lk"}, {"rk"}, payload, kind, residual,
            s.strategy);
  return left;
}

PlanRun RunPlan(Engine& engine, const Table* l, const Table* r,
                JoinKind kind, const PlanShape& s) {
  PlanBuilder b = LeftJoinRight(l, r, kind, s);
  b.CollectResult();
  auto q = engine.CreateQuery(b.Build());
  ResultSet res = q->Execute();
  EXPECT_TRUE(res.ok()) << res.status().message;
  const int kc = s.key_second ? 1 : 0;
  PlanRun run;
  for (int64_t i = 0; i < res.num_rows(); ++i) {
    run.rows.push_back({res.I64(i, kc), res.I64(i, 1 - kc)});
  }
  std::sort(run.rows.begin(), run.rows.end());
  run.plan = q->ExplainPlan();
  return run;
}

std::vector<Row> Expect(const Kv& left, const Kv& right, JoinKind kind,
                        bool with_residual) {
  std::function<bool(int64_t, int64_t)> residual;
  if (with_residual) residual = RefResidual;
  return ReferenceJoin(left, right, kind, residual);
}

bool Has(const std::string& plan, const std::string& s) {
  return plan.find(s) != std::string::npos;
}

TEST(SideDecision, FlipMatchesReference) {
  const Kv lrows = Numbers(3000, 700);
  const Kv rrows = Numbers(20000, 1000, 300);
  auto l = MakeKv(SmallTopo(), lrows, "lk", "lv");
  auto r = MakeKv(SmallTopo(), rrows, "rk", "rv");
  for (JoinKind kind : {JoinKind::kSemi, JoinKind::kAnti}) {
    for (bool with_residual : {false, true}) {
      for (std::optional<JoinStrategy> strategy :
           {std::optional<JoinStrategy>(), std::optional<JoinStrategy>(
                                               JoinStrategy::kAdaptive)}) {
        for (bool key_second : {false, true}) {
          PlanShape s;
          s.with_residual = with_residual;
          s.strategy = strategy;
          s.key_second = key_second;
          SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                       " residual=" + std::to_string(with_residual) +
                       " adaptive=" + std::to_string(strategy.has_value()) +
                       " key_second=" + std::to_string(key_second));
          PlanRun run = RunPlan(PlanEngine(), l.get(), r.get(), kind, s);
          EXPECT_EQ(run.rows, Expect(lrows, rrows, kind, with_residual));
          // The exact left count decided; the right side is the scan
          // estimate.
          EXPECT_TRUE(Has(run.plan,
                          "[side->left-build: left=3000 right=2.0e+04 "
                          "runtime]"))
              << run.plan;
          EXPECT_TRUE(Has(run.plan, "join-mark-probe")) << run.plan;
          EXPECT_TRUE(Has(run.plan, kind == JoinKind::kSemi
                                        ? "right-semi-emit+collect"
                                        : "right-anti-emit+collect"))
              << run.plan;
        }
      }
    }
  }
}

// Estimated smaller (a pass-all filter counts a third), actually larger:
// the stored left rows replay as the probe of the ordinary join, and a
// kAdaptive join decides its strategy from the exact count.
TEST(SideDecision, FallBackMatchesReference) {
  const Kv lrows = Numbers(6000, 900);
  const Kv rrows = Numbers(4000, 1000, 300);
  auto l = MakeKv(SmallTopo(), lrows, "lk", "lv");
  auto r = MakeKv(SmallTopo(), rrows, "rk", "rv");
  for (JoinKind kind : {JoinKind::kSemi, JoinKind::kAnti}) {
    for (bool with_residual : {false, true}) {
      for (bool adaptive : {false, true}) {
        PlanShape s;
        s.with_residual = with_residual;
        s.filter_left = true;
        s.key_second = adaptive;
        if (adaptive) s.strategy = JoinStrategy::kAdaptive;
        SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                     " residual=" + std::to_string(with_residual) +
                     " adaptive=" + std::to_string(adaptive));
        PlanRun run = RunPlan(PlanEngine(), l.get(), r.get(), kind, s);
        EXPECT_EQ(run.rows, Expect(lrows, rrows, kind, with_residual));
        EXPECT_TRUE(Has(run.plan,
                        "[side->right-build: left=6000 right=4.0e+03 "
                        "runtime]"))
            << run.plan;
        EXPECT_TRUE(Has(run.plan, "left-replay+")) << run.plan;
        EXPECT_FALSE(Has(run.plan, "join-mark-probe")) << run.plan;
        EXPECT_EQ(Has(run.plan, "[adaptive->"), adaptive) << run.plan;
      }
    }
  }
}

TEST(SideDecision, EmptyAndAllMatchingInputs) {
  const Kv rrows = Numbers(20000, 1000);
  auto r = MakeKv(SmallTopo(), rrows, "rk", "rv");
  struct Case {
    const char* name;
    Kv left;
    bool empty_right;
    const char* side;
  };
  const Case cases[] = {
      {"empty-left", {}, false, "[side->left-build: left=0 "},
      // The right filter passes nothing, but is estimated at 6.6e3.
      {"empty-right", Numbers(3000, 700), true,
       "[side->left-build: left=3000 right=6.6e+03"},
      // Every left key occurs on the right.
      {"all-match", Numbers(3000, 1000), false,
       "[side->left-build: left=3000 "},
  };
  for (const Case& c : cases) {
    auto l = MakeKv(SmallTopo(), c.left, "lk", "lv");
    for (JoinKind kind : {JoinKind::kSemi, JoinKind::kAnti}) {
      for (bool with_residual : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + " kind=" +
                     std::to_string(static_cast<int>(kind)) +
                     " residual=" + std::to_string(with_residual));
        PlanShape s;
        s.with_residual = with_residual;
        s.empty_right = c.empty_right;
        PlanRun run = RunPlan(PlanEngine(), l.get(), r.get(), kind, s);
        const Kv right_in = c.empty_right ? Kv{} : rrows;
        const std::vector<Row> expect =
            Expect(c.left, right_in, kind, with_residual);
        EXPECT_EQ(run.rows, expect);
        EXPECT_TRUE(Has(run.plan, c.side)) << run.plan;
        if (std::string(c.name) == "all-match" && !with_residual) {
          EXPECT_EQ(expect.size(),
                    kind == JoinKind::kSemi ? c.left.size() : 0u);
        }
      }
    }
  }
}

// runtime_feedback=false and joins forced to merge keep today's plans:
// the right side builds, no side decision.
TEST(SideDecision, FeedbackOffAndForcedMergeKeepThePlan) {
  const Kv lrows = Numbers(3000, 700);
  const Kv rrows = Numbers(20000, 1000, 300);
  auto l = MakeKv(SmallTopo(), lrows, "lk", "lv");
  auto r = MakeKv(SmallTopo(), rrows, "rk", "rv");
  for (JoinKind kind : {JoinKind::kSemi, JoinKind::kAnti}) {
    for (bool with_residual : {false, true}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " residual=" + std::to_string(with_residual));
      PlanShape s;
      s.with_residual = with_residual;
      PlanRun off = RunPlan(PlanEngine(false), l.get(), r.get(), kind, s);
      s.strategy = JoinStrategy::kMerge;
      PlanRun merge = RunPlan(PlanEngine(), l.get(), r.get(), kind, s);
      const std::vector<Row> expect =
          Expect(lrows, rrows, kind, with_residual);
      for (const PlanRun* run : {&off, &merge}) {
        EXPECT_EQ(run->rows, expect);
        EXPECT_FALSE(Has(run->plan, "side->")) << run->plan;
        EXPECT_FALSE(Has(run->plan, "join-build-left")) << run->plan;
      }
    }
  }
}

// String keys and string payloads: keys "k<n>", values "v<n>" with the
// residual comparing strings, checked against the integer reference
// (the mapping preserves equality, and zero-padding preserves order).
TEST(SideDecision, StringKeysAndPayloads) {
  auto str_table = [](const Kv& rows, const char* kn, const char* vn) {
    Schema schema({{kn, LogicalType::kString}, {vn, LogicalType::kString}});
    auto t = std::make_unique<Table>("str", schema, SmallTopo());
    size_t i = 0;
    for (const auto& [k, v] : rows) {
      int p = static_cast<int>(i++ % t->num_partitions());
      char buf[32];
      std::snprintf(buf, sizeof(buf), "k%lld", static_cast<long long>(k));
      t->StrCol(p, 0)->Append(buf);
      std::snprintf(buf, sizeof(buf), "v%08lld", static_cast<long long>(v));
      t->StrCol(p, 1)->Append(buf);
    }
    for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
    return t;
  };
  const Kv lrows = Numbers(2000, 500);
  const Kv rrows = Numbers(12000, 800, 200);
  auto l = str_table(lrows, "lk", "lv");
  auto r = str_table(rrows, "rk", "rv");
  for (JoinKind kind : {JoinKind::kSemi, JoinKind::kAnti}) {
    for (bool with_residual : {false, true}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " residual=" + std::to_string(with_residual));
      PlanShape s;
      s.with_residual = with_residual;
      s.key_second = true;
      PlanBuilder b = LeftJoinRight(l.get(), r.get(), kind, s);
      b.CollectResult();
      auto q = PlanEngine().CreateQuery(b.Build());
      ResultSet res = q->Execute();
      ASSERT_TRUE(res.ok());
      std::vector<Row> rows;
      for (int64_t i = 0; i < res.num_rows(); ++i) {
        rows.push_back({std::stoll(res.Str(i, 1).substr(1)),
                        std::stoll(res.Str(i, 0).substr(1))});
      }
      std::sort(rows.begin(), rows.end());
      EXPECT_EQ(rows, Expect(lrows, rrows, kind, with_residual));
      EXPECT_TRUE(Has(q->ExplainPlan(), "[side->left-build: left=2000 "))
          << q->ExplainPlan();
    }
  }
}

// Q21's shape: a semi join, then an anti join on its output. The second
// decision is made in the first one's continuation, from the exact
// count of the rows the semi join let through.
TEST(SideDecision, ChainedDecisions) {
  const Kv lrows = Numbers(3000, 700);
  const Kv r1rows = Numbers(20000, 500, 100);
  const Kv r2rows = Numbers(30000, 300, 400);
  auto l = MakeKv(SmallTopo(), lrows, "lk", "lv");
  auto r1 = MakeKv(SmallTopo(), r1rows, "ak", "av");
  auto r2 = MakeKv(SmallTopo(), r2rows, "bk", "bv");
  // Reference: semi with (av < lv), then anti with (bv < lv).
  auto pass = [](int64_t lv, int64_t rv) { return rv < lv; };
  std::vector<Row> semi = ReferenceJoin(lrows, r1rows, JoinKind::kSemi, pass);
  Kv mid;
  for (const Row& row : semi) mid.push_back({row[0], row[1]});
  const std::vector<Row> expect =
      ReferenceJoin(mid, r2rows, JoinKind::kAnti, pass);

  for (bool feedback : {true, false}) {
    PlanBuilder b1 = PlanBuilder::Scan(r1.get(), {"ak", "av"});
    PlanBuilder b2 = PlanBuilder::Scan(r2.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(l.get(), {"lk", "lv"});
    p.HashJoin(std::move(b1), {"lk"}, {"ak"}, {"av"}, JoinKind::kSemi,
               [](const ColScope& s) { return Lt(s.Col("av"), s.Col("lv")); });
    p.HashJoin(std::move(b2), {"lk"}, {"bk"}, {"bv"}, JoinKind::kAnti,
               [](const ColScope& s) { return Lt(s.Col("bv"), s.Col("lv")); });
    p.CollectResult();
    auto q = PlanEngine(feedback).CreateQuery(p.Build());
    ResultSet res = q->Execute();
    ASSERT_TRUE(res.ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < res.num_rows(); ++i) {
      rows.push_back({res.I64(i, 0), res.I64(i, 1)});
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expect) << "feedback=" << feedback;
    const std::string plan = q->ExplainPlan();
    EXPECT_EQ(Has(plan, "[side->left-build: left=3000 right=2.0e+04"),
              feedback)
        << plan;
    EXPECT_EQ(Has(plan, "[side->left-build: left=" +
                            std::to_string(semi.size()) + " right=3.0e+04"),
              feedback)
        << plan;
  }
}

// --- governance ---------------------------------------------------------------

// A flipped plan large enough that its mark-only probe takes a while:
// 40k left rows probed by 1.2M right rows.
struct BigFlip {
  Kv lrows = Numbers(40000, 20000);
  std::unique_ptr<Table> l = MakeKv(SmallTopo(), lrows, "lk", "lv");
  std::unique_ptr<Table> r =
      MakeKv(SmallTopo(), Numbers(1200000, 30000, 10000), "rk", "rv");

  LogicalPlan Plan() const {
    PlanShape s;
    s.with_residual = true;
    PlanBuilder b = LeftJoinRight(l.get(), r.get(), JoinKind::kSemi, s);
    b.CollectResult();
    return b.Build();
  }
};

const BigFlip& Big() {
  static const BigFlip* big = new BigFlip();
  return *big;
}

// Cancelled once the side decision flipped the join: the query ends in
// kCancelled (or finished first, correctly) and frees everything.
TEST(SideDecisionGovernance, CancelAfterFlip) {
  Engine& engine = PlanEngine();
  const LogicalPlan plan = Big().Plan();
  const size_t baseline = NumaAllocatedBytes();
  int cancelled_after_flip = 0;
  for (int iter = 0; iter < 8; ++iter) {
    {
      auto q = engine.CreateQuery(plan);
      q->Start();
      // Wait for the decision's annotation: the flip is spliced in.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!Has(q->ExplainPlan(), "[side->left-build") &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200 * iter));
      q->Cancel();
      q->Wait();
      ResultSet r = q->TakeResult();
      if (r.ok()) {
        EXPECT_GT(r.num_rows(), 0);
      } else {
        EXPECT_EQ(r.status().code, StatusCode::kCancelled);
        EXPECT_EQ(r.num_rows(), 0);
        if (Has(q->ExplainPlan(), "[side->left-build")) {
          ++cancelled_after_flip;
        }
      }
    }
    EXPECT_EQ(NumaAllocatedBytes(), baseline) << "iter " << iter;
  }
  EXPECT_GT(cancelled_after_flip, 0);
}

// Budgets from far below to just below the flipped plan's peak: every
// run ends correct or in kMemoryExceeded, frees everything, and at least
// one breach comes after the flip.
TEST(SideDecisionGovernance, BudgetBreachAfterFlip) {
  Engine& engine = PlanEngine();
  const LogicalPlan plan = Big().Plan();
  int64_t peak = 0;
  size_t expect_rows = 0;
  {
    auto q = engine.CreateQuery(plan);
    ResultSet r = q->Execute();
    ASSERT_TRUE(r.ok());
    expect_rows = static_cast<size_t>(r.num_rows());
    peak = q->context()->memory_tracker().peak();
    ASSERT_GT(peak, 0);
  }
  const size_t baseline = NumaAllocatedBytes();
  int breached_after_flip = 0;
  for (int tenth = 1; tenth <= 9; ++tenth) {
    {
      auto q = engine.CreateQuery(plan);
      q->SetMemoryBudget(peak * tenth / 10);
      ResultSet r = q->Execute();
      if (r.ok()) {
        EXPECT_EQ(static_cast<size_t>(r.num_rows()), expect_rows);
      } else {
        EXPECT_EQ(r.status().code, StatusCode::kMemoryExceeded)
            << r.status().message;
        if (Has(q->ExplainPlan(), "[side->left-build")) {
          ++breached_after_flip;
        }
      }
    }
    EXPECT_EQ(NumaAllocatedBytes(), baseline) << "budget " << tenth << "/10";
  }
  EXPECT_GT(breached_after_flip, 0);
}

}  // namespace
}  // namespace morsel
