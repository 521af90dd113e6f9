// Chaos harness (DESIGN §11): property-style plans executed under
// deterministic fault injection. Per execution the harness asserts the
// full fault-tolerance contract:
//   - no hang: every execution finishes within a generous deadline,
//     whatever fault fired inside it;
//   - no leak: NumaAlloc's global byte count returns to its baseline
//     after every failed or cancelled query is torn down;
//   - no corruption: executions the injected fault happened to miss
//     (or that only got stalled) return results exactly equal to the
//     single-worker Volcano-emulation oracle;
//   - structured failure: a tripped fault surfaces as the matching
//     StatusCode, never as a crash or a wrong result.
// Well over 200 injected-fault executions run across the sweep, plus a
// concurrent batch and prepared-query re-execution after failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_status.h"
#include "common/rng.h"
#include "numa/allocator.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_query.h"
#include "test_util.h"
#include "volcano/volcano.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallTopo;
using testutil::SortedRows;

struct ChaosTables {
  std::unique_ptr<Table> fact;
  std::unique_ptr<Table> dim;
};

const ChaosTables& Tables() {
  static ChaosTables* t = [] {
    auto* tt = new ChaosTables;
    Rng rng(4321);
    std::vector<std::pair<int64_t, int64_t>> fact_rows;
    for (int64_t i = 0; i < 30000; ++i) {
      fact_rows.push_back({rng.Uniform(0, 299), i});
    }
    tt->fact = MakeKv(SmallTopo(), fact_rows, "pk", "pv");
    std::vector<std::pair<int64_t, int64_t>> dim_rows;
    for (int64_t i = 0; i < 1500; ++i) {
      dim_rows.push_back({rng.Uniform(0, 349), i});
    }
    tt->dim = MakeKv(SmallTopo(), dim_rows, "bk", "bv");
    return tt;
  }();
  return *t;
}

// Seed-drawn plan over the shared tables: join strategy, kind, group-by
// and order-by vary so the faults land in scans, sorts, hash builds,
// merge-join partitions and aggregation alike.
LogicalPlan DrawPlan(uint64_t seed) {
  Rng rng(seed);
  constexpr JoinKind kKinds[] = {JoinKind::kInner, JoinKind::kSemi,
                                 JoinKind::kAnti, JoinKind::kLeftOuter};
  constexpr JoinStrategy kStrategies[] = {
      JoinStrategy::kHash, JoinStrategy::kMerge, JoinStrategy::kAdaptive};
  JoinKind kind = kKinds[rng.Uniform(0, 3)];
  JoinStrategy strategy = kStrategies[rng.Uniform(0, 2)];
  bool group_by = rng.Bernoulli(0.6);
  bool order_by = rng.Bernoulli(0.5);

  PlanBuilder b = PlanBuilder::Scan(Tables().dim.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(Tables().fact.get(), {"pk", "pv"});
  p.Filter(Lt(p.Col("pv"), ConstI64(28000)));
  p.Join(std::move(b), {"pk"}, {"bk"}, {"bv"}, kind, nullptr, strategy);
  const bool has_payload =
      kind != JoinKind::kSemi && kind != JoinKind::kAnti;
  if (group_by) {
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, p.Col(has_payload ? "bv" : "pv"), "s"});
    p.GroupBy({"pk"}, std::move(aggs));
  }
  if (order_by) {
    p.OrderBy({{"pk", true}});
  } else {
    p.CollectResult();
  }
  return p.Build();
}

// Volcano-emulation single-worker oracle for the same seed-drawn plan.
const std::vector<std::string>& OracleRows(uint64_t seed) {
  static std::map<uint64_t, std::vector<std::string>>* cache =
      new std::map<uint64_t, std::vector<std::string>>();
  auto it = cache->find(seed);
  if (it != cache->end()) return it->second;
  EngineOptions opts = MakeVolcanoOptions();
  opts.num_workers = 1;
  opts.join_strategy = JoinStrategy::kHash;
  Engine oracle(SmallTopo(), opts);
  auto rows = SortedRows(oracle.CreateQuery(DrawPlan(seed))->Execute());
  return (*cache)[seed] = std::move(rows);
}

// One fault shape per mode; the seed randomizes where it trips.
FaultInjectionOptions DrawFault(int mode, uint64_t seed) {
  FaultInjectionOptions f;
  f.enabled = true;
  f.seed = seed;
  switch (mode) {
    case 0:
      f.fail_alloc_nth = static_cast<int64_t>(Rng(seed).Uniform(1, 40));
      break;
    case 1:
      f.cancel_within_morsels = 200;
      break;
    case 2:
      f.deadline_within_morsels = 200;
      break;
    case 3:  // benign: stalls slow the query down but must not fail it
      f.stall_every_checks = 16;
      f.stall_us = 50;
      break;
  }
  return f;
}

// Runs one faulted execution with a no-hang guard; returns its status.
QueryStatus RunGuarded(Engine& engine, const LogicalPlan& plan,
                       const FaultInjectionOptions& fault,
                       const std::vector<std::string>& oracle) {
  auto q = engine.CreateQuery();
  q->SetFaultInjection(fault);
  q->SetPlan(plan);
  q->Start();
  bool done = q->WaitFor(std::chrono::seconds(120));
  EXPECT_TRUE(done) << "injected fault hung the query";
  if (!done) {
    q->Cancel();  // unblock teardown so the failure surfaces cleanly
    q->Wait();
    return q->status();
  }
  QueryStatus st = q->status();
  ResultSet r = q->TakeResult();
  if (st.ok()) {
    // Fault missed (or was benign): the result must be oracle-exact.
    EXPECT_EQ(SortedRows(r), oracle);
  } else {
    EXPECT_EQ(r.num_rows(), 0);
    EXPECT_EQ(r.status().code, st.code);
  }
  return st;
}

TEST(Chaos, InjectedFaultSweepNoHangNoLeakNoCorruption) {
  EngineOptions opts;
  opts.morsel_size = 512;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);

  // Warm up engine- and table-level lazy allocations, then freeze the
  // allocator baseline every faulted teardown must return to.
  ASSERT_FALSE(OracleRows(1).empty());
  {
    auto warm = engine.CreateQuery(DrawPlan(1));
    EXPECT_EQ(SortedRows(warm->Execute()), OracleRows(1));
  }
  const size_t baseline = NumaAllocatedBytes();

  int faulted = 0, survived = 0, executions = 0;
  for (uint64_t seed = 1; seed <= 52; ++seed) {
    LogicalPlan plan = DrawPlan(seed);
    const std::vector<std::string>& oracle = OracleRows(seed);
    for (int mode = 0; mode < 4; ++mode) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                   std::to_string(mode));
      QueryStatus st =
          RunGuarded(engine, plan, DrawFault(mode, seed), oracle);
      ++executions;
      switch (mode) {
        case 0:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kMemoryExceeded)
              << st.ToString();
          break;
        case 1:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kCancelled)
              << st.ToString();
          break;
        case 2:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kDeadlineExceeded)
              << st.ToString();
          break;
        case 3:
          EXPECT_TRUE(st.ok()) << st.ToString();
          break;
      }
      st.ok() ? ++survived : ++faulted;
      // Leak check: the dead query returned every byte it charged.
      EXPECT_EQ(NumaAllocatedBytes(), baseline);
    }
  }
  EXPECT_EQ(executions, 208);
  // The sweep must actually exercise both outcomes, heavily.
  EXPECT_GE(faulted, 40) << "fault injection barely fired";
  EXPECT_GE(survived, 52) << "every stall-mode run should survive";
}

TEST(Chaos, DeterministicReplaySameSeedSameStatus) {
  EngineOptions opts;
  opts.morsel_size = 512;
  opts.num_workers = 1;  // single worker: fully deterministic trip order
  Engine engine(SmallTopo(), opts);
  for (uint64_t seed = 3; seed <= 8; ++seed) {
    LogicalPlan plan = DrawPlan(seed);
    FaultInjectionOptions fault = DrawFault(1, seed);
    QueryStatus a = RunGuarded(engine, plan, fault, OracleRows(seed));
    QueryStatus b = RunGuarded(engine, plan, fault, OracleRows(seed));
    EXPECT_EQ(a.code, b.code) << "seed " << seed << " did not replay";
  }
}

TEST(Chaos, ConcurrentFaultedAndCleanQueries) {
  EngineOptions opts;
  opts.morsel_size = 256;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);
  {
    auto warm = engine.CreateQuery(DrawPlan(2));
    warm->Execute();
  }
  const size_t baseline = NumaAllocatedBytes();

  for (uint64_t round = 1; round <= 4; ++round) {
    constexpr int kQueries = 8;
    std::vector<std::unique_ptr<Query>> queries;
    std::vector<uint64_t> seeds;
    for (int i = 0; i < kQueries; ++i) {
      uint64_t seed = round * 100 + i;
      seeds.push_back(seed);
      auto q = engine.CreateQuery();
      if (i % 2 == 0) {
        // Alternate cancel / deadline faults on the even queries.
        q->SetFaultInjection(DrawFault(1 + (i / 2) % 2, seed));
      }
      q->SetPlan(DrawPlan(seed));
      queries.push_back(std::move(q));
    }
    for (auto& q : queries) q->Start();
    auto all_done = std::async(std::launch::async, [&] {
      for (auto& q : queries) q->Wait();
    });
    bool completed = all_done.wait_for(std::chrono::seconds(120)) ==
                     std::future_status::ready;
    ASSERT_TRUE(completed) << "concurrent faulted batch hung";
    for (int i = 0; i < kQueries; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " query " +
                   std::to_string(i));
      QueryStatus st = queries[i]->status();
      if (i % 2 != 0) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      if (st.ok()) {
        // Clean queries — and faulted ones whose trip never fired —
        // must be oracle-exact despite the chaos around them.
        EXPECT_EQ(SortedRows(queries[i]->TakeResult()),
                  OracleRows(seeds[i]));
      } else {
        EXPECT_TRUE(st.code == StatusCode::kCancelled ||
                    st.code == StatusCode::kDeadlineExceeded)
            << st.ToString();
      }
    }
    queries.clear();
    EXPECT_EQ(NumaAllocatedBytes(), baseline) << "round " << round;
  }
}

// The sharded arm of the sweep (DESIGN §14): the same seed-drawn plans
// distributed across 4 shared-nothing shards with the fact table dealt
// round-robin and the dimension hash-placed — every join and group-by
// crosses an exchange. Faults reseed per (stage, shard) inside the
// coordinator, so they land in send stages, receive stages and the
// final merge alike; the distributed contract is the single-engine one
// plus fail-fast: one shard's fault fails the whole query with the
// originating status, never a hang and never a kCancelled echo.
TEST(Chaos, ShardedInjectedFaultSweep) {
  EngineOptions opts;
  opts.morsel_size = 512;
  ShardedEngine sharded(SmallTopo(), 4, opts);
  sharded.RegisterTable(Tables().fact.get(), ShardDist::kRoundRobin);
  sharded.RegisterTable(Tables().dim.get(), ShardDist::kHash, {"bk"});

  // Warm-up covers engine, fragment and channel lazy allocations, then
  // the baseline every faulted distributed teardown must return to.
  ASSERT_FALSE(OracleRows(1).empty());
  {
    auto warm = sharded.CreateQuery(DrawPlan(1));
    EXPECT_EQ(SortedRows(warm->Execute()), OracleRows(1));
  }
  const size_t baseline = NumaAllocatedBytes();

  int faulted = 0, survived = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    LogicalPlan plan = DrawPlan(seed);
    const std::vector<std::string>& oracle = OracleRows(seed);
    for (int mode = 0; mode < 4; ++mode) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                   std::to_string(mode));
      QueryStatus st;
      {
        auto q = sharded.CreateQuery(plan);
        q->SetFaultInjection(DrawFault(mode, seed));
        q->Start();
        bool done = q->WaitFor(std::chrono::seconds(120));
        EXPECT_TRUE(done) << "injected fault hung the sharded query";
        if (!done) {
          q->Cancel();
          q->Wait();
        }
        st = q->status();
        ResultSet r = q->TakeResult();
        if (st.ok()) {
          EXPECT_EQ(SortedRows(r), oracle);
        } else {
          EXPECT_EQ(r.num_rows(), 0);
        }
      }  // ShardedQuery (and its exchange channels) destroyed here
      switch (mode) {
        case 0:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kMemoryExceeded)
              << st.ToString();
          break;
        case 1:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kCancelled)
              << st.ToString();
          break;
        case 2:
          EXPECT_TRUE(st.ok() || st.code == StatusCode::kDeadlineExceeded)
              << st.ToString();
          break;
        case 3:
          EXPECT_TRUE(st.ok()) << st.ToString();
          break;
      }
      st.ok() ? ++survived : ++faulted;
      EXPECT_EQ(NumaAllocatedBytes(), baseline);
    }
  }
  // 80 executions; both outcomes must actually occur.
  EXPECT_GE(faulted, 10) << "fault injection barely fired on shards";
  EXPECT_GE(survived, 20) << "every stall-mode run should survive";
}

// DESIGN §11: Pipeline::Push polls one interrupt checkpoint per source
// chunk. Each of two workers gets one monolithic morsel, its whole share
// of the table (two partitions, ranges not split per core), so no
// scheduler touchpoint exists between morsel pickup and morsel end and
// nothing but that checkpoint can notice a mid-morsel cancellation.
// Runs `make_plan(table)` clean, then again cancelled a tenth of the
// clean runtime in, and expects the query to drain within an eighth of
// the clean runtime; a missed checkpoint costs the remaining ~9/10.
template <typename PlanFn>
void ExpectPromptMidMorselCancel(const PlanFn& make_plan) {
  EngineOptions opts;
  opts.morsel_size = 1 << 28;
  opts.split_ranges_per_core = false;
  opts.num_workers = 2;
  Engine engine(SmallTopo(), opts);
  constexpr int64_t kRows = 4000000;
  std::vector<std::pair<int64_t, int64_t>> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) rows.push_back({i % 1000, i});
  auto big = MakeKv(SmallTopo(), rows, "k", "v");

  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - t0)
        .count();
  };
  // The faster of two clean runs: the first one also pays for cold
  // pages, which would overstate how much work a cancel can cut short.
  int64_t clean_ms = INT64_MAX;
  for (int run = 0; run < 2; ++run) {
    const auto clean_t0 = Clock::now();
    EXPECT_TRUE(engine.CreateQuery(make_plan(big.get()))->Execute().ok());
    clean_ms = std::min(clean_ms, ms_since(clean_t0));
  }

  auto q = engine.CreateQuery(make_plan(big.get()));
  q->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(clean_ms / 10));
  const auto cancel_t0 = Clock::now();
  q->Cancel();
  const bool done = q->WaitFor(std::chrono::seconds(120));
  const int64_t cancel_ms = ms_since(cancel_t0);
  ASSERT_TRUE(done) << "cancellation hung inside a monolithic morsel";
  EXPECT_EQ(q->status().code, StatusCode::kCancelled)
      << q->status().ToString();
  EXPECT_EQ(q->TakeResult().num_rows(), 0);
  EXPECT_LT(cancel_ms, std::max<int64_t>(clean_ms / 8, 25))
      << "cancel took " << cancel_ms << "ms against a " << clean_ms
      << "ms clean run — the pipeline is not polling CheckInterrupt";
}

// Filter and projection in front of a group-by: a multi-operator chain.
TEST(Chaos, MultiOperatorPipelineHonorsInterruptCheckpointsMidMorsel) {
  ExpectPromptMidMorselCancel([](const Table* big) {
    PlanBuilder pb = PlanBuilder::Scan(big, {"k", "v"});
    pb.Filter(And(Lt(Add(Mul(pb.Col("v"), pb.Col("v")),
                         Mul(pb.Col("k"), pb.Col("k"))),
                     ConstI64(int64_t{1} << 62)),
                  Ge(Mul(pb.Col("v"), ConstI64(3)), ConstI64(30))));
    pb.Project(NE("k", pb.Col("k")),
               NE("w", Add(Mul(pb.Col("v"), ConstI64(7)), pb.Col("k"))));
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, pb.Col("w"), "sw"});
    pb.GroupBy({"k"}, std::move(aggs));
    pb.CollectResult();
    return pb.Build();
  });
}

// Two stacked filters merge into one FilterOp, so scan -> filter ->
// collect runs a single operator between source and sink.
TEST(Chaos, SingleOperatorPipelineHonorsInterruptCheckpointsMidMorsel) {
  ExpectPromptMidMorselCancel([](const Table* big) {
    PlanBuilder pb = PlanBuilder::Scan(big, {"k", "v"});
    // Costly arithmetic in both conjuncts (no int64 overflow at 4M
    // rows); about 1 row in 97 survives.
    ExprPtr w = Add(Mul(Add(Mul(pb.Col("v"), ConstI64(7)), pb.Col("k")),
                        Add(pb.Col("v"), ConstI64(3))),
                    Mul(pb.Col("k"), pb.Col("k")));
    pb.Filter(Lt(Add(Mul(pb.Col("v"), pb.Col("v")), w->Clone()),
                 ConstI64(int64_t{1} << 62)));
    pb.Filter(Eq(Sub(w->Clone(), Mul(Div(w->Clone(), ConstI64(97)),
                                      ConstI64(97))),
                 ConstI64(0)));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(Chaos, PreparedQueryReExecutesCleanlyAfterFailure) {
  EngineOptions opts;
  opts.morsel_size = 512;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);
  LogicalPlan plan = DrawPlan(9);
  PreparedQuery pq = engine.Prepare(plan);
  const std::vector<std::string>& oracle = OracleRows(9);
  ASSERT_EQ(SortedRows(pq.Execute()), oracle);

  for (uint64_t seed = 21; seed <= 26; ++seed) {
    // A faulted prepared execution...
    auto q = pq.MakeQuery();
    FaultInjectionOptions fault = DrawFault(1, seed);
    q->SetFaultInjection(fault);
    bool done = false;
    {
      q->Start();
      done = q->WaitFor(std::chrono::seconds(120));
    }
    ASSERT_TRUE(done);
    // ...must leave the shared plan untouched: the next execution of
    // the same PreparedQuery runs clean and oracle-exact.
    EXPECT_EQ(SortedRows(pq.Execute()), oracle) << "seed " << seed;
  }
}

}  // namespace
}  // namespace morsel
