// Dispatcher stress: many concurrent queries with mid-flight Cancel()
// and SetMaxWorkers() churn, both of which act at morsel boundaries
// (§3.1 elasticity, §3.2 cancellation). Queries compute exactly known
// aggregates, so any lost or duplicated morsel shows up as a wrong
// count/sum; cancelled queries must drain cleanly (error set, no hang,
// engine reusable).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallTopo;

constexpr int64_t kRows = 120000;
constexpr int64_t kKeyRange = 64;

const Table* StressTable() {
  static Table* t = [] {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t i = 0; i < kRows; ++i) rows.push_back({i % kKeyRange, i});
    return MakeKv(SmallTopo(), rows).release();
  }();
  return t;
}

// COUNT(*), SUM(v) over the whole table: exactly kRows and
// kRows*(kRows-1)/2 iff every morsel ran exactly once.
std::unique_ptr<Query> BuildCountSumQuery(Engine& engine) {
  PlanBuilder p = PlanBuilder::Scan(StressTable(), {"k", "v"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  aggs.push_back({AggFunc::kSum, p.Col("v"), "sum_v"});
  p.GroupBy({}, std::move(aggs));
  p.CollectResult();
  return engine.CreateQuery(p.Build());
}

void ExpectExactResult(Query* q) {
  ResultSet r = q->TakeResult();
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.I64(0, 0), kRows);                        // no lost morsels
  EXPECT_EQ(r.I64(0, 1), kRows * (kRows - 1) / 2);      // no dup morsels
}

TEST(DispatcherStress, ConcurrentQueriesUnderMaxWorkerChurn) {
  EngineOptions opts;
  opts.morsel_size = 256;  // many morsel boundaries for churn to act at
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);

  constexpr int kQueries = 8;
  std::vector<std::unique_ptr<Query>> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(BuildCountSumQuery(engine));
  }
  for (auto& q : queries) q->Start();

  // Churn: oscillate every query's worker cap (including down to 1 and
  // up past the pool size) while they run.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& q : queries) {
        q->SetMaxWorkers(static_cast<int>(rng.Uniform(1, 6)));
      }
      std::this_thread::yield();
    }
  });
  for (auto& q : queries) q->Wait();
  stop.store(true);
  churn.join();

  for (auto& q : queries) {
    EXPECT_TRUE(q->context()->error().empty());
    ExpectExactResult(q.get());
  }
}

TEST(DispatcherStress, ConcurrentCancellationChurn) {
  EngineOptions opts;
  opts.morsel_size = 256;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);

  constexpr int kQueries = 12;
  std::vector<std::unique_ptr<Query>> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(BuildCountSumQuery(engine));
  }
  for (auto& q : queries) q->Start();

  // Cancel every other query at staggered points mid-flight.
  for (int i = 0; i < kQueries; i += 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(200 * i));
    queries[i]->Cancel();
  }
  for (auto& q : queries) q->Wait();

  for (int i = 0; i < kQueries; ++i) {
    Query* q = queries[i].get();
    if (i % 2 == 0) {
      // Cancelled: either it raced to completion (no error) with the
      // exact result, or it reports clean cancellation. Nothing may
      // hang, crash, or return a *wrong* result.
      if (q->context()->error().empty()) {
        ExpectExactResult(q);
      } else {
        EXPECT_EQ(q->context()->error(), "query cancelled");
      }
    } else {
      EXPECT_TRUE(q->context()->error().empty());
      ExpectExactResult(q);
    }
  }

  // The engine must stay fully usable after cancellation churn.
  auto after = BuildCountSumQuery(engine);
  after->Start();
  after->Wait();
  ExpectExactResult(after.get());
}

TEST(DispatcherStress, RepeatedCancelAtRandomPhases) {
  EngineOptions opts;
  opts.morsel_size = 128;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);

  Rng rng(4242);
  for (int iter = 0; iter < 60; ++iter) {
    auto q = BuildCountSumQuery(engine);
    q->Start();
    // Cancellation lands anywhere from "before the first morsel" to
    // "after the last one".
    int64_t spin = rng.Uniform(0, 400);
    // The volatile store keeps the spin from being optimized away (a
    // volatile loop counter's ++ is deprecated, -Wvolatile).
    volatile int64_t spun = 0;
    for (int64_t i = 0; i < spin * 1000; ++i) spun = i;
    (void)spun;
    q->Cancel();
    q->Wait();
    if (q->context()->error().empty()) {
      ExpectExactResult(q.get());
    } else {
      EXPECT_EQ(q->context()->error(), "query cancelled");
    }
  }
}

// Regression test for the no-steal starvation fix: with fewer workers
// than sockets (both pool workers pin to socket 0 of the 2x2 topology)
// and stealing disabled, socket 1's NUMA-local morsels have no worker of
// their own — the liveness fallback must hand them to remote workers so
// every query completes within a generous deadline instead of hanging.
TEST(DispatcherStress, NoStealWorkerlessSocketCompletes) {
  EngineOptions opts;
  opts.morsel_size = 256;
  opts.num_workers = 2;  // cores 0,1 -> both on socket 0 of SmallTopo
  opts.steal = false;
  Engine engine(SmallTopo(), opts);

  constexpr int kQueries = 4;
  std::vector<std::unique_ptr<Query>> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(BuildCountSumQuery(engine));
  }
  for (auto& q : queries) q->Start();
  // Elastic caps below the socket count must not re-introduce the hang.
  for (auto& q : queries) q->SetMaxWorkers(1);

  auto all_done = std::async(std::launch::async, [&] {
    for (auto& q : queries) q->Wait();
  });
  bool completed = all_done.wait_for(std::chrono::seconds(60)) ==
                   std::future_status::ready;
  EXPECT_TRUE(completed) << "no-steal starved a worker-less socket";
  if (!completed) {
    // Unblock teardown so the failure surfaces instead of a hang.
    for (auto& q : queries) q->Cancel();
    all_done.wait();
    return;
  }
  for (auto& q : queries) {
    EXPECT_TRUE(q->context()->error().empty());
    ExpectExactResult(q.get());
  }
}

TEST(DispatcherStress, CancelAndChurnMergeJoinQueries) {
  // The merge join adds multi-dependency pipelines (two sorts gating the
  // join); cancellation must cascade through those cleanly too.
  EngineOptions opts;
  opts.morsel_size = 256;
  opts.num_workers = 4;
  opts.join_strategy = JoinStrategy::kMerge;
  Engine engine(SmallTopo(), opts);

  auto build_join_query = [&] {
    PlanBuilder b = PlanBuilder::Scan(StressTable(), {"k", "v"});
    b.Project(NE("bk", b.Col("k")), NE("bv", b.Col("v")));
    b.Filter(Lt(b.Col("bv"), ConstI64(kKeyRange)));  // one row per key
    PlanBuilder p = PlanBuilder::Scan(StressTable(), {"k", "v"});
    p.Join(std::move(b), {"k"}, {"bk"}, {"bv"}, JoinKind::kInner);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    p.GroupBy({}, std::move(aggs));
    p.CollectResult();
    return engine.CreateQuery(p.Build());
  };

  constexpr int kQueries = 6;
  std::vector<std::unique_ptr<Query>> queries;
  for (int i = 0; i < kQueries; ++i) queries.push_back(build_join_query());
  for (auto& q : queries) q->Start();
  Rng rng(7);
  for (int i = 0; i < kQueries; ++i) {
    queries[i]->SetMaxWorkers(static_cast<int>(rng.Uniform(1, 4)));
    if (i % 2 == 0) queries[i]->Cancel();
  }
  for (auto& q : queries) q->Wait();

  for (int i = 0; i < kQueries; ++i) {
    Query* q = queries[i].get();
    if (i % 2 == 0 && !q->context()->error().empty()) {
      EXPECT_EQ(q->context()->error(), "query cancelled");
      continue;
    }
    ASSERT_TRUE(q->context()->error().empty());
    ResultSet r = q->TakeResult();
    ASSERT_EQ(r.num_rows(), 1);
    // every fact row joins exactly its one dimension row
    EXPECT_EQ(r.I64(0, 0), kRows);
  }
}

// Error-path churn (DESIGN §11): a random subset of concurrent queries
// hits injected faults (cancel / deadline / failed allocation) while
// SetMaxWorkers oscillates on all of them. Faulted queries must drain
// with the matching structured status; survivors must still produce the
// exact aggregates — a fault in one query must never corrupt another.
TEST(DispatcherStress, InjectedFaultChurnSurvivorsExact) {
  EngineOptions opts;
  opts.morsel_size = 256;
  opts.num_workers = 4;
  Engine engine(SmallTopo(), opts);

  Rng rng(2026);
  for (int round = 0; round < 4; ++round) {
    constexpr int kQueries = 9;
    std::vector<std::unique_ptr<Query>> queries;
    std::vector<StatusCode> expected;  // expected code if the trip fires
    for (int i = 0; i < kQueries; ++i) {
      auto q = BuildCountSumQuery(engine);
      FaultInjectionOptions fault;
      fault.enabled = true;
      fault.seed = rng.Uniform(1, 1u << 30);
      switch (i % 3) {
        case 0:
          fault.cancel_within_morsels = 300;
          expected.push_back(StatusCode::kCancelled);
          break;
        case 1:
          fault.deadline_within_morsels = 300;
          expected.push_back(StatusCode::kDeadlineExceeded);
          break;
        default:
          fault.enabled = false;  // clean control query
          expected.push_back(StatusCode::kOk);
          break;
      }
      if (fault.enabled) q->SetFaultInjection(fault);
      queries.push_back(std::move(q));
    }
    for (auto& q : queries) q->Start();

    std::atomic<bool> stop{false};
    std::thread churn([&] {
      Rng churn_rng(round + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& q : queries) {
          q->SetMaxWorkers(static_cast<int>(churn_rng.Uniform(1, 6)));
        }
        std::this_thread::yield();
      }
    });
    auto all_done = std::async(std::launch::async, [&] {
      for (auto& q : queries) q->Wait();
    });
    bool completed = all_done.wait_for(std::chrono::seconds(120)) ==
                     std::future_status::ready;
    stop.store(true);
    churn.join();
    ASSERT_TRUE(completed) << "faulted churn round " << round << " hung";

    for (int i = 0; i < kQueries; ++i) {
      Query* q = queries[i].get();
      QueryStatus st = q->status();
      if (expected[i] == StatusCode::kOk) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        ExpectExactResult(q);
      } else if (st.ok()) {
        // Trip point landed past the query's morsel count: a clean
        // finish — which must then be exact.
        ExpectExactResult(q);
      } else {
        EXPECT_EQ(st.code, expected[i]) << st.ToString();
        EXPECT_EQ(q->TakeResult().num_rows(), 0);
      }
    }
  }
}

}  // namespace
}  // namespace morsel
