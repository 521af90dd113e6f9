// Sharded scale-out (DESIGN §14): the exchange subsystem end to end.
// The invariant under test everywhere: distribution is invisible — a
// plan executed across N shared-nothing shards returns exactly the rows
// the single-engine oracle returns, for every distribution policy,
// exchange mode (broadcast / repartition), join kind, aggregate shape
// and merge spine; and §11 governance (deadlines, cancellation, fault
// injection, budgets) spans the whole distributed QEP.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/query_status.h"
#include "common/rng.h"
#include "exec/radix_partition.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_query.h"
#include "shard/sharded_table.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallTopo;
using testutil::SortedRows;

std::unique_ptr<Table> MakeProbe(int64_t rows, int64_t key_range) {
  Rng rng(7001);
  std::vector<std::pair<int64_t, int64_t>> r;
  for (int64_t i = 0; i < rows; ++i) {
    r.push_back({rng.Uniform(0, key_range - 1), i});
  }
  return MakeKv(SmallTopo(), r, "pk", "pv");
}

std::unique_ptr<Table> MakeBuild(int64_t rows, int64_t key_range) {
  Rng rng(7002);
  std::vector<std::pair<int64_t, int64_t>> r;
  for (int64_t i = 0; i < rows; ++i) {
    // Overshoots the probe key range so anti joins see misses.
    r.push_back({rng.Uniform(0, key_range + 40), i});
  }
  return MakeKv(SmallTopo(), r, "bk", "bv");
}

std::vector<std::string> RunSingle(const LogicalPlan& plan) {
  return SortedRows(testutil::SmallEngine().CreateQuery(plan)->Execute());
}

// --- ShardedTable routing ---------------------------------------------------

TEST(ShardedTable, HashDistCoLocatesEqualKeys) {
  auto t = MakeProbe(5000, 64);
  ShardedEngine se(SmallTopo(), 4);
  ShardedTable* st = se.RegisterTable(t.get(), ShardDist::kHash, {"pk"});
  ASSERT_EQ(st->num_shards(), 4);
  // Scan each fragment: a key must never appear on two shards, and the
  // union must be the whole table.
  size_t total = 0;
  std::vector<int> key_home(64, -1);
  for (int s = 0; s < 4; ++s) {
    const Table* frag = st->fragment(s);
    total += frag->NumRows();
    PlanBuilder pb = PlanBuilder::Scan(st->fragment(s), {"pk"});
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    pb.GroupBy({"pk"}, std::move(aggs));
    pb.CollectResult();
    ResultSet r =
        testutil::SmallEngine().CreateQuery(pb.Build())->Execute();
    for (int64_t i = 0; i < r.num_rows(); ++i) {
      const int64_t k = r.I64(i, 0);
      EXPECT_EQ(key_home[k], -1)
          << "key " << k << " on shards " << key_home[k] << " and " << s;
      key_home[k] = s;
    }
  }
  EXPECT_EQ(total, t->NumRows());
}

TEST(ShardedTable, ReplicatedGivesEveryShardTheWholeTable) {
  auto t = MakeBuild(700, 64);
  ShardedEngine se(SmallTopo(), 2);
  ShardedTable* st = se.RegisterTable(t.get(), ShardDist::kReplicated);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(st->fragment(s)->NumRows(), t->NumRows());
  }
}

TEST(ShardedTable, RoundRobinBalancesRows) {
  auto t = MakeProbe(4001, 64);
  ShardedEngine se(SmallTopo(), 4);
  ShardedTable* st = se.RegisterTable(t.get(), ShardDist::kRoundRobin);
  size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    const size_t n = st->fragment(s)->NumRows();
    total += n;
    EXPECT_NEAR(static_cast<double>(n), 4001.0 / 4, 1.0);
  }
  EXPECT_EQ(total, t->NumRows());
}

// --- fragment load equivalence ----------------------------------------------

// One row of `t` rendered exactly (doubles by bit pattern).
std::string RowKey(const Table& t, int part, size_t row) {
  Table& m = const_cast<Table&>(t);
  std::string out;
  for (int c = 0; c < t.schema().num_fields(); ++c) {
    switch (t.schema().field(c).type) {
      case LogicalType::kInt32:
        out += std::to_string(m.Int32Col(part, c)->Get(row));
        break;
      case LogicalType::kInt64:
        out += std::to_string(m.Int64Col(part, c)->Get(row));
        break;
      case LogicalType::kDouble:
        out += std::to_string(
            std::bit_cast<uint64_t>(m.DoubleCol(part, c)->Get(row)));
        break;
      case LogicalType::kString:
        out += "'" + std::string(m.StrCol(part, c)->Get(row)) + "'";
        break;
    }
    out += "|";
  }
  return out;
}

// Fragment partitions [shard][partition] -> rows in storage order.
using FragmentRows = std::vector<std::vector<std::vector<std::string>>>;

// The placement rule one row at a time: canonical rows in (partition,
// row) order; kHash routes by ShardPartitionOf over HashValue of the
// first key combined with HashCombine for later keys, kRoundRobin by
// the row's ordinal mod shards, kReplicated to every shard; each shard
// deals the rows it receives round-robin over its own partitions.
FragmentRows ReferenceFragments(const Table& t, ShardDist dist,
                                const std::vector<std::string>& keys,
                                int shards, int frag_parts) {
  Table& m = const_cast<Table&>(t);
  FragmentRows out(shards, std::vector<std::vector<std::string>>(frag_parts));
  std::vector<size_t> dealt(shards, 0);
  auto append = [&](int s, int p, size_t r) {
    out[s][dealt[s]++ % frag_parts].push_back(RowKey(t, p, r));
  };
  size_t ordinal = 0;
  for (int p = 0; p < t.num_partitions(); ++p) {
    for (size_t r = 0; r < t.PartitionRows(p); ++r, ++ordinal) {
      if (dist == ShardDist::kReplicated) {
        for (int s = 0; s < shards; ++s) append(s, p, r);
        continue;
      }
      if (dist == ShardDist::kRoundRobin) {
        append(static_cast<int>(ordinal % shards), p, r);
        continue;
      }
      uint64_t h = 0;
      for (size_t k = 0; k < keys.size(); ++k) {
        const int c = t.schema().IndexOf(keys[k]);
        uint64_t hk = 0;
        switch (t.schema().field(c).type) {
          case LogicalType::kInt32:
            hk = HashValue(m.Int32Col(p, c)->Get(r));
            break;
          case LogicalType::kInt64:
            hk = HashValue(m.Int64Col(p, c)->Get(r));
            break;
          case LogicalType::kDouble:
            hk = HashValue(m.DoubleCol(p, c)->Get(r));
            break;
          case LogicalType::kString:
            hk = HashValue(m.StrCol(p, c)->Get(r));
            break;
        }
        h = k == 0 ? hk : HashCombine(h, hk);
      }
      append(ShardPartitionOf(h, shards), p, r);
    }
  }
  return out;
}

FragmentRows LoadedFragments(const ShardedTable& st) {
  FragmentRows out;
  for (int s = 0; s < st.num_shards(); ++s) {
    const Table& frag = *st.fragment(s);
    out.emplace_back(frag.num_partitions());
    for (int p = 0; p < frag.num_partitions(); ++p) {
      for (size_t r = 0; r < frag.PartitionRows(p); ++r) {
        out[s][p].push_back(RowKey(frag, p, r));
      }
    }
  }
  return out;
}

// Every key type, with duplicates, on three canonical partitions of
// unequal size (so round-robin ordinals must carry across partitions).
std::unique_ptr<Table> MakeMixed(int64_t rows) {
  static const Topology topo(3, 1, InterconnectKind::kFullyConnected);
  Schema schema({{"k32", LogicalType::kInt32},
                 {"k64", LogicalType::kInt64},
                 {"kd", LogicalType::kDouble},
                 {"ks", LogicalType::kString},
                 {"v", LogicalType::kInt64}});
  auto t = std::make_unique<Table>("mixed", schema, topo);
  Rng rng(7003);
  for (int64_t i = 0; i < rows; ++i) {
    const int p = rng.Uniform(0, 9) < 6 ? 0 : static_cast<int>(i % 3);
    const int64_t k = rng.Uniform(-50, 50);
    t->Int32Col(p, 0)->Append(static_cast<int32_t>(k));
    t->Int64Col(p, 1)->Append(k * 1000003);
    t->DoubleCol(p, 2)->Append(static_cast<double>(k) / 7.0);
    t->StrCol(p, 3)->Append(std::string(static_cast<size_t>(k + 50) % 13,
                                        static_cast<char>('a' + k % 5 + 5)));
    t->Int64Col(p, 4)->Append(i);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

TEST(ShardedTable, ColumnarLoadMatchesRowAtATimePlacement) {
  struct Dist {
    ShardDist dist;
    std::vector<std::string> keys;
  };
  const std::vector<Dist> dists = {
      {ShardDist::kHash, {"k32"}},
      {ShardDist::kHash, {"k64"}},
      {ShardDist::kHash, {"kd"}},
      {ShardDist::kHash, {"ks"}},
      {ShardDist::kHash, {"k64", "ks"}},
      {ShardDist::kHash, {"kd", "k32"}},
      {ShardDist::kRoundRobin, {}},
      {ShardDist::kReplicated, {}},
  };
  // Fragments on two-socket slices: each shard deals over 2 partitions.
  const Topology slice(2, 1, InterconnectKind::kFullyConnected);
  for (int64_t rows : {0, 3, 2500}) {
    auto t = MakeMixed(rows);
    for (int shards : {2, 4}) {
      const std::vector<Topology> topos(shards, slice);
      for (const Dist& d : dists) {
        ShardedTable st(t.get(), d.dist, d.keys, topos);
        st.Load();
        const FragmentRows want =
            ReferenceFragments(*t, d.dist, d.keys, shards, 2);
        EXPECT_EQ(LoadedFragments(st), want)
            << "rows=" << rows << " shards=" << shards
            << " dist=" << static_cast<int>(d.dist)
            << " keys=" << d.keys.size();
      }
    }
  }
}

// --- machine CPU placement --------------------------------------------------

// True when a worker may pin to any of the hardware_concurrency() CPUs:
// pinning is on and the process's affinity mask allows all of them.
bool CanPinEveryCpu() {
  if (std::getenv("MORSEL_NO_PINNING") != nullptr) return false;
  const unsigned hw = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (hw == 0 || sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  for (unsigned c = 0; c < hw; ++c) {
    if (!CPU_ISSET(c, &set)) return false;
  }
  return true;
}

int Nproc() { return static_cast<int>(std::thread::hardware_concurrency()); }

TEST(ShardPlacement, SingleEnginePinsWorkerIToCpuIModNproc) {
  if (!CanPinEveryCpu()) GTEST_SKIP() << "pinning unavailable";
  EngineOptions opts;
  opts.num_workers = 4;
  Engine e(SmallTopo(), opts);
  for (int w = 0; w < e.pool()->num_workers(); ++w) {
    EXPECT_EQ(e.pool()->WorkerPinnedCpu(w), w % Nproc()) << "worker " << w;
  }
}

TEST(ShardPlacement, ShardsPinToDisjointCpuRanges) {
  if (!CanPinEveryCpu()) GTEST_SKIP() << "pinning unavailable";
  EngineOptions opts;
  opts.num_workers = 2;
  ShardedEngine se(Topology(2, 2, InterconnectKind::kFullyConnected), 2,
                   opts);
  std::vector<std::vector<int>> cpus(2);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(se.shard_topology(s).first_cpu(), 2 * s);
    for (int w = 0; w < 2; ++w) {
      const int cpu = se.shard(s)->pool()->WorkerPinnedCpu(w);
      EXPECT_EQ(cpu, (2 * s + w) % Nproc()) << "shard " << s << " worker " << w;
      cpus[s].push_back(cpu);
    }
  }
  if (Nproc() >= 4) {
    for (int a : cpus[0]) {
      for (int b : cpus[1]) EXPECT_NE(a, b) << "CPU " << a << " shared";
    }
  }
}

TEST(ShardPlacement, FourOneWorkerShardsCoverFourCpus) {
  if (!CanPinEveryCpu()) GTEST_SKIP() << "pinning unavailable";
  ShardedEngine se(Topology(4, 1, InterconnectKind::kFullyConnected), 4);
  std::vector<int> cpus;
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(se.shard(s)->pool()->num_workers(), 1);
    cpus.push_back(se.shard(s)->pool()->WorkerPinnedCpu(0));
    EXPECT_EQ(cpus.back(), s % Nproc()) << "shard " << s;
  }
  if (Nproc() >= 4) {
    std::sort(cpus.begin(), cpus.end());
    EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(ShardPlacement, NoPinningLeavesWorkersUnpinned) {
  EngineOptions opts;
  opts.num_workers = 2;
  opts.pin_threads = false;
  ShardedEngine se(SmallTopo(), 2, opts);
  for (int s = 0; s < 2; ++s) {
    for (int w = 0; w < 2; ++w) {
      EXPECT_EQ(se.shard(s)->pool()->WorkerPinnedCpu(w), -1);
    }
  }
}

// --- exchange correctness ---------------------------------------------------

LogicalPlan JoinPlan(const Table* probe, const Table* build, JoinKind kind,
                     bool group_by) {
  PlanBuilder b = PlanBuilder::Scan(build, {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe, {"pk", "pv"});
  p.Join(std::move(b), {"pk"}, {"bk"}, {"bv"}, kind);
  if (group_by) {
    const bool has_payload =
        kind != JoinKind::kSemi && kind != JoinKind::kAnti;
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back(
        {AggFunc::kSum, p.Col(has_payload ? "bv" : "pv"), "s"});
    p.GroupBy({"pk"}, std::move(aggs));
  }
  p.CollectResult();
  return p.Build();
}

// Every join kind, under both exchange modes. A small build side takes
// the broadcast path, a large one repartitions both sides; either way
// the distributed result must match the single-engine run exactly.
TEST(ShardedExchange, JoinKindsBroadcastAndRepartition) {
  auto probe = MakeProbe(20000, 300);
  auto small_build = MakeBuild(800, 300);    // <= threshold: broadcast
  auto large_build = MakeBuild(12000, 300);  // forces repartition
  for (int shards : {1, 2, 4}) {
    ShardedEngine se(SmallTopo(), shards);
    se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
    se.RegisterTable(small_build.get(), ShardDist::kRoundRobin);
    se.RegisterTable(large_build.get(), ShardDist::kRoundRobin);
    for (JoinKind kind :
         {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
          JoinKind::kLeftOuter, JoinKind::kRightOuterMark}) {
      for (const Table* build : {small_build.get(), large_build.get()}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " kind=" +
                     std::to_string(static_cast<int>(kind)) + " build=" +
                     std::to_string(build->NumRows()));
        LogicalPlan plan = JoinPlan(probe.get(), build, kind, false);
        EXPECT_EQ(SortedRows(se.CreateQuery(plan)->Execute()),
                  RunSingle(plan));
      }
    }
  }
}

// Hash-placed tables on the join keys: the coordinator must detect
// co-partitioning and run the join with no exchange at all (asserted
// via the explain transcript), still oracle-exact.
TEST(ShardedExchange, CoPartitionedJoinSkipsExchange) {
  auto probe = MakeProbe(20000, 300);
  auto build = MakeBuild(9000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kHash, {"pk"});
  se.RegisterTable(build.get(), ShardDist::kHash, {"bk"});
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  auto q = se.CreateQuery(plan);
  EXPECT_EQ(SortedRows(q->Execute()), RunSingle(plan));
  const std::string explain = q->ExplainPlan();
  EXPECT_NE(explain.find("[join: local, co-partitioned"),
            std::string::npos);
  // Co-partitioned join AND group-by on the partition key: one stage,
  // zero exchanges.
  EXPECT_EQ(explain.find("[exchange decision:"), std::string::npos);
}

// A replicated dimension joins locally on every shard.
TEST(ShardedExchange, ReplicatedBuildJoinsLocally) {
  auto probe = MakeProbe(20000, 300);
  auto build = MakeBuild(900, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kReplicated);
  LogicalPlan plan =
      JoinPlan(probe.get(), build.get(), JoinKind::kInner, false);
  auto q = se.CreateQuery(plan);
  EXPECT_EQ(SortedRows(q->Execute()), RunSingle(plan));
  EXPECT_NE(q->ExplainPlan().find("[join: local, build side replicated]"),
            std::string::npos);
}

// Distributed two-phase group-by on a key the table is NOT placed on:
// partials exchange on the group key and merge per shard.
TEST(ShardedExchange, DistributedGroupByMatchesSingleEngine) {
  auto probe = MakeProbe(30000, 500);
  for (int shards : {2, 4}) {
    ShardedEngine se(SmallTopo(), shards);
    se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, p.Col("pv"), "s"});
    aggs.push_back({AggFunc::kMin, p.Col("pv"), "lo"});
    aggs.push_back({AggFunc::kMax, p.Col("pv"), "hi"});
    p.GroupBy({"pk"}, std::move(aggs));
    p.CollectResult();
    LogicalPlan plan = p.Build();
    auto q = se.CreateQuery(plan);
    EXPECT_EQ(SortedRows(q->Execute()), RunSingle(plan));
    EXPECT_NE(
        q->ExplainPlan().find("repartition group-by partials"),
        std::string::npos);
  }
}

// Scalar (keyless) aggregation with MIN/MAX where some shards hold NO
// rows after a selective filter: the empty shards' all-default partials
// must not corrupt the global extremes.
TEST(ShardedExchange, ScalarAggIgnoresEmptyShardPartials) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  // Keys 100..107, values 500..507: after `pv >= 500` everything
  // survives, but the table is tiny so round-robin leaves later shards
  // short; after `pv > 506` most shards are empty.
  for (int64_t i = 0; i < 8; ++i) rows.push_back({100 + i, 500 + i});
  auto t = MakeKv(SmallTopo(), rows, "pk", "pv");
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(t.get(), ShardDist::kRoundRobin);
  for (int64_t cut : {499, 506}) {
    PlanBuilder p = PlanBuilder::Scan(t.get(), {"pk", "pv"});
    p.Filter(Gt(p.Col("pv"), ConstI64(cut)));
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kMin, p.Col("pv"), "lo"});
    aggs.push_back({AggFunc::kMax, p.Col("pk"), "hi"});
    p.GroupBy({}, std::move(aggs));
    p.CollectResult();
    LogicalPlan plan = p.Build();
    SCOPED_TRACE("cut=" + std::to_string(cut));
    EXPECT_EQ(SortedRows(se.CreateQuery(plan)->Execute()),
              RunSingle(plan));
  }
}

// The coordinator's order-by merge spine: per-shard sorted slices
// re-sorted and re-truncated globally.
TEST(ShardedExchange, OrderByMergeRespectsGlobalOrderAndLimit) {
  auto probe = MakeProbe(20000, 300);
  auto build = MakeBuild(5000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  for (int64_t limit : {-1, 17}) {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.Join(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kSum, p.Col("bv"), "s"});
    p.GroupBy({"pk"}, std::move(aggs));
    p.OrderBy({{"s", false}, {"pk", true}}, limit);
    LogicalPlan plan = p.Build();
    ResultSet sharded = se.CreateQuery(plan)->Execute();
    ResultSet single =
        testutil::SmallEngine().CreateQuery(plan)->Execute();
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded.num_rows(), single.num_rows());
    // Ordered comparison, row by row — this is the one terminal where
    // global ORDER matters, not just the row multiset.
    for (int64_t i = 0; i < sharded.num_rows(); ++i) {
      EXPECT_EQ(sharded.RowToString(i), single.RowToString(i));
    }
  }
}

// Satellite: EXPLAIN carries the exchange annotations — the
// coordinator's decisions and the per-shard [exchange: ...] runtime
// lines from the send/recv operators.
TEST(ShardedExchange, ExplainAnnotatesExchanges) {
  auto probe = MakeProbe(20000, 300);
  auto build = MakeBuild(12000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  auto q = se.CreateQuery(plan);
  ASSERT_TRUE(q->Execute().ok());
  const std::string explain = q->ExplainPlan();
  EXPECT_NE(explain.find("[exchange decision: repartition build side"),
            std::string::npos)
      << explain;
  // The per-shard operator annotations (mode, shard count, rows routed).
  EXPECT_NE(explain.find("[exchange: repartition 4 shards, rows="),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("[exchange-send: 4 buckets, rows="),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("=== stage"), std::string::npos);
  EXPECT_NE(explain.find("--- shard 3 ---"), std::string::npos);
  // Small build instead: the decision flips to broadcast.
  auto small = MakeBuild(500, 300);
  se.RegisterTable(small.get(), ShardDist::kRoundRobin);
  LogicalPlan bplan = JoinPlan(probe.get(), small.get(), JoinKind::kInner,
                               /*group_by=*/false);
  auto q2 = se.CreateQuery(bplan);
  ASSERT_TRUE(q2->Execute().ok());
  EXPECT_NE(q2->ExplainPlan().find(
                "[exchange decision: broadcast build side"),
            std::string::npos)
      << q2->ExplainPlan();
}

// --- governance across shards -----------------------------------------------

TEST(ShardedGovernance, DeadlineSpansAllStages) {
  auto probe = MakeProbe(60000, 300);
  auto build = MakeBuild(12000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  auto q = se.CreateQuery(plan);
  q->SetDeadline(std::chrono::milliseconds(0));
  ResultSet r = q->Execute();
  EXPECT_EQ(r.status().code, StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(r.num_rows(), 0);
}

TEST(ShardedGovernance, CancelFromAnotherThread) {
  auto probe = MakeProbe(60000, 300);
  auto build = MakeBuild(12000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  auto q = se.CreateQuery(plan);
  q->Start();
  std::thread killer([&] { q->Cancel(); });
  killer.join();
  q->Wait();
  EXPECT_EQ(q->status().code, StatusCode::kCancelled)
      << q->status().ToString();
}

TEST(ShardedGovernance, OneFailingShardFailsTheWholeQuery) {
  auto probe = MakeProbe(60000, 300);
  auto build = MakeBuild(12000, 300);
  ShardedEngine se(SmallTopo(), 4);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  auto q = se.CreateQuery(plan);
  FaultInjectionOptions f;
  f.enabled = true;
  f.seed = 99;
  f.fail_alloc_nth = 5;  // trips on (at least) one shard's stage query
  q->SetFaultInjection(f);
  ResultSet r = q->Execute();
  EXPECT_EQ(r.status().code, StatusCode::kMemoryExceeded)
      << r.status().ToString();
  // The failure fail-fast-cancelled the siblings, but the reported
  // status is the originating one, never a kCancelled echo.
}

TEST(ShardedGovernance, BudgetDividesAcrossShards) {
  auto probe = MakeProbe(60000, 300);
  auto build = MakeBuild(12000, 300);
  ShardedEngine se(SmallTopo(), 2);
  se.RegisterTable(probe.get(), ShardDist::kRoundRobin);
  se.RegisterTable(build.get(), ShardDist::kRoundRobin);
  LogicalPlan plan = JoinPlan(probe.get(), build.get(), JoinKind::kInner,
                              /*group_by=*/true);
  {
    auto q = se.CreateQuery(plan);
    q->SetMemoryBudget(16 << 10);  // 8 KiB per shard: cannot run
    ResultSet r = q->Execute();
    EXPECT_EQ(r.status().code, StatusCode::kMemoryExceeded)
        << r.status().ToString();
  }
  {
    auto q = se.CreateQuery(plan);
    q->SetMemoryBudget(1LL << 31);  // ample
    ResultSet r = q->Execute();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(SortedRows(r), RunSingle(plan));
  }
}

}  // namespace
}  // namespace morsel
