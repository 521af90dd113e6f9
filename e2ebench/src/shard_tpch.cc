// shard_tpch: a ShardedEngine with 2 shards of 2 workers each over TPC-H
// SF 0.5, one closed stream over five benchmark-authored plans in a
// seeded order. Each plan takes a different path through the sharded
// coordinator and the exchange:
//   q3_copart    orders x lineitem on orderkey, both hash-placed on it:
//                the join skips the exchange;
//   q10_repart   customer x orders on custkey: the orders side is
//                repartitioned onto the customer placement;
//   bcast_nation lineitem x supplier (broadcast) x nation (replicated);
//   q1_twophase  the Q1 group-by, in two phases across shards;
//   topk_merge   a top-k order-by merged by the coordinator.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/query.h"
#include "exec/chunk.h"
#include "numa/allocator.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_query.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace e2e {

using morsel::AggFunc;
using morsel::AggItem;
using morsel::ConstDate;
using morsel::ConstF64;
using morsel::JoinKind;
using morsel::LogicalPlan;
using morsel::PlanBuilder;
using morsel::TpchData;

const std::vector<std::string>& ShardStatementNames() {
  static const std::vector<std::string> names = {
      "q3_copart", "q10_repart", "bcast_nation", "q1_twophase", "topk_merge"};
  return names;
}

namespace {

constexpr double kSf = 0.5;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = kWorkers / kShards;
constexpr double kNominalPassS = 0.3;  // see PassesFor

morsel::ExprPtr Revenue(const PlanBuilder& b) {
  return morsel::Mul(b.Col("l_extendedprice"),
                     morsel::Sub(ConstF64(1.0), b.Col("l_discount")));
}

LogicalPlan Q3Copart(const TpchData& db) {
  PlanBuilder o = PlanBuilder::Scan(
      db.orders.get(), {"o_orderkey", "o_orderdate", "o_shippriority"});
  o.Filter(morsel::Lt(o.Col("o_orderdate"), ConstDate("1995-03-15")));
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(morsel::Gt(li.Col("l_shipdate"), ConstDate("1995-03-15")));
  li.Join(std::move(o), {"l_orderkey"}, {"o_orderkey"},
          {"o_orderdate", "o_shippriority"}, JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, Revenue(li), "revenue"});
  li.GroupBy({"l_orderkey", "o_orderdate", "o_shippriority"},
             std::move(aggs));
  li.OrderBy({{"revenue", false}, {"l_orderkey", true}}, 10);
  return li.Build();
}

LogicalPlan Q10Repart(const TpchData& db) {
  PlanBuilder o = PlanBuilder::Scan(
      db.orders.get(), {"o_custkey", "o_totalprice", "o_orderdate"});
  o.Filter(morsel::And(
      morsel::Ge(o.Col("o_orderdate"), ConstDate("1994-01-01")),
      morsel::Lt(o.Col("o_orderdate"), ConstDate("1995-01-01"))));
  PlanBuilder c =
      PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_name"});
  c.Join(std::move(o), {"c_custkey"}, {"o_custkey"}, {"o_totalprice"},
         JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, c.Col("o_totalprice"), "revenue"});
  aggs.push_back({AggFunc::kCount, nullptr, "orders"});
  c.GroupBy({"c_custkey", "c_name"}, std::move(aggs));
  c.OrderBy({{"revenue", false}, {"c_custkey", true}}, 20);
  return c.Build();
}

LogicalPlan BcastNation(const TpchData& db) {
  PlanBuilder n =
      PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});
  PlanBuilder s =
      PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(morsel::And(
      morsel::Ge(li.Col("l_shipdate"), ConstDate("1995-01-01")),
      morsel::Lt(li.Col("l_shipdate"), ConstDate("1996-01-01"))));
  li.Join(std::move(s), {"l_suppkey"}, {"s_suppkey"}, {"s_nationkey"},
          JoinKind::kInner);
  li.Join(std::move(n), {"s_nationkey"}, {"n_nationkey"}, {"n_name"},
          JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, Revenue(li), "revenue"});
  li.GroupBy({"n_name"}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan Q1TwoPhase(const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(), {"l_returnflag", "l_linestatus", "l_quantity",
                          "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(morsel::Le(li.Col("l_shipdate"), ConstDate("1998-09-02")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggFunc::kSum, li.Col("l_extendedprice"), "sum_price"});
  aggs.push_back({AggFunc::kSum, Revenue(li), "sum_disc_price"});
  aggs.push_back({AggFunc::kCount, nullptr, "count_order"});
  li.GroupBy({"l_returnflag", "l_linestatus"}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan TopkMerge(const TpchData& db) {
  PlanBuilder o = PlanBuilder::Scan(
      db.orders.get(), {"o_orderkey", "o_orderdate", "o_totalprice"});
  o.Filter(morsel::And(
      morsel::Ge(o.Col("o_orderdate"), ConstDate("1995-01-01")),
      morsel::Lt(o.Col("o_orderdate"), ConstDate("1996-01-01"))));
  o.OrderBy({{"o_totalprice", false}, {"o_orderkey", true}}, 10);
  return o.Build();
}

// In ShardStatementNames() order.
using PlanMaker = LogicalPlan (*)(const TpchData&);
constexpr PlanMaker kPlanMakers[] = {Q3Copart, Q10Repart, BcastNation,
                                     Q1TwoPhase, TopkMerge};

struct Setup {
  std::unique_ptr<TpchData> db;
  std::unique_ptr<morsel::ShardedEngine> se;
};

std::unique_ptr<morsel::ShardedEngine> MakeSharded(const TpchData& db,
                                                   bool trace) {
  morsel::EngineOptions opts;
  opts.num_workers = kWorkersPerShard;
  opts.record_trace = trace;
  auto se = std::make_unique<morsel::ShardedEngine>(MachineTopology(),
                                                    kShards, opts);
  se->RegisterTable(db.lineitem.get(), morsel::ShardDist::kHash,
                    {"l_orderkey"});
  se->RegisterTable(db.orders.get(), morsel::ShardDist::kHash,
                    {"o_orderkey"});
  se->RegisterTable(db.customer.get(), morsel::ShardDist::kHash,
                    {"c_custkey"});
  se->RegisterTable(db.supplier.get(), morsel::ShardDist::kRoundRobin);
  se->RegisterTable(db.nation.get(), morsel::ShardDist::kReplicated);
  return se;
}

}  // namespace

void RunShardTpch(const Args& args, FingerprintBook* book, Report* report) {
  const size_t baseline = morsel::NumaAllocatedBytes();
  {
    QuerySet qs;
    for (const std::string& stmt : ShardStatementNames()) {
      qs.names.push_back(stmt);
      qs.keys.push_back("tpch_sf0.5." + stmt);
    }
    std::vector<double> setup;
    std::vector<double> load;
    std::unique_ptr<Setup> st = TimedSetups(
        [&] {
          auto s = std::make_unique<Setup>();
          morsel::WallTimer t;
          s->db = std::make_unique<TpchData>(
              morsel::GenerateTpch(kSf, MachineTopology()));
          load.push_back(t.ElapsedSeconds());
          s->se = MakeSharded(*s->db, false);
          return s;
        },
        &setup);
    const TpchData& db = *st->db;
    SetupMetrics(setup, load, report);
    report->Context("scale_factor", "0.5");
    report->Context("shards", std::to_string(kShards));
    report->Context("workers_per_shard", std::to_string(kWorkersPerShard));
    report->Context(
        "rows", "{\"lineitem\": " + std::to_string(db.lineitem->NumRows()) +
                    ", \"orders\": " + std::to_string(db.orders->NumRows()) +
                    ", \"total\": " + std::to_string(db.TotalRows()) + "}");

    // engine.plan_build_us_p50: PlanBuilder chains up to Build().
    std::vector<double> build_us;
    for (int rep = 0; rep < 20; ++rep) {
      for (PlanMaker make : kPlanMakers) {
        const int64_t t0 = NowUs();
        LogicalPlan p = make(db);
        build_us.push_back(static_cast<double>(NowUs() - t0));
      }
    }
    std::vector<LogicalPlan> plans;
    for (PlanMaker make : kPlanMakers) plans.push_back(make(db));
    // The answers are recorded on one unsharded engine, so every sharded
    // execution is also checked against single-engine execution.
    if (args.record) {
      RecordAnswers(
          qs.keys,
          [&](morsel::Engine& e, int i) {
            return e.CreateQuery(plans[i])->Execute();
          },
          book, report);
    }

    auto run_stream = [&](morsel::ShardedEngine& se, uint64_t salt, int n) {
      Stream s = RunStream(qs, salt, n, [&](int i) {
        return se.CreateQuery(plans[i])->Execute();
      });
      CheckStream(qs, s, book, report);
      return s;
    };
    const int passes =
        PassesFor(args.trace ? args.seconds / 2 : args.seconds, kNominalPassS);
    run_stream(*st->se, args.seed * 6007 + 100000, 1);  // warm-up
    const Stream plain = run_stream(*st->se, args.seed * 6007, passes);
    st->se.reset();
    ClosedLoopMetrics(plain, 1, qs.size(), report);

    if (args.trace) {
      std::unique_ptr<morsel::ShardedEngine> se = MakeSharded(db, true);
      std::vector<TraceCursor> cursors;
      for (int s = 0; s < kShards; ++s) cursors.emplace_back(se->shard(s)->trace());
      const int64_t compact0 = morsel::Chunk::CompactCalls();
      const Stream traced = run_stream(*se, args.seed * 6007 + 200000, passes);
      std::vector<Span> spans;
      morsel::TrafficSnapshot traffic;
      for (int s = 0; s < kShards; ++s) {
        std::vector<Span> more = cursors[s].TakeNew(s);
        spans.insert(spans.end(), more.begin(), more.end());
        const morsel::TrafficSnapshot t = se->shard(s)->stats()->Aggregate();
        traffic.read_local += t.read_local;
        traffic.read_remote += t.read_remote;
        traffic.written_local += t.written_local;
        traffic.written_remote += t.written_remote;
        traffic.max_link = std::max(traffic.max_link, t.max_link);
        traffic.total_link += t.total_link;
      }
      const std::vector<Execution> execs = traced.Executions();
      const TraceSummary sum = TracedPhaseMetrics(
          spans, execs, traffic, static_cast<double>(passes),
          morsel::Chunk::CompactCalls() - compact0, report);
      report->Set("shard.coordinator_frac",
                  sum.wall_s > 0 ? sum.uncovered_s / sum.wall_s : 0);
      report->Set("shard.worker_idle_frac", sum.worker_idle_frac);
      report->Set("shard.morsels", static_cast<double>(sum.morsels) / passes);
      PerQueryMetrics(execs, "shard.", report);
      report->Set("engine.plan_build_us_p50", Median(build_us));
      report->Set("trace.overhead_frac",
                  OverheadFrac(Median(traced.pass_s), Median(plain.pass_s)));
    }
  }
  FinishRun(baseline, report);
}

}  // namespace e2e
