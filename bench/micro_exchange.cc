// Sharded exchange subsystem (DESIGN.md §14): a TPC-H-Q3-shaped join +
// high-cardinality group-by executed on a ShardedEngine at 1 / 2 / 4
// shards, under both exchange modes —
//
//  - broadcast: a small dimension build side below the broadcast
//    threshold replays on every shard; the probe side never moves;
//  - repartition: a large build side forces both sides through the
//    hash-repartition exchange, plus the two-phase distributed group-by
//    partial exchange.
//
// plus the single-engine baseline the 1-shard arm must stay within
// noise of (the coordinator and channel machinery must cost ~nothing
// when there is nothing to distribute). The scale-out bar (ISSUE.md
// PR 9): >= 1.5x at 4 shards over 1 shard for the repartition shape ON
// A >= 4-CORE MACHINE — the `cores` counter records what this run
// actually had, so the trajectory reader can tell a real regression
// from a 1-core container run where every shard timeshares one CPU.
//
// Emitted as BENCH_micro_exchange.json by bench/run_micro.sh.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "numa/topology.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_query.h"
#include "storage/table.h"

namespace morsel {
namespace {

constexpr int64_t kFactRows = 1 << 20;  // 1M
constexpr int64_t kKeyRange = 200000;
constexpr int64_t kSmallDim = 2000;    // below broadcast threshold
constexpr int64_t kLargeDim = 200000;  // forces repartition

const Topology& BenchTopo() {
  // Four one-core sockets, one worker per core. At 4 shards each shard
  // owns one socket and one worker, and shard s pins to machine CPU s
  // (mod nproc); at 2 shards the shards pin to CPUs 0-1 and 2-3. On a
  // >= 4-CPU host the shards therefore run side by side on disjoint
  // CPUs; on fewer CPUs they wrap and timeshare.
  static Topology topo(4, 1, InterconnectKind::kFullyConnected);
  return topo;
}

std::unique_ptr<Table> MakeTable(const char* kname, const char* vname,
                                 int64_t rows, int64_t key_range,
                                 uint64_t seed) {
  Schema schema(
      {{kname, LogicalType::kInt64}, {vname, LogicalType::kInt64}});
  auto t = std::make_unique<Table>(kname, schema, BenchTopo());
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    int p = static_cast<int>(i % t->num_partitions());
    t->Int64Col(p, 0)->Append(rng.Uniform(0, key_range - 1));
    t->Int64Col(p, 1)->Append(i);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

const Table* Fact() {
  static Table* t =
      MakeTable("pk", "pv", kFactRows, kKeyRange, 11).release();
  return t;
}

const Table* Dim(bool large) {
  static Table* small =
      MakeTable("bk", "bv", kSmallDim, kKeyRange, 12).release();
  static Table* big =
      MakeTable("bk", "bv", kLargeDim, kKeyRange, 13).release();
  return large ? big : small;
}

// Q3 shape: selective filter -> join -> group on a high-cardinality key
// -> top-k order-by. Exercises every exchange the subsystem has: the
// join build (broadcast or repartition), the probe repartition, the
// group-by partial exchange and the coordinator's order-by merge spine.
LogicalPlan Q3Plan(bool large_dim) {
  PlanBuilder b = PlanBuilder::Scan(Dim(large_dim), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(Fact(), {"pk", "pv"});
  p.Filter(Lt(p.Col("pv"), ConstI64((kFactRows * 3) / 4)));
  p.Join(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  aggs.push_back({AggFunc::kSum, p.Col("bv"), "rev"});
  p.GroupBy({"pk"}, std::move(aggs));
  p.OrderBy({{"rev", /*ascending=*/false}, {"pk", true}}, /*limit=*/10);
  return p.Build();
}

ShardedEngine& Sharded(int num_shards) {
  static std::map<int, ShardedEngine*>* engines =
      new std::map<int, ShardedEngine*>();
  auto it = engines->find(num_shards);
  if (it == engines->end()) {
    EngineOptions opts;
    opts.morsel_size = 4096;
    auto* se = new ShardedEngine(BenchTopo(), num_shards, opts);
    se->RegisterTable(Fact(), ShardDist::kRoundRobin);
    se->RegisterTable(Dim(false), ShardDist::kRoundRobin);
    se->RegisterTable(Dim(true), ShardDist::kRoundRobin);
    it = engines->emplace(num_shards, se).first;
  }
  return *it->second;
}

void Annotate(benchmark::State& state) {
  state.counters["cores"] = static_cast<double>(
      std::thread::hardware_concurrency());
  state.counters["rows"] = static_cast<double>(kFactRows);
}

// args: {num_shards, large_dim}
void BM_ShardedQ3(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const bool large = state.range(1) != 0;
  ShardedEngine& se = Sharded(shards);
  LogicalPlan plan = Q3Plan(large);
  for (auto _ : state) {
    ResultSet r = se.CreateQuery(plan)->Execute();
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r.num_rows());
  }
  Annotate(state);
  state.counters["shards"] = shards;
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK(BM_ShardedQ3)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"shards", "repartition"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The single-engine baseline on the same machine topology: what the
// 1-shard arm is measured against (coordinator + channel overhead).
void BM_SingleEngineQ3(benchmark::State& state) {
  const bool large = state.range(0) != 0;
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 4096;
    return new Engine(BenchTopo(), opts);
  }();
  LogicalPlan plan = Q3Plan(large);
  for (auto _ : state) {
    ResultSet r = engine->CreateQuery(plan)->Execute();
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r.num_rows());
  }
  Annotate(state);
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK(BM_SingleEngineQ3)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"repartition"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace morsel

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext(
      "simulated_topology",
      "4 sockets x 1 core; 1 worker per core, per shard slice");
  benchmark::AddCustomContext("build_type", morsel::bench::kBuildType);
  benchmark::AddCustomContext("git_sha", morsel::bench::GitSha());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
