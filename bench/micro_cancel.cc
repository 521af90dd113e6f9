// Cancellation latency under the interrupt-checkpoint regime (DESIGN
// §11): how long after Cancel() does a query actually release its
// workers?
//
// The victim is the worst shape for morsel-boundary cancellation: a
// merge join with merge_partition_factor=1, whose partition joins,
// local sorts and k-way merges are ONE morsel each. Chunk-granularity
// checkpoints let the worker notice a cancel within ~1k rows instead of
// waiting out whichever monolithic morsel is in flight (tens of ms).
//
//  - BM_CancelLatency: the reported (manual) time per iteration is the
//    Cancel()->drained latency, with cancel_p50_us / cancel_p99_us
//    counters over every iteration of the run.
//  - BM_UncancelledOverhead: the same query run to completion, never
//    cancelled — the checkpoint polls' cost rides in its time.
//
// Emitted as BENCH_micro_cancel.json by bench/run_micro.sh so the
// cancellation-latency trajectory is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "numa/topology.h"
#include "storage/table.h"

namespace morsel {
namespace {

constexpr int64_t kRows = 1 << 20;  // 1M per side
constexpr int64_t kKeyRange = 1 << 16;

const Topology& BenchTopo() {
  static Topology topo(2, 2, InterconnectKind::kFullyConnected);
  return topo;
}

std::unique_ptr<Table> MakeTable(uint64_t seed, const char* kname,
                                 const char* vname) {
  Schema schema(
      {{kname, LogicalType::kInt64}, {vname, LogicalType::kInt64}});
  auto t = std::make_unique<Table>("bench", schema, BenchTopo());
  Rng rng(seed);
  for (int64_t i = 0; i < kRows; ++i) {
    int64_t k = rng.Uniform(0, kKeyRange - 1);
    int p = static_cast<int>(i % t->num_partitions());
    t->Int64Col(p, 0)->Append(k);
    t->Int64Col(p, 1)->Append(i);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

const Table* Probe() {
  static Table* t = MakeTable(42, "pk", "pv").release();
  return t;
}
const Table* Build() {
  static Table* t = MakeTable(43, "bk", "bv").release();
  return t;
}

LogicalPlan LongMergeJoinPlan() {
  PlanBuilder b = PlanBuilder::Scan(Build(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(Probe(), {"pk", "pv"});
  p.Join(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner, nullptr,
         JoinStrategy::kMerge);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  p.GroupBy({}, std::move(aggs));
  p.CollectResult();
  return p.Build();
}

std::unique_ptr<Engine> MakeEngine() {
  EngineOptions opts;
  opts.morsel_size = 16384;
  // One output partition per worker: partition joins become one-morsel
  // monoliths — the exact shape the checkpoints exist for.
  opts.merge_partition_factor = 1;
  return std::make_unique<Engine>(BenchTopo(), opts);
}

void ReportPercentiles(benchmark::State& state,
                       std::vector<double>& latencies_us) {
  if (latencies_us.empty()) return;
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double p) {
    size_t idx = static_cast<size_t>(p * (latencies_us.size() - 1));
    return latencies_us[idx];
  };
  state.counters["cancel_p50_us"] = pct(0.50);
  state.counters["cancel_p99_us"] = pct(0.99);
  state.counters["cancel_max_us"] = latencies_us.back();
}

// Manual time = Cancel() -> fully drained. The pre-cancel grace delay is
// drawn per iteration so the cancel lands in different phases (sorts,
// partition joins, merges), not always at the same point.
void BM_CancelLatency(benchmark::State& state) {
  auto engine = MakeEngine();
  LogicalPlan plan = LongMergeJoinPlan();
  Rng rng(7);
  std::vector<double> latencies_us;
  for (auto _ : state) {
    auto q = engine->CreateQuery(plan);
    q->Start();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng.Uniform(1, 40)));
    auto t0 = std::chrono::steady_clock::now();
    q->Cancel();
    q->Wait();
    auto t1 = std::chrono::steady_clock::now();
    std::chrono::duration<double> d = t1 - t0;
    state.SetIterationTime(d.count());
    latencies_us.push_back(d.count() * 1e6);
  }
  ReportPercentiles(state, latencies_us);
}
BENCHMARK(BM_CancelLatency)
    ->Iterations(40)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// The same long merge join run to completion: its time includes the
// checkpoint polls.
void BM_UncancelledOverhead(benchmark::State& state) {
  auto engine = MakeEngine();
  LogicalPlan plan = LongMergeJoinPlan();
  int64_t out = 0;
  for (auto _ : state) {
    ResultSet r = engine->CreateQuery(plan)->Execute();
    out = r.num_rows() > 0 ? r.I64(0, 0) : 0;
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_UncancelledOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace morsel

BENCHMARK_MAIN();
