// Section 5.4 interference experiment: static work division (morsel size
// = n / threads, the Volcano model) vs. dynamic morsel assignment when
// an unrelated single-threaded process occupies one core. The paper
// measured a 36.8% slowdown for the static approach but only 4.7% for
// dynamic morsels — the headline load-balancing result.
//
// Measurement discipline: the two engines are sampled in alternation
// within each phase (quiet / loaded) so ambient noise hits both equally,
// and medians are reported.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "numa/pinning.h"
#include "tpch/tpch.h"
#include "tpch/tpch_queries.h"

namespace morsel {
namespace {

double OneRun(Engine& engine, const TpchData& db) {
  WallTimer t;
  RunTpchQuery(engine, db, 6);
  return t.ElapsedSeconds();
}

// Single-pipeline pure scan over lineitem (scan+filter+collect, no
// successor jobs): isolates work division from pipeline-breaker tails.
double OneScan(Engine& engine, const TpchData& db) {
  WallTimer t;
  PlanBuilder pb = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_quantity", "l_extendedprice", "l_discount",
                            "l_shipdate"});
  pb.Filter(Lt(pb.Col("l_quantity"), ConstF64(0.0)));  // selects nothing
  pb.CollectResult();
  auto q = engine.CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  MORSEL_CHECK(r.num_rows() == 0);
  return t.ElapsedSeconds();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace
}  // namespace morsel

int main() {
  using namespace morsel;
  bench::PrintHeader("sec54_interference — static vs dynamic under load",
                     "Section 5.4 (36.8% vs 4.7% interference slowdown)");
  Topology topo = bench::BenchTopology();
  double sf = bench::GetSf(0.2);
  std::printf("generating TPC-H sf=%.3f ...\n", sf);
  TpchData db = GenerateTpch(sf, topo);
  int workers = bench::GetWorkers(topo.total_cores());
  const int samples = 11;

  EngineOptions dyn_opts;
  dyn_opts.num_workers = workers;
  // Fine morsels keep the straggler tail small relative to the query
  // (the paper's photo-finish guarantee is one morsel's worth of time).
  dyn_opts.morsel_size = bench::GetMorselSize(20000);
  Engine dyn(topo, dyn_opts);
  EngineOptions stat_opts = dyn_opts;
  stat_opts.static_division = true;
  Engine stat(topo, stat_opts);

  std::printf("workers=%d, query: TPC-H Q6 (scan-dominated)\n\n", workers);

  // warm both engines
  for (int i = 0; i < 3; ++i) {
    OneRun(dyn, db);
    OneRun(stat, db);
  }

  std::vector<double> dyn_quiet, stat_quiet, dyn_loaded, stat_loaded;
  for (int i = 0; i < samples; ++i) {
    dyn_quiet.push_back(OneRun(dyn, db));
    stat_quiet.push_back(OneRun(stat, db));
  }

  // Interfering single-threaded process pinned to core 0.
  std::atomic<bool> stop{false};
  std::thread hog([&] {
    PinThreadToCpu(0);
    volatile uint64_t x = 1;
    while (!stop.load(std::memory_order_relaxed)) x = x * 2654435761u + 1;
  });
  OneRun(dyn, db);  // let the scheduler settle under load
  OneRun(stat, db);
  dyn.pool()->ResetStats();
  stat.pool()->ResetStats();
  for (int i = 0; i < samples; ++i) {
    dyn_loaded.push_back(OneRun(dyn, db));
    stat_loaded.push_back(OneRun(stat, db));
  }
  // Load-balance evidence that survives ambient noise: under dynamic
  // assignment the undisturbed workers absorb morsels from the hogged
  // core; static n/t chunks cannot migrate by construction.
  uint64_t dyn_m0 = dyn.pool()->WorkerMorselsRun(0);
  uint64_t dyn_m1 = workers > 1 ? dyn.pool()->WorkerMorselsRun(1) : 0;
  uint64_t stat_m0 = stat.pool()->WorkerMorselsRun(0);
  uint64_t stat_m1 = workers > 1 ? stat.pool()->WorkerMorselsRun(1) : 0;
  stop.store(true);
  hog.join();

  double dq = Median(dyn_quiet), dl = Median(dyn_loaded);
  double sq = Median(stat_quiet), sl = Median(stat_loaded);
  std::printf("%-22s %12s %12s %10s\n", "work division", "quiet[s]",
              "loaded[s]", "slowdown");
  std::printf("%-22s %12.4f %12.4f %9.1f%%\n", "dynamic (morsels)", dq, dl,
              (dl / dq - 1.0) * 100.0);
  std::printf("%-22s %12.4f %12.4f %9.1f%%\n", "static (n/t chunks)", sq,
              sl, (sl / sq - 1.0) * 100.0);
  std::printf("\nwork division under interference (morsels per worker):\n");
  std::printf("  dynamic  %5llu vs %-5llu  (morsels migrate off the"
              " hogged core)\n",
              static_cast<unsigned long long>(dyn_m0),
              static_cast<unsigned long long>(dyn_m1));
  std::printf("  static   %5llu vs %-5llu  (fixed n/t chunks cannot"
              " migrate)\n",
              static_cast<unsigned long long>(stat_m0),
              static_cast<unsigned long long>(stat_m1));
  std::printf(
      "\npaper shape: static division suffers several times the slowdown\n"
      "of dynamic morsel assignment (36.8%% vs 4.7%% in the paper), since\n"
      "with static chunks the whole query waits for the disturbed core.\n"
      "The hog experiment above is at the mercy of container schedulers;\n"
      "the injected slow core below is deterministic.\n");

  // --- Part B: deterministic injected slow core -------------------------
  // A worker on core 0 runs 2x slower per morsel: the controlled version
  // of the same experiment, immune to ambient load.
  std::printf("\n--- deterministic variant: core 0 injected 2x slower ---\n");
  std::printf("(single-pipeline lineitem scan; no pipeline-breaker tail)\n");
  std::printf("%-22s %12s %12s %10s\n", "work division", "quiet[s]",
              "slowcore[s]", "slowdown");
  for (bool is_static : {false, true}) {
    EngineOptions slow_opts;
    slow_opts.num_workers = workers;
    slow_opts.morsel_size = bench::GetMorselSize(20000);
    slow_opts.static_division = is_static;
    slow_opts.simulate_slow_core = 0;
    slow_opts.slow_core_factor = 2.0;
    Engine slow_engine(topo, slow_opts);
    EngineOptions quiet_opts = slow_opts;
    quiet_opts.simulate_slow_core = -1;
    Engine quiet_engine(topo, quiet_opts);
    for (int i = 0; i < 2; ++i) {
      OneScan(slow_engine, db);
      OneScan(quiet_engine, db);
    }
    std::vector<double> ts, tq;
    for (int i = 0; i < samples; ++i) {
      tq.push_back(OneScan(quiet_engine, db));
      ts.push_back(OneScan(slow_engine, db));
    }
    double mq = Median(tq), msl = Median(ts);
    std::printf("%-22s %12.4f %12.4f %9.1f%%\n",
                is_static ? "static (n/t chunks)" : "dynamic (morsels)",
                mq, msl, (msl / mq - 1.0) * 100.0);
  }
  std::printf(
      "expected with 1 of %d cores at half speed: dynamic ~+%d%%\n"
      "(work rebalances), static ~+100%% (query waits for the slow\n"
      "core's fixed chunk).\n",
      workers, 100 / (2 * workers - 1));
  return 0;
}
