// Single-core efficiency yardstick: TPC-H Q1, Q6 and Q3 on one worker
// (1-socket x 1-core simulated topology), in engine nanoseconds per
// lineitem row, each beside a hand-written loop that computes the same
// answer straight from the same Table columns. The hand loops stay in
// the repository as the yardstick: engine_ns_per_row / hand_ns_per_row
// is the price of interpretation (operator boundaries, expression
// dispatch, materialization) that the paper's compiled pipelines avoid
// and that typed vector primitives (DESIGN "Typed primitives") narrow.
//
// Each iteration runs the engine query and then its hand loop, so both
// see the same host speed; the counters are totals over all iterations.
// The hand loop's answer is checked against the engine's before any
// number is reported.
//
// Environment: MORSEL_BENCH_SF (default 0.25). Emitted as
// BENCH_micro_efficiency.json by bench/run_micro.sh, with a host block
// (nproc, simulated topology, build type, git sha, scale factor) in the
// report's "context".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/date.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "numa/topology.h"
#include "tpch/tpch.h"
#include "tpch/tpch_queries.h"

#ifndef MORSEL_BUILD_TYPE
#define MORSEL_BUILD_TYPE "unknown"
#endif

namespace morsel {
namespace {

constexpr double kDefaultSf = 0.25;

const Topology& OneCore() {
  static Topology topo(1, 1, InterconnectKind::kFullyConnected);
  return topo;
}

const TpchData& Db() {
  static TpchData db = GenerateTpch(bench::GetSf(kDefaultSf), OneCore());
  return db;
}

Engine& OneWorker() {
  static Engine engine(OneCore(), [] {
    EngineOptions o;
    o.num_workers = 1;
    return o;
  }());
  return engine;
}

int Col(const Table& t, const char* name) {
  return t.schema().IndexOf(name);
}

// --- hand-written loops -------------------------------------------------

struct Q1Acc {
  double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
  int64_t count = 0;
};

// Q1: shipdate filter, group by (returnflag, linestatus) through a
// 256x256 slot table (both keys are one character), six aggregates.
std::vector<Q1Acc> HandQ1(const TpchData& db) {
  Table& li = *db.lineitem;
  const int c_qty = Col(li, "l_quantity");
  const int c_price = Col(li, "l_extendedprice");
  const int c_disc = Col(li, "l_discount");
  const int c_tax = Col(li, "l_tax");
  const int c_rf = Col(li, "l_returnflag");
  const int c_ls = Col(li, "l_linestatus");
  const int c_ship = Col(li, "l_shipdate");
  const Date32 cutoff = MakeDate(1998, 9, 2);
  std::vector<uint8_t> slot(256 * 256, 0xff);
  std::vector<Q1Acc> acc;
  for (int p = 0; p < li.num_partitions(); ++p) {
    const size_t n = li.PartitionRows(p);
    const double* qty = li.DoubleCol(p, c_qty)->raw();
    const double* price = li.DoubleCol(p, c_price)->raw();
    const double* disc = li.DoubleCol(p, c_disc)->raw();
    const double* tax = li.DoubleCol(p, c_tax)->raw();
    const int32_t* ship = li.Int32Col(p, c_ship)->raw();
    const StringColumn* rf = li.StrCol(p, c_rf);
    const StringColumn* ls = li.StrCol(p, c_ls);
    for (size_t i = 0; i < n; ++i) {
      if (ship[i] > cutoff) continue;
      const unsigned key = static_cast<uint8_t>(rf->Get(i)[0]) * 256u +
                           static_cast<uint8_t>(ls->Get(i)[0]);
      if (slot[key] == 0xff) {
        slot[key] = static_cast<uint8_t>(acc.size());
        acc.emplace_back();
      }
      Q1Acc& a = acc[slot[key]];
      const double dp = price[i] * (1.0 - disc[i]);
      a.qty += qty[i];
      a.base += price[i];
      a.disc_price += dp;
      a.charge += dp * (1.0 + tax[i]);
      a.disc += disc[i];
      ++a.count;
    }
  }
  return acc;
}

// Q6: five-conjunct filter evaluated branch-free, one sum.
double HandQ6(const TpchData& db) {
  Table& li = *db.lineitem;
  const int c_ship = Col(li, "l_shipdate");
  const int c_disc = Col(li, "l_discount");
  const int c_qty = Col(li, "l_quantity");
  const int c_price = Col(li, "l_extendedprice");
  const Date32 lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);
  double revenue = 0;
  for (int p = 0; p < li.num_partitions(); ++p) {
    const size_t n = li.PartitionRows(p);
    const int32_t* ship = li.Int32Col(p, c_ship)->raw();
    const double* disc = li.DoubleCol(p, c_disc)->raw();
    const double* qty = li.DoubleCol(p, c_qty)->raw();
    const double* price = li.DoubleCol(p, c_price)->raw();
    for (size_t i = 0; i < n; ++i) {
      const bool ok = (ship[i] >= lo) & (ship[i] < hi) & (disc[i] >= 0.05) &
                      (disc[i] <= 0.07) & (qty[i] < 24.0);
      revenue += ok ? price[i] * disc[i] : 0.0;
    }
  }
  return revenue;
}

// Q3: BUILDING customers as a bitmap over custkey, qualifying orders
// as arrays indexed by orderkey, lineitem revenue summed per orderkey,
// top 10 by (revenue desc, orderdate asc). Returns the top revenue.
double HandQ3(const TpchData& db) {
  Table& cust = *db.customer;
  Table& ord = *db.orders;
  Table& li = *db.lineitem;
  const Date32 cutoff = MakeDate(1995, 3, 15);
  std::vector<uint8_t> building;
  const int c_ck = Col(cust, "c_custkey");
  const int c_seg = Col(cust, "c_mktsegment");
  for (int p = 0; p < cust.num_partitions(); ++p) {
    const int64_t* key = cust.Int64Col(p, c_ck)->raw();
    const StringColumn* seg = cust.StrCol(p, c_seg);
    for (size_t i = 0; i < cust.PartitionRows(p); ++i) {
      if (static_cast<size_t>(key[i]) >= building.size()) {
        building.resize(static_cast<size_t>(key[i]) + 1, 0);
      }
      building[key[i]] = seg->Get(i) == "BUILDING";
    }
  }
  const int c_ok = Col(ord, "o_orderkey");
  const int c_oc = Col(ord, "o_custkey");
  const int c_od = Col(ord, "o_orderdate");
  std::vector<int32_t> order_date;  // 0 = order does not qualify
  for (int p = 0; p < ord.num_partitions(); ++p) {
    const int64_t* key = ord.Int64Col(p, c_ok)->raw();
    const int64_t* ck = ord.Int64Col(p, c_oc)->raw();
    const int32_t* date = ord.Int32Col(p, c_od)->raw();
    for (size_t i = 0; i < ord.PartitionRows(p); ++i) {
      if (static_cast<size_t>(key[i]) >= order_date.size()) {
        order_date.resize(static_cast<size_t>(key[i]) + 1, 0);
      }
      const bool ok = date[i] < cutoff &&
                      static_cast<size_t>(ck[i]) < building.size() &&
                      building[ck[i]] != 0;
      order_date[key[i]] = ok ? date[i] : 0;
    }
  }
  std::vector<double> revenue(order_date.size(), 0.0);
  const int c_lk = Col(li, "l_orderkey");
  const int c_price = Col(li, "l_extendedprice");
  const int c_disc = Col(li, "l_discount");
  const int c_ship = Col(li, "l_shipdate");
  for (int p = 0; p < li.num_partitions(); ++p) {
    const int64_t* key = li.Int64Col(p, c_lk)->raw();
    const double* price = li.DoubleCol(p, c_price)->raw();
    const double* disc = li.DoubleCol(p, c_disc)->raw();
    const int32_t* ship = li.Int32Col(p, c_ship)->raw();
    for (size_t i = 0; i < li.PartitionRows(p); ++i) {
      if (ship[i] > cutoff && order_date[key[i]] != 0) {
        revenue[key[i]] += price[i] * (1.0 - disc[i]);
      }
    }
  }
  std::vector<size_t> keys;
  for (size_t k = 0; k < revenue.size(); ++k) {
    if (revenue[k] != 0.0) keys.push_back(k);
  }
  const size_t top = std::min<size_t>(10, keys.size());
  std::partial_sort(keys.begin(), keys.begin() + top, keys.end(),
                    [&](size_t a, size_t b) {
                      if (revenue[a] != revenue[b]) {
                        return revenue[a] > revenue[b];
                      }
                      return order_date[a] < order_date[b];
                    });
  return top == 0 ? 0.0 : revenue[keys[0]];
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

// Checks the hand loop's answer against the engine's result.
bool SameAnswer(int q, const ResultSet& r) {
  const TpchData& db = Db();
  if (q == 1) {
    std::vector<Q1Acc> acc = HandQ1(db);
    int64_t hand_count = 0, engine_count = 0;
    double hand_charge = 0, engine_charge = 0;
    for (const Q1Acc& a : acc) {
      hand_count += a.count;
      hand_charge += a.charge;
    }
    for (int64_t row = 0; row < r.num_rows(); ++row) {
      engine_count += r.I64(row, 9);
      engine_charge += r.F64(row, 5);
    }
    return r.num_rows() == static_cast<int64_t>(acc.size()) &&
           hand_count == engine_count && Close(hand_charge, engine_charge);
  }
  if (q == 6) return r.num_rows() == 1 && Close(HandQ6(db), r.F64(0, 0));
  return r.num_rows() > 0 && Close(HandQ3(db), r.F64(0, 3));
}

void RunHand(int q) {
  const TpchData& db = Db();
  if (q == 1) {
    benchmark::DoNotOptimize(HandQ1(db));
  } else if (q == 6) {
    benchmark::DoNotOptimize(HandQ6(db));
  } else {
    benchmark::DoNotOptimize(HandQ3(db));
  }
}

void BM_Efficiency(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const TpchData& db = Db();
  Engine& engine = OneWorker();
  if (!SameAnswer(q, RunTpchQuery(engine, db, q))) {
    state.SkipWithError("hand loop and engine disagree");
    return;
  }
  double engine_s = 0, hand_s = 0;
  for (auto _ : state) {
    WallTimer t;
    ResultSet r = RunTpchQuery(engine, db, q);
    engine_s += t.ElapsedSeconds();
    benchmark::DoNotOptimize(r);
    WallTimer h;
    RunHand(q);
    hand_s += h.ElapsedSeconds();
  }
  const double rows = static_cast<double>(db.lineitem->NumRows()) *
                      static_cast<double>(state.iterations());
  const double engine_ns = engine_s * 1e9 / rows;
  const double hand_ns = hand_s * 1e9 / rows;
  state.counters["engine_ns_per_row"] = engine_ns;
  state.counters["hand_ns_per_row"] = hand_ns;
  state.counters["engine_over_hand"] = engine_ns / hand_ns;
  state.counters["lineitem_rows"] =
      static_cast<double>(db.lineitem->NumRows());
}
BENCHMARK(BM_Efficiency)
    ->ArgName("q")
    ->Arg(1)
    ->Arg(6)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(1.0);

std::string GitSha() {
  std::string sha;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace
}  // namespace morsel

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("simulated_topology",
                              "1 socket x 1 core, 1 worker");
  benchmark::AddCustomContext("build_type", MORSEL_BUILD_TYPE);
  benchmark::AddCustomContext("git_sha", morsel::GitSha());
  benchmark::AddCustomContext(
      "sf", std::to_string(morsel::bench::GetSf(morsel::kDefaultSf)));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
