// Self-tests of the benchmark's own pieces: answer fingerprints, the
// open-loop generator, latency statistics, trace accounting and metric
// names. Run with `e2ebench --selftest` (run.py --selftest also checks
// the names against BENCHMARK.json).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "numa/allocator.h"
#include "open_loop.h"
#include "workloads.h"

namespace e2e {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

using Batch = morsel::server::Client::RowBatch;
using morsel::LogicalType;

Batch MakeBatch(const std::vector<int64_t>& ints,
                const std::vector<double>& doubles,
                const std::vector<std::string>& strings) {
  Batch b;
  b.num_rows = static_cast<int64_t>(ints.size());
  b.cols.resize(3);
  b.cols[0].type = LogicalType::kInt64;
  b.cols[0].ints = ints;
  b.cols[1].type = LogicalType::kDouble;
  b.cols[1].doubles = doubles;
  b.cols[2].type = LogicalType::kString;
  b.cols[2].strings = strings;
  return b;
}

bool Match(const Fingerprint& a, const Fingerprint& b) {
  std::string why;
  return FingerprintsMatch(a, b, &why);
}

void FingerprintTests() {
  const Batch base = MakeBatch({3, -7, 11, 0}, {1.5, 2.25, -3.0, 1e6},
                               {"a", "bb", "", "ccc"});
  const Fingerprint fp = FingerprintOf(base);
  Expect(Match(FingerprintOf(MakeBatch({0, 11, -7, 3}, {1e6, -3.0, 2.25, 1.5},
                                       {"ccc", "", "bb", "a"})),
               fp),
         "fingerprint ignores row order");
  Expect(Match(FingerprintOf(MakeBatch({3, -7, 11, 0},
                                       {1.5 * (1 + 1e-9), 2.25, -3.0, 1e6},
                                       {"a", "bb", "", "ccc"})),
               fp),
         "double sum within tolerance matches");
  Expect(!Match(FingerprintOf(MakeBatch({3, -7, 11, 0}, {1.5, 2.25, -3.0,
                                                         1e6 * (1 + 1e-4)},
                                        {"a", "bb", "", "ccc"})),
                fp),
         "double sum beyond tolerance mismatches");
  Expect(!Match(FingerprintOf(MakeBatch({3, -7, 12, 0}, {1.5, 2.25, -3.0, 1e6},
                                        {"a", "bb", "", "ccc"})),
                fp),
         "integer sum is exact");
  Expect(!Match(FingerprintOf(MakeBatch({3, -7, 11, 0}, {1.5, 2.25, -3.0, 1e6},
                                        {"a", "bb", "", "ccd"})),
                fp),
         "string hash sum is exact");
  Expect(!Match(FingerprintOf(MakeBatch({3, -7, 11}, {1.5, 2.25, -3.0},
                                        {"a", "bb", ""})),
                fp),
         "row count is exact");
  Fingerprint parsed;
  Expect(ParseFingerprint(FormatFingerprint(fp), &parsed) && Match(parsed, fp),
         "fingerprint text round-trips");

  // A real ResultSet: the same scan on 1 and 4 workers returns rows in
  // different orders but fingerprints like the rows it was loaded from.
  const size_t baseline = morsel::NumaAllocatedBytes();
  {
    morsel::Schema schema({{"k", LogicalType::kInt64},
                           {"v", LogicalType::kDouble},
                           {"s", LogicalType::kString}});
    morsel::Table t("t", schema, MachineTopology());
    std::vector<int64_t> ks;
    std::vector<double> vs;
    std::vector<std::string> ss;
    for (int i = 0; i < 20000; ++i) {
      const int p = i % t.num_partitions();
      ks.push_back(i * 7 - 5000);
      vs.push_back(i * 0.25);
      char s[16];
      std::snprintf(s, sizeof(s), "s%d", i % 97);
      ss.push_back(s);
      t.Int64Col(p, 0)->Append(ks.back());
      t.DoubleCol(p, 1)->Append(vs.back());
      t.StrCol(p, 2)->Append(ss.back());
    }
    for (int p = 0; p < t.num_partitions(); ++p) t.SealPartition(p);
    morsel::PlanBuilder pb = morsel::PlanBuilder::Scan(&t, {"k", "v", "s"});
    pb.CollectResult();
    const morsel::LogicalPlan plan = pb.Build();
    const Fingerprint want = FingerprintOf(MakeBatch(ks, vs, ss));
    for (int workers : {1, 4}) {
      morsel::EngineOptions opts;
      opts.num_workers = workers;
      opts.morsel_size = 1000;
      morsel::Engine engine(MachineTopology(), opts);
      Expect(Match(FingerprintOf(engine.CreateQuery(plan)->Execute()), want),
             workers == 1 ? "ResultSet fingerprint, 1 worker"
                          : "ResultSet fingerprint, 4 workers");
    }
  }
  Expect(morsel::NumaAllocatedBytes() == baseline,
         "allocator back at baseline after the engine test");
}

void OpenLoopTests() {
  const int64_t t0 = NowUs() + 50'000;
  std::vector<Rung> rungs = {{t0, t0 + 200'000, 200.0}};
  std::vector<Request> reqs = Schedule(rungs, 6, 1, 9, 0);
  bool in_range = true;
  bool ordered = true;
  for (size_t i = 0; i < reqs.size(); ++i) {
    in_range &= reqs[i].due_us >= rungs[0].start_us &&
                reqs[i].due_us < rungs[0].end_us;
    ordered &= i == 0 || reqs[i - 1].due_us <= reqs[i].due_us;
  }
  Expect(reqs.size() == 40, "schedule offers exactly rate x duration");
  Expect(in_range && ordered, "schedule due times are ordered inside the rung");
  Expect(Schedule(rungs, 6, 1, 9, 0)[7].due_us == reqs[7].due_us &&
             Schedule(rungs, 6, 1, 10, 0)[7].due_us != reqs[7].due_us,
         "schedule follows the seed");

  // A 10 ms service time against 5 ms arrivals: the backlog grows, so
  // latency (from due) exceeds service time by the send lag, the lag
  // grows, and requests still queued at the rung's end are dropped.
  DriveOpenLoop(&reqs, rungs, 0, [](Request* q) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q->done_us = NowUs();
    q->ok = true;
  });
  std::vector<const Request*> sent;
  for (const Request& q : reqs) {
    if (q.sent) sent.push_back(&q);
  }
  bool from_due = !sent.empty();
  for (const Request* q : sent) {
    from_due &= q->latency_ms() >= q->lag_ms() + 9.9 &&
                q->send_us >= q->due_us;
  }
  Expect(from_due, "latency is timed from the due time, lag from send");
  Expect(sent.size() >= 2 && sent.back()->lag_ms() > sent.front()->lag_ms() + 20,
         "lag grows under overload");
  Expect(sent.size() < reqs.size(), "requests queued past the rung are dropped");

  // An idle server: the generator sends on time.
  const int64_t t1 = NowUs() + 20'000;
  std::vector<Rung> light = {{t1, t1 + 200'000, 100.0}};
  std::vector<Request> lreqs = Schedule(light, 6, 1, 3, 0);
  DriveOpenLoop(&lreqs, light, 0, [](Request* q) { q->done_us = NowUs(); });
  std::vector<double> lags;
  for (const Request& q : lreqs) lags.push_back(q.lag_ms());
  Expect(lags.size() == lreqs.size() && Median(lags) < 5.0,
         "an unloaded generator sends within 5 ms of the due time");
}

void StatisticsTests() {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  Expect(TailOf(xs).percentile == 99.0, "1000 samples: tail is p99");
  xs.resize(100);
  Expect(TailOf(xs).percentile == 90.0, "100 samples: tail is p90");
  xs.resize(15);
  Expect(TailOf(xs).percentile == 50.0, "15 samples: tail falls back to p50");
  Expect(std::fabs(Quantile({1, 2, 3, 4}, 0.5) - 2.5) < 1e-12,
         "quantiles interpolate");

  // Two workers, one 100 us window: spans cover [10, 60), busy 60 us.
  std::vector<Span> spans = {{10, 50, 0, 1, 0, false}, {40, 60, 1, 1, 1, true}};
  TraceSummary s = Summarize(spans, {{"w", 0, 100}}, 2);
  Expect(std::fabs(s.uncovered_s - 50e-6) < 1e-12, "uncovered window time");
  Expect(std::fabs(s.worker_idle_frac - 0.7) < 1e-9,
         "worker idle = 1 - busy / (workers x wall)");
  Expect(s.pipelines == 2 && std::fabs(s.stolen_frac - 0.5) < 1e-12,
         "pipelines and stolen share");
}

void MetricNameTests() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool names_ok = true;
  bool units_ok = true;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      names_ok &= std::regex_match(m.name, name_re) && seen.insert(m.name).second;
      units_ok &= std::regex_match(m.unit, unit_re);
    }
  }
  Expect(names_ok, "metric names match [A-Za-z0-9_.-]+ and are unique");
  Expect(units_ok, "metric units are well-formed");
  Expect(PerLayerMetrics().size() <= 128, "at most 128 per-layer metrics");
}

}  // namespace

int RunSelfTests() {
  FingerprintTests();
  OpenLoopTests();
  StatisticsTests();
  MetricNameTests();
  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace e2e
