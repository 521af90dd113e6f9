// ssb_streams: the 13 SSB queries at SF 1 as 4 closed-loop client
// streams sharing one 4-worker engine, each stream in its own seeded
// order. Scans, filters, zone maps and probes into cache-resident
// dimension tables do the work; builds, sort and large aggregation do
// almost none, and the dispatcher's fair share across concurrent
// queries (paper Figure 12) is exercised.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/chunk.h"
#include "numa/allocator.h"
#include "ssb/ssb.h"
#include "ssb/ssb_queries.h"
#include "workloads.h"

namespace e2e {
namespace {

using morsel::Engine;
using morsel::EngineOptions;
using morsel::SsbData;

constexpr double kSf = 1.0;
constexpr int kStreams = 4;
constexpr double kNominalPassS = 2.4;  // per stream, see PassesFor

struct Setup {
  std::unique_ptr<SsbData> db;
  std::unique_ptr<Engine> engine;
};

std::unique_ptr<Engine> MakeEngine(bool trace) {
  EngineOptions opts;
  opts.num_workers = kWorkers;
  opts.record_trace = trace;
  return std::make_unique<Engine>(MachineTopology(), opts);
}

}  // namespace

void RunSsbStreams(const Args& args, FingerprintBook* book, Report* report) {
  const size_t baseline = morsel::NumaAllocatedBytes();
  {
    QuerySet qs;
    for (int i = 0; i < morsel::kNumSsbQueries; ++i) {
      qs.names.push_back(SsbLabel(i));
      qs.keys.push_back(std::string("ssb_sf1.q") + morsel::SsbQueryName(i));
    }
    std::vector<double> setup;
    std::vector<double> load;
    std::unique_ptr<Setup> st = TimedSetups(
        [&] {
          auto s = std::make_unique<Setup>();
          morsel::WallTimer t;
          s->db = std::make_unique<SsbData>(
              morsel::GenerateSsb(kSf, MachineTopology()));
          load.push_back(t.ElapsedSeconds());
          s->engine = MakeEngine(false);
          return s;
        },
        &setup);
    const SsbData& db = *st->db;
    SetupMetrics(setup, load, report);
    report->Context("scale_factor", "1.0");
    report->Context("streams", std::to_string(kStreams));
    report->Context(
        "rows", "{\"lineorder\": " + std::to_string(db.lineorder->NumRows()) +
                    ", \"total\": " + std::to_string(db.TotalRows()) + "}");
    auto run_on = [&](Engine& engine, int i) {
      return morsel::RunSsbQuery(engine, db, i);
    };
    if (args.record) RecordAnswers(qs.keys, run_on, book, report);

    // Every stream runs its passes on its own thread; the answers are
    // checked after the streams joined.
    auto run_streams = [&](Engine& engine, uint64_t salt, int passes) {
      std::vector<Stream> streams(kStreams);
      {
        std::vector<std::thread> threads;
        for (int s = 0; s < kStreams; ++s) {
          threads.emplace_back([&, s] {
            streams[s] = RunStream(qs, salt * 31 + s * 7919, passes,
                                   [&](int i) { return run_on(engine, i); });
          });
        }
        for (std::thread& t : threads) t.join();
      }
      Stream all;
      for (Stream& s : streams) all.Merge(std::move(s));
      CheckStream(qs, all, book, report);
      return all;
    };
    const int passes =
        PassesFor(args.trace ? args.seconds / 2 : args.seconds, kNominalPassS);
    run_streams(*st->engine, args.seed * 104729 + 1, 1);  // warm-up
    const Stream plain = run_streams(*st->engine, args.seed * 104729 + 2,
                                     passes);
    st->engine.reset();
    ClosedLoopMetrics(plain, kStreams, qs.size(), report);

    if (args.trace) {
      std::unique_ptr<Engine> engine = MakeEngine(true);
      TraceCursor cursor(engine->trace());
      const int64_t compact0 = morsel::Chunk::CompactCalls();
      const Stream traced =
          run_streams(*engine, args.seed * 104729 + 3, passes);
      // One "pass" is 13 completed queries, whichever stream ran them.
      const double traced_passes =
          static_cast<double>(traced.outcomes.size()) / qs.size();
      const std::vector<Execution> execs = traced.Executions();
      TracedPhaseMetrics(cursor.TakeNew(), execs, engine->stats()->Aggregate(),
                         traced_passes,
                         morsel::Chunk::CompactCalls() - compact0, report);
      PerQueryMetrics(execs, "ssb.", report);
      // Throughput is what the streams deliver; compare time per query.
      report->Set("trace.overhead_frac",
                  OverheadFrac(traced.measured_s() / traced.outcomes.size(),
                               plain.measured_s() / plain.outcomes.size()));
    }
  }
  FinishRun(baseline, report);
}

}  // namespace e2e
