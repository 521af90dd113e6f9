// serve_ingest: the TCP server over small data (TPC-H SF 0.01 plus SSB
// SF 0.02, which fits in the last-level cache) under an open loop, with
// one writer appending to and sealing an ingest table beside the reads.
//
// Three client connections send at a ladder of fixed rates; each request
// is timed from when it was due, so a stall also delays the requests
// queued behind it. The statements are the five serve_mixed shapes plus
// a count over the ingest table. Per-query work is tiny, so the wire,
// admission, statement cache, lowering and dispatcher start-up dominate,
// and the writer's seals (zone-map rebuilds, prepared-plan re-lowering
// after each epoch bump) show up as query latency.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "exec/chunk.h"
#include "numa/allocator.h"
#include "open_loop.h"
#include "server/client.h"
#include "server/server.h"
#include "ssb/ssb.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace e2e {

using morsel::AggFunc;
using morsel::AggItem;
using morsel::ConstDate;
using morsel::ConstF64;
using morsel::ConstI64;
using morsel::LogicalPlan;
using morsel::PlanBuilder;
using morsel::server::Client;

const std::vector<std::string>& ServeStatementNames() {
  static const std::vector<std::string> names = {
      "tpch_q6", "tpch_q1", "tpch_top", "ssb_q11", "ssb_group", "ingest_count"};
  return names;
}

namespace {

constexpr double kTpchSf = 0.01;
constexpr double kSsbSf = 0.02;
constexpr int kConnections = 3;
constexpr int kIngestStmt = 5;  // index of ingest_count

// The open-loop rate ladder (requests per second over all connections)
// and the latency limit on the tail percentile. The first rate is far
// below saturation and gives the latency metrics; the rates above it
// climb in steps of 1.25x towards and past the server's capacity (see
// MaxRate). Placed once on a 4-core host where the server completes
// 450-500 requests/s at most and the tail crosses the limit between the
// 415 and 520 rates. The limit is well above the 10-20 ms tail below
// saturation, so that a short stall of the host does not fail a rate
// the server sustains.
constexpr double kRateQps[] = {150, 265, 335, 415, 520, 650, 810};
constexpr int kRates = 7;
constexpr int kLatencyRate = 0;
constexpr double kTailLimitMs = 100;

// The run as segments at one rate each: (index into kRateQps, share of
// the run). The latency rate recurs between the lower rates, so its
// samples spread over the run and a stall of a few seconds touches only
// part of them. It never follows a rate near saturation, whose backlog
// would delay its first requests.
struct Segment {
  int rate;
  double share;
};
constexpr Segment kSegments[] = {{0, 0.1},   {1, 0.1},   {0, 0.1},
                                 {2, 0.1},   {0, 0.1},   {3, 0.125},
                                 {4, 0.125}, {5, 0.125}, {6, 0.125}};
// A request still unsent this long after its segment ended is dropped.
constexpr int64_t kDropGraceUs = 50'000;

// The writer appends a seeded batch of kBatchMin..kBatchMax rows to one
// partition of the ingest table and seals it every kSealIntervalMs.
constexpr int kSealIntervalMs = 20;
constexpr int kBatchMin = 100;
constexpr int kBatchMax = 400;
constexpr int kPreloadRows = 50000;

// --- statements ----------------------------------------------------------------

LogicalPlan TpchQ6Shape(const morsel::TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  li.Filter(morsel::And(
      morsel::Ge(li.Col("l_shipdate"), ConstDate("1994-01-01")),
      morsel::Lt(li.Col("l_shipdate"), ConstDate("1995-01-01")),
      morsel::Ge(li.Col("l_discount"), ConstF64(0.05)),
      morsel::Le(li.Col("l_discount"), ConstF64(0.07)),
      morsel::Lt(li.Col("l_quantity"), ConstF64(24.0))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  morsel::Mul(li.Col("l_extendedprice"), li.Col("l_discount")),
                  "revenue"});
  li.GroupBy({}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan TpchQ1Shape(const morsel::TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(), {"l_returnflag", "l_linestatus", "l_quantity",
                          "l_extendedprice", "l_shipdate"});
  li.Filter(morsel::Le(li.Col("l_shipdate"), ConstDate("1998-09-02")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggFunc::kSum, li.Col("l_extendedprice"), "sum_price"});
  aggs.push_back({AggFunc::kCount, nullptr, "count_order"});
  li.GroupBy({"l_returnflag", "l_linestatus"}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan TpchOrdersTop(const morsel::TpchData& db) {
  PlanBuilder o = PlanBuilder::Scan(
      db.orders.get(), {"o_orderkey", "o_orderdate", "o_totalprice"});
  o.Filter(morsel::And(
      morsel::Ge(o.Col("o_orderdate"), ConstDate("1995-01-01")),
      morsel::Lt(o.Col("o_orderdate"), ConstDate("1996-01-01"))));
  o.OrderBy({{"o_totalprice", false}, {"o_orderkey", true}}, 10);
  return o.Build();
}

LogicalPlan SsbQ11Shape(const morsel::SsbData& db) {
  PlanBuilder d =
      PlanBuilder::Scan(db.date_dim.get(), {"d_datekey", "d_year"});
  d.Filter(morsel::Eq(d.Col("d_year"), ConstI64(1993)));
  PlanBuilder lo = PlanBuilder::Scan(
      db.lineorder.get(), {"lo_orderdate", "lo_discount", "lo_quantity",
                           "lo_extendedprice", "lo_revenue"});
  lo.Filter(morsel::And(morsel::Ge(lo.Col("lo_discount"), ConstI64(1)),
                        morsel::Le(lo.Col("lo_discount"), ConstI64(3)),
                        morsel::Lt(lo.Col("lo_quantity"), ConstI64(25))));
  lo.Join(std::move(d), {"lo_orderdate"}, {"d_datekey"}, {},
          morsel::JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, lo.Col("lo_revenue"), "revenue"});
  lo.GroupBy({}, std::move(aggs));
  lo.CollectResult();
  return lo.Build();
}

LogicalPlan SsbGroupShape(const morsel::SsbData& db) {
  PlanBuilder lo = PlanBuilder::Scan(
      db.lineorder.get(), {"lo_discount", "lo_quantity", "lo_revenue"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, lo.Col("lo_revenue"), "revenue"});
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  lo.GroupBy({"lo_discount"}, std::move(aggs));
  lo.CollectResult();
  return lo.Build();
}

// COUNT(*) over every row: ts is never negative, and the filter lets the
// zone maps accept whole morsels.
LogicalPlan IngestCount(const morsel::Table* ingest) {
  PlanBuilder t = PlanBuilder::Scan(ingest, {"ts", "v"});
  t.Filter(morsel::Ge(t.Col("ts"), ConstI64(0)));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, t.Col("v"), "sum_v"});
  t.GroupBy({}, std::move(aggs));
  t.CollectResult();
  return t.Build();
}

// --- data ------------------------------------------------------------------------

// Single writer of the ingest table. Appends seeded batches and seals
// them on a fixed interval; the two counters bracket what any scan can
// see: `sealed` rows were published before it was read, and no scan can
// see more than `announced` rows.
class IngestWriter {
 public:
  IngestWriter(morsel::Table* table, uint64_t seed)
      : table_(table), rng_(seed) {
    // Appends must continue the ts sequence across writers.
    for (int p = 0; p < table_->num_partitions(); ++p) {
      next_ts_ += static_cast<int64_t>(table_->PartitionRows(p));
    }
    sealed_.store(next_ts_);
    announced_.store(next_ts_);
  }
  ~IngestWriter() { Stop(); }

  IngestWriter(const IngestWriter&) = delete;
  IngestWriter& operator=(const IngestWriter&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  int64_t sealed() const { return sealed_.load(std::memory_order_acquire); }
  int64_t announced() const {
    return announced_.load(std::memory_order_acquire);
  }
  // Valid after Stop().
  const std::vector<double>& seal_ms() const { return seal_ms_; }
  int64_t rows_written() const { return rows_written_; }

  // Appends `rows` rows to partition `p` and seals it; returns seal ms.
  double AppendAndSeal(int p, int rows) {
    for (int i = 0; i < rows; ++i) {
      table_->Int64Col(p, 0)->Append(next_ts_++);
      table_->Int64Col(p, 1)->Append(rng_.Uniform(0, 999));
      table_->DoubleCol(p, 2)->Append(rng_.NextDouble() * 100.0);
    }
    announced_.fetch_add(rows, std::memory_order_acq_rel);
    morsel::WallTimer t;
    table_->SealPartition(p);
    const double ms = t.ElapsedSeconds() * 1000.0;
    sealed_.fetch_add(rows, std::memory_order_acq_rel);
    return ms;
  }

 private:
  void Loop() {
    auto next = std::chrono::steady_clock::now();
    for (int batch = 0; !stop_.load(); ++batch) {
      next += std::chrono::milliseconds(kSealIntervalMs);
      std::this_thread::sleep_until(next);
      const int rows = static_cast<int>(rng_.Uniform(kBatchMin, kBatchMax));
      seal_ms_.push_back(
          AppendAndSeal(batch % table_->num_partitions(), rows));
      rows_written_ += rows;
    }
  }

  morsel::Table* table_;
  morsel::Rng rng_;
  int64_t next_ts_ = 0;
  std::atomic<int64_t> sealed_{0};
  std::atomic<int64_t> announced_{0};
  std::atomic<bool> stop_{false};
  std::vector<double> seal_ms_;
  int64_t rows_written_ = 0;
  std::thread thread_;
};

std::unique_ptr<morsel::Table> MakeIngestTable() {
  morsel::Schema schema({{"ts", morsel::LogicalType::kInt64},
                         {"k", morsel::LogicalType::kInt64},
                         {"v", morsel::LogicalType::kDouble}});
  auto t = std::make_unique<morsel::Table>("ingest", schema,
                                           MachineTopology());
  // The preload is fixed; only the batches written during a run follow
  // the workload seed.
  IngestWriter preload(t.get(), 42);
  for (int p = 0; p < t->num_partitions(); ++p) {
    preload.AppendAndSeal(p, kPreloadRows / t->num_partitions());
  }
  return t;
}

struct Data {
  std::unique_ptr<morsel::TpchData> tpch;
  std::unique_ptr<morsel::SsbData> ssb;
  std::unique_ptr<morsel::Table> ingest;
};

std::vector<LogicalPlan> Statements(const Data& d) {
  return {TpchQ6Shape(*d.tpch),  TpchQ1Shape(*d.tpch),
          TpchOrdersTop(*d.tpch), SsbQ11Shape(*d.ssb),
          SsbGroupShape(*d.ssb), IngestCount(d.ingest.get())};
}

// An engine plus the server in front of it, statements registered.
struct Service {
  std::unique_ptr<morsel::Engine> engine;
  std::unique_ptr<morsel::server::Server> server;
};

std::unique_ptr<Service> StartService(const Data& d, bool trace) {
  auto svc = std::make_unique<Service>();
  morsel::EngineOptions opts;
  opts.num_workers = kWorkers;
  opts.record_trace = trace;
  svc->engine = std::make_unique<morsel::Engine>(MachineTopology(), opts);
  morsel::server::ServerOptions sopts;
  sopts.max_sessions = 16;
  sopts.admission.max_concurrent = 2;
  sopts.admission.max_queued = 64;
  sopts.admission.queue_timeout_ms = 10'000;
  svc->server =
      std::make_unique<morsel::server::Server>(svc->engine.get(), sopts);
  const std::vector<LogicalPlan> plans = Statements(d);
  for (size_t i = 0; i < plans.size(); ++i) {
    svc->server->RegisterStatement(ServeStatementNames()[i], plans[i]);
  }
  if (!svc->server->Start()) return nullptr;
  return svc;
}

// --- open loop -------------------------------------------------------------------

struct ConnResult {
  std::vector<Request> reqs;
  std::vector<double> prepare_us;
  std::vector<double> execute_us;
  std::vector<double> fetch_us;
  std::string error;
};

// Sends one request and fills its outcome.
void Issue(Client& c, const std::vector<uint32_t>& ids,
           const IngestWriter& writer, Request* q, ConnResult* out) {
  q->sealed_before = writer.sealed();
  Client::Executing e = c.Execute(ids[q->stmt]);
  q->executed_us = NowUs();
  if (!e.status.ok()) {
    q->done_us = q->executed_us;
    q->error = e.status.ToString();
    return;
  }
  Client::RowBatch b = c.Fetch(e.query_id);
  q->done_us = NowUs();
  q->announced_after = writer.announced();
  out->execute_us.push_back(static_cast<double>(q->executed_us - q->send_us));
  out->fetch_us.push_back(static_cast<double>(q->done_us - q->executed_us));
  if (!b.status.ok()) {
    q->error = b.status.ToString();
    return;
  }
  q->ok = true;
  q->fp = FingerprintOf(b);
}

ConnResult RunConnection(int port, const std::vector<Rung>& rungs,
                         uint64_t seed, int conn, const IngestWriter& writer) {
  ConnResult out;
  Client c;
  if (!c.Connect(port).ok()) {
    out.error = "connect failed";
    return out;
  }
  std::vector<uint32_t> ids;
  for (const std::string& name : ServeStatementNames()) {
    const int64_t t0 = NowUs();
    Client::Prepared p = c.Prepare(name);
    out.prepare_us.push_back(static_cast<double>(NowUs() - t0));
    if (!p.status.ok()) {
      out.error = "prepare " + name + ": " + p.status.ToString();
      return out;
    }
    ids.push_back(p.stmt_id);
  }
  out.reqs = Schedule(rungs, static_cast<int>(ids.size()), kConnections,
                      seed, conn);
  // A dropped request counts against its rung's latency limit, not as
  // an execution.
  DriveOpenLoop(&out.reqs, rungs, kDropGraceUs,
                [&](Request* q) { Issue(c, ids, writer, q, &out); });
  c.Close();
  return out;
}

struct RungStats {
  std::vector<double> lat_ms;
  std::vector<std::pair<int64_t, double>> lag_by_due;  // (due, lag ms)
  std::vector<std::vector<double>> stmt_ms;
  int64_t due = 0;
  int64_t completed = 0;
  int64_t missed = 0;   // dropped or failed
  int64_t dropped = 0;  // never sent
  Tail tail;
  double tail_with_missed_ms = 0;
  bool backlog = false;
  bool meets_limit = false;
};

struct PhaseResult {
  std::vector<RungStats> rungs;
  std::vector<ConnResult> conns;
  std::vector<double> seal_ms;
  int64_t rows_sealed = 0;
  int64_t completed = 0;
  double measured_s = 0;
  std::vector<Execution> execs;  // send to FETCH done
};

// One measured phase: writer plus kConnections open-loop clients over
// the rate ladder. Answers are checked after the clients joined.
PhaseResult RunPhase(Service& svc, Data& d, uint64_t seed, double seconds,
                     FingerprintBook* book, Report* report) {
  PhaseResult res;
  IngestWriter writer(d.ingest.get(), seed);
  // Warm-up: every statement twice on one connection.
  {
    Client c;
    if (c.Connect(svc.server->port()).ok()) {
      for (int rep = 0; rep < 2; ++rep) {
        for (const std::string& name : ServeStatementNames()) {
          Client::Prepared p = c.Prepare(name);
          if (!p.status.ok()) continue;
          Client::Executing e = c.Execute(p.stmt_id);
          if (e.status.ok()) c.Fetch(e.query_id);
        }
      }
      c.Close();
    }
  }
  // Segments start after the connections had time to prepare.
  std::vector<Rung> rungs;
  int64_t t = NowUs() + 200'000;
  for (const Segment& seg : kSegments) {
    Rung r;
    r.start_us = t;
    t += static_cast<int64_t>(seg.share * seconds * 1e6);
    r.end_us = t;
    r.qps = kRateQps[seg.rate];
    rungs.push_back(r);
  }
  writer.Start();
  std::vector<ConnResult> conns(kConnections);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        conns[c] = RunConnection(svc.server->port(), rungs, seed, c, writer);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  writer.Stop();
  res.seal_ms = writer.seal_ms();
  res.rows_sealed = writer.rows_written();

  res.rungs.resize(kRates);
  int64_t last_done = rungs.back().end_us;
  for (RungStats& rs : res.rungs) {
    rs.stmt_ms.resize(ServeStatementNames().size());
  }
  for (ConnResult& cr : conns) {
    if (!cr.error.empty()) report->Attempt(false, "connection: " + cr.error);
    for (Request& q : cr.reqs) {
      RungStats& rs = res.rungs[kSegments[q.rung].rate];
      ++rs.due;
      if (!q.sent) {
        ++rs.missed;
        ++rs.dropped;
        continue;
      }
      const std::string key = "serve." + ServeStatementNames()[q.stmt];
      if (!q.ok) {
        ++rs.missed;
        report->Attempt(false, key + ": " + q.error);
        continue;
      }
      if (q.stmt == kIngestStmt) {
        const int64_t n = q.fp.rows == 1 && !q.fp.cols.empty()
                              ? static_cast<int64_t>(q.fp.cols[0].exact)
                              : -1;
        report->Attempt(n >= q.sealed_before && n <= q.announced_after,
                        key + ": count " + std::to_string(n) + " outside [" +
                            std::to_string(q.sealed_before) + ", " +
                            std::to_string(q.announced_after) + "]");
      } else {
        CheckAnswer(book, key, q.fp, report);
      }
      ++rs.completed;
      ++res.completed;
      rs.lat_ms.push_back(q.latency_ms());
      rs.lag_by_due.emplace_back(q.due_us, q.lag_ms());
      rs.stmt_ms[q.stmt].push_back(q.latency_ms());
      last_done = std::max(last_done, q.done_us);
      res.execs.push_back({key, q.send_us, q.done_us});
    }
  }
  for (RungStats& rs : res.rungs) {
    rs.tail = TailOf(rs.lat_ms);
    // Missed requests count as beyond any limit.
    std::vector<double> with_missed = rs.lat_ms;
    with_missed.insert(with_missed.end(), static_cast<size_t>(rs.missed),
                       1e12);
    rs.tail_with_missed_ms = Quantile(with_missed, rs.tail.percentile / 100);
    // A growing backlog: over 1% of the requests were dropped, or the
    // median send lag over the last fifth of the rung exceeds the limit.
    std::sort(rs.lag_by_due.begin(), rs.lag_by_due.end());
    std::vector<double> late_lag;
    for (size_t i = rs.lag_by_due.size() * 4 / 5; i < rs.lag_by_due.size();
         ++i) {
      late_lag.push_back(rs.lag_by_due[i].second);
    }
    rs.backlog = rs.dropped * 100 > rs.due || Median(late_lag) > kTailLimitMs;
    rs.meets_limit = rs.completed > 0 && !rs.backlog &&
                     rs.tail_with_missed_ms <= kTailLimitMs;
  }
  res.measured_s = (last_done - rungs.front().start_us) / 1e6;
  res.conns = std::move(conns);
  return res;
}

// max_rate_qps: the rate at which the tail reaches the limit. Take the
// highest rate that meets the limit with every rate below it, and the
// next rate, which does not; interpolate between them log-log on the
// tail latency of their completed requests. The answer moves smoothly
// with the server's capacity instead of jumping a whole step when a
// slower or faster host moves the crossing past a rate. The highest
// rate itself if every rate meets the limit; 0 if the lowest fails.
double MaxRate(const std::vector<RungStats>& rates) {
  int k = -1;
  while (k + 1 < kRates && rates[k + 1].meets_limit) ++k;
  if (k < 0) return 0;
  if (k + 1 == kRates) return kRateQps[k];
  const double lo = rates[k].tail.value;
  const double hi = rates[k + 1].tail.value;
  const double frac =
      hi > lo ? std::clamp(std::log(kTailLimitMs / lo) / std::log(hi / lo),
                           0.0, 1.0)
              : 1.0;
  return kRateQps[k] * std::pow(kRateQps[k + 1] / kRateQps[k], frac);
}

std::vector<double> Concat(const std::vector<ConnResult>& conns,
                           std::vector<double> ConnResult::*field) {
  std::vector<double> out;
  for (const ConnResult& c : conns) {
    out.insert(out.end(), (c.*field).begin(), (c.*field).end());
  }
  return out;
}

}  // namespace

void RunServeIngest(const Args& args, FingerprintBook* book, Report* report) {
  const size_t baseline = morsel::NumaAllocatedBytes();
  {
    std::vector<double> setup;
    std::vector<double> load;
    struct Setup {
      Data data;
      std::unique_ptr<Service> svc;
    };
    std::unique_ptr<Setup> st = TimedSetups(
        [&] {
          auto s = std::make_unique<Setup>();
          morsel::WallTimer t;
          s->data.tpch = std::make_unique<morsel::TpchData>(
              morsel::GenerateTpch(kTpchSf, MachineTopology()));
          s->data.ssb = std::make_unique<morsel::SsbData>(
              morsel::GenerateSsb(kSsbSf, MachineTopology()));
          s->data.ingest = MakeIngestTable();
          load.push_back(t.ElapsedSeconds());
          s->svc = StartService(s->data, false);
          return s;
        },
        &setup);
    if (st->svc == nullptr) {
      report->Attempt(false, "server failed to start");
      return;
    }
    SetupMetrics(setup, load, report);
    report->Context("scale_factor", "{\"tpch\": 0.01, \"ssb\": 0.02}");
    report->Context("connections", std::to_string(kConnections));
    report->Context(
        "rows",
        "{\"lineitem\": " + std::to_string(st->data.tpch->lineitem->NumRows()) +
            ", \"lineorder\": " +
            std::to_string(st->data.ssb->lineorder->NumRows()) +
            ", \"ingest_preload\": " + std::to_string(kPreloadRows) + "}");
    std::string ladder;
    for (int r = 0; r < kRates; ++r) {
      ladder += (r ? ", " : "") + std::to_string(static_cast<int>(kRateQps[r]));
    }
    report->Context("rate_ladder_qps", "[" + ladder + "]");
    report->Context("tail_limit_ms", std::to_string(kTailLimitMs));
    if (args.record) {
      const std::vector<LogicalPlan> plans = Statements(st->data);
      std::vector<std::string> keys;
      for (int i = 0; i < kIngestStmt; ++i) {
        keys.push_back("serve." + ServeStatementNames()[i]);
      }
      RecordAnswers(
          keys,
          [&](morsel::Engine& e, int i) {
            return e.CreateQuery(plans[i])->Execute();
          },
          book, report);
    }

    const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
    PhaseResult plain =
        RunPhase(*st->svc, st->data, args.seed, untraced_s, book, report);
    st->svc.reset();

    auto fill_latency = [&](const PhaseResult& ph, bool e2e_metrics) {
      const RungStats& mid = ph.rungs[kLatencyRate];
      for (int r = 0; r < kRates; ++r) {
        const RungStats& rs = ph.rungs[r];
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "rate %d: %.0f/s offered, %lld due, %lld completed, "
                      "%lld missed, p%g=%.3fms (limit %.0fms)%s%s",
                      r, kRateQps[r], static_cast<long long>(rs.due),
                      static_cast<long long>(rs.completed),
                      static_cast<long long>(rs.missed), rs.tail.percentile,
                      rs.tail.value, kTailLimitMs,
                      rs.backlog ? ", backlog grows" : "",
                      rs.meets_limit ? ", meets limit" : "");
        report->Note(buf);
      }
      if (!e2e_metrics) return;
      std::vector<double> medians;
      double pass_s = 0;
      for (const auto& xs : mid.stmt_ms) {
        medians.push_back(Median(xs));
        pass_s += Median(xs) / 1000.0;
      }
      report->Set("latency_p50_ms", Median(mid.lat_ms));
      report->Set("latency_tail_ms", mid.tail.value);
      report->Context("latency_tail_percentile",
                      std::to_string(mid.tail.percentile));
      report->Context("latency_samples", std::to_string(mid.tail.samples));
      report->Set("geomean_ms", GeoMean(medians));
      report->Set("power_s", pass_s);
      report->Set("throughput_qps", ph.completed / ph.measured_s);
      report->Set("max_rate_qps", MaxRate(ph.rungs));
    };
    fill_latency(plain, true);

    if (args.trace) {
      std::unique_ptr<Service> svc = StartService(st->data, true);
      if (svc == nullptr) {
        report->Attempt(false, "traced server failed to start");
        return;
      }
      TraceCursor cursor(svc->engine->trace());
      const int64_t compact0 = morsel::Chunk::CompactCalls();
      PhaseResult traced = RunPhase(*svc, st->data, args.seed + 7777,
                                    args.seconds - untraced_s, book, report);
      fill_latency(traced, false);
      const double passes =
          static_cast<double>(traced.completed) / ServeStatementNames().size();
      TracedPhaseMetrics(cursor.TakeNew(), traced.execs,
                         svc->engine->stats()->Aggregate(), passes,
                         morsel::Chunk::CompactCalls() - compact0, report);

      report->Set("storage.seal_ms_p50", Median(traced.seal_ms));
      report->Set("storage.seal_ms_max",
                  traced.seal_ms.empty()
                      ? 0
                      : *std::max_element(traced.seal_ms.begin(),
                                          traced.seal_ms.end()));
      report->Set("storage.rows_sealed",
                  static_cast<double>(traced.rows_sealed));

      const auto prep = Concat(traced.conns, &ConnResult::prepare_us);
      const auto exec = Concat(traced.conns, &ConnResult::execute_us);
      const auto fetch = Concat(traced.conns, &ConnResult::fetch_us);
      report->Set("server.prepare_us_p50", Median(prep));
      report->Set("server.execute_us_p50", Median(exec));
      report->Set("server.execute_us_p99", Quantile(exec, 0.99));
      report->Set("server.fetch_us_p50", Median(fetch));
      report->Set("server.fetch_us_p99", Quantile(fetch, 0.99));
      const auto adm = svc->server->admission().stats();
      report->Set("server.admission_queued_frac",
                  adm.admitted ? static_cast<double>(adm.queued) / adm.admitted
                               : 0);
      const auto cache = svc->server->cache().stats();
      report->Set("server.stmt_cache_hit_rate",
                  cache.hits + cache.misses
                      ? static_cast<double>(cache.hits) /
                            (cache.hits + cache.misses)
                      : 0);
      report->Set("server.protocol_errors",
                  static_cast<double>(svc->server->stats().protocol_errors));
      const RungStats& mid = traced.rungs[kLatencyRate];
      std::vector<double> lag;
      for (const auto& [due, ms] : mid.lag_by_due) lag.push_back(ms);
      report->Set("server.sched_lag_ms_p99", Quantile(lag, 0.99));
      for (size_t i = 0; i < ServeStatementNames().size(); ++i) {
        report->Set("server." + ServeStatementNames()[i] + "_ms",
                    Median(mid.stmt_ms[i]));
      }
      report->Set("trace.overhead_frac",
                  OverheadFrac(Median(mid.lat_ms),
                               Median(plain.rungs[kLatencyRate].lat_ms)));

      // Planning and lowering, timed directly on the service's engine.
      std::vector<double> build_us;
      std::vector<double> lower_us;
      for (int rep = 0; rep < 20; ++rep) {
        const int64_t t0 = NowUs();
        const std::vector<LogicalPlan> plans = Statements(st->data);
        build_us.push_back(static_cast<double>(NowUs() - t0) / plans.size());
        for (const LogicalPlan& p : plans) {
          morsel::PreparedQuery pq = svc->engine->Prepare(p);
          const int64_t t1 = NowUs();
          std::unique_ptr<morsel::Query> q = pq.MakeQuery();
          lower_us.push_back(static_cast<double>(NowUs() - t1));
        }
      }
      report->Set("engine.plan_build_us_p50", Median(build_us));
      report->Set("engine.lower_us_p50", Median(lower_us));
      svc->server->Stop();
    }
  }
  FinishRun(baseline, report);
}

}  // namespace e2e
