// Scheduler-core integration tests: dispatcher, worker pool, QEP
// dependency state machine, elasticity, priorities, cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/dispatcher.h"
#include "core/qep.h"
#include "core/worker_pool.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {
namespace {

// A pipeline job that counts processed rows and optionally burns time.
class CountingJob : public PipelineJob {
 public:
  CountingJob(QueryContext* query, std::string name, uint64_t rows,
              const Topology& topo, int spin_us = 0,
              uint64_t morsel_size = 1000)
      : PipelineJob(query, std::move(name)),
        rows_(rows),
        spin_us_(spin_us),
        morsel_size_(morsel_size),
        topo_(topo) {}

  void Prepare(const Topology& topo) override {
    std::vector<MorselRange> ranges;
    uint64_t per = rows_ / topo.num_sockets();
    for (int s = 0; s < topo.num_sockets(); ++s) {
      uint64_t hi = s == topo.num_sockets() - 1 ? rows_ : (s + 1) * per;
      ranges.push_back(MorselRange{s, s * per, hi, s});
    }
    MorselQueue::Options o;
    o.morsel_size = morsel_size_;
    set_queue(std::make_unique<MorselQueue>(topo, std::move(ranges), o));
    prepared.fetch_add(1);
  }

  void RunMorsel(const Morsel& m, WorkerContext& ctx) override {
    processed.fetch_add(m.size());
    max_active.store(
        std::max(max_active.load(),
                 query()->active_workers().load(std::memory_order_relaxed)));
    if (spin_us_ > 0) {
      auto end = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(spin_us_);
      while (std::chrono::steady_clock::now() < end) {
      }
    }
    (void)ctx;
  }

  void Finalize(WorkerContext&) override { finalized.fetch_add(1); }

  std::atomic<uint64_t> processed{0};
  std::atomic<int> prepared{0};
  std::atomic<int> finalized{0};
  std::atomic<int> max_active{0};

 private:
  uint64_t rows_;
  int spin_us_;
  uint64_t morsel_size_;
  const Topology& topo_;
};

struct Harness {
  Topology topo{2, 2, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats{5};
  Dispatcher dispatcher{topo};
  WorkerPool pool{topo, &dispatcher, &stats, nullptr,
                  WorkerPool::Options{4, false}};
};

TEST(Scheduler, SingleJobProcessesAllRows) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep(&query, &h.dispatcher);
  auto job = std::make_unique<CountingJob>(&query, "count", 100000, h.topo);
  CountingJob* raw = job.get();
  qep.AddPipeline(std::move(job), {});
  qep.Start(h.pool.external_context());
  query.Wait();
  EXPECT_EQ(raw->processed.load(), 100000u);
  EXPECT_EQ(raw->prepared.load(), 1);
  EXPECT_EQ(raw->finalized.load(), 1);
}

TEST(Scheduler, DependenciesRunInOrder) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep(&query, &h.dispatcher);

  std::atomic<int> sequence{0};
  // B must observe A fully processed; C both.
  auto a = std::make_unique<CountingJob>(&query, "A", 10000, h.topo);
  auto b = std::make_unique<CountingJob>(&query, "B", 10000, h.topo);
  auto c = std::make_unique<CountingJob>(&query, "C", 10000, h.topo);
  CountingJob* ra = a.get();
  CountingJob* rb = b.get();
  CountingJob* rc = c.get();
  (void)sequence;
  int ia = qep.AddPipeline(std::move(a), {});
  int ib = qep.AddPipeline(std::move(b), {ia});
  qep.AddPipeline(std::move(c), {ia, ib});
  qep.Start(h.pool.external_context());
  query.Wait();
  EXPECT_EQ(ra->processed.load(), 10000u);
  EXPECT_EQ(rb->processed.load(), 10000u);
  EXPECT_EQ(rc->processed.load(), 10000u);
}

TEST(Scheduler, SerializedRootsRunOneAtATime) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep(&query, &h.dispatcher, /*serialize_roots=*/true);
  // With serialized roots, root 1 must not start before root 0 ends;
  // CountingJob::Prepare is only called at submission.
  auto a = std::make_unique<CountingJob>(&query, "A", 50000, h.topo, 5);
  auto b = std::make_unique<CountingJob>(&query, "B", 50000, h.topo, 5);
  CountingJob* ra = a.get();
  CountingJob* rb = b.get();
  qep.AddPipeline(std::move(a), {});
  qep.AddPipeline(std::move(b), {});
  qep.Start(h.pool.external_context());
  // Start prepares exactly the first root; the second may only have been
  // prepared if the first already ran to completion (serialization — on
  // slow runs, e.g. under sanitizers, A can finish arbitrarily fast).
  EXPECT_EQ(ra->prepared.load(), 1);
  if (rb->prepared.load() != 0) {
    EXPECT_EQ(ra->processed.load(), 50000u);
  }
  query.Wait();
  EXPECT_EQ(ra->processed.load(), 50000u);
  EXPECT_EQ(rb->processed.load(), 50000u);
}

TEST(Scheduler, EmptyPipelineCompletes) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep(&query, &h.dispatcher);
  auto job = std::make_unique<CountingJob>(&query, "empty", 0, h.topo);
  CountingJob* raw = job.get();
  qep.AddPipeline(std::move(job), {});
  qep.Start(h.pool.external_context());
  query.Wait();
  EXPECT_EQ(raw->processed.load(), 0u);
  EXPECT_EQ(raw->finalized.load(), 1);
}

TEST(Scheduler, ElasticWorkerCapRespected) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  query.set_max_workers(1);
  QepObject qep(&query, &h.dispatcher);
  auto job = std::make_unique<CountingJob>(&query, "capped", 20000, h.topo,
                                           /*spin_us=*/50);
  CountingJob* raw = job.get();
  qep.AddPipeline(std::move(job), {});
  qep.Start(h.pool.external_context());
  query.Wait();
  EXPECT_EQ(raw->processed.load(), 20000u);
  EXPECT_LE(raw->max_active.load(), 1);
}

TEST(Scheduler, ElasticWorkerCapRespectedUnderShortMorsels) {
  // Thousands of empty 10-row morsels keep all four workers inside
  // GetTask at once, so a gap between the cap check and the
  // active-worker count would let two workers through a cap of 1 (or
  // three through 2). Repeated: the window is a few instructions wide.
  for (int cap : {1, 2}) {
    for (int rep = 0; rep < 25; ++rep) {
      Harness h;
      QueryContext query(0);
      query.set_num_worker_slots(h.pool.num_worker_slots());
      query.set_max_workers(cap);
      // Two unserialized roots: a worker whose reservation on one
      // drained job is refused must still be woken for the other.
      QepObject qep(&query, &h.dispatcher, /*serialize_roots=*/false);
      std::vector<CountingJob*> raw;
      for (const char* name : {"capped-a", "capped-b"}) {
        auto job = std::make_unique<CountingJob>(&query, name, 50000, h.topo,
                                                 /*spin_us=*/0,
                                                 /*morsel_size=*/10);
        raw.push_back(job.get());
        qep.AddPipeline(std::move(job), {});
      }
      qep.Start(h.pool.external_context());
      query.Wait();
      for (CountingJob* j : raw) {
        ASSERT_EQ(j->processed.load(), 50000u);
        ASSERT_LE(j->max_active.load(), cap) << "cap " << cap << " rep "
                                             << rep;
      }
    }
  }
}

TEST(Scheduler, CancellationStopsAtMorselBoundary) {
  Harness h;
  QueryContext query(0);
  query.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep(&query, &h.dispatcher);
  // Long job: 1M rows, 200us per 1000-row morsel => ~200ms serial.
  auto job = std::make_unique<CountingJob>(&query, "long", 1000000, h.topo,
                                           /*spin_us=*/200);
  CountingJob* raw = job.get();
  qep.AddPipeline(std::move(job), {});
  qep.Start(h.pool.external_context());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  h.dispatcher.CancelQuery(&query, h.pool.external_context());
  query.Wait();
  // Far from everything processed, but what ran is consistent.
  EXPECT_LT(raw->processed.load(), 1000000u);
  EXPECT_EQ(query.error(), "query cancelled");
  EXPECT_EQ(raw->finalized.load(), 0);  // cancelled jobs skip Finalize
}

TEST(Scheduler, FairShareAcrossQueries) {
  Harness h;
  // Two concurrent queries; with equal priority both complete and both
  // get workers (morsels interleave).
  QueryContext q1(1), q2(2);
  q1.set_num_worker_slots(h.pool.num_worker_slots());
  q2.set_num_worker_slots(h.pool.num_worker_slots());
  QepObject qep1(&q1, &h.dispatcher);
  QepObject qep2(&q2, &h.dispatcher);
  auto j1 = std::make_unique<CountingJob>(&q1, "q1", 200000, h.topo, 20);
  auto j2 = std::make_unique<CountingJob>(&q2, "q2", 200000, h.topo, 20);
  CountingJob* r1 = j1.get();
  CountingJob* r2 = j2.get();
  qep1.AddPipeline(std::move(j1), {});
  qep2.AddPipeline(std::move(j2), {});
  qep1.Start(h.pool.external_context());
  qep2.Start(h.pool.external_context());
  q1.Wait();
  q2.Wait();
  EXPECT_EQ(r1->processed.load(), 200000u);
  EXPECT_EQ(r2->processed.load(), 200000u);
  // Both queries ran morsels (dispatcher did not starve either).
  EXPECT_GT(q1.morsels_run.load(), 0u);
  EXPECT_GT(q2.morsels_run.load(), 0u);
}

TEST(Scheduler, TraceRecordsMorsels) {
  Topology topo(2, 2, InterconnectKind::kFullyConnected);
  MemStatsRegistry stats(5);
  TraceRecorder trace(5);
  Dispatcher dispatcher(topo);
  WorkerPool pool(topo, &dispatcher, &stats, &trace,
                  WorkerPool::Options{4, false});
  QueryContext query(7);
  query.set_num_worker_slots(pool.num_worker_slots());
  QepObject qep(&query, &dispatcher);
  qep.AddPipeline(
      std::make_unique<CountingJob>(&query, "traced", 10000, topo), {});
  qep.Start(pool.external_context());
  query.Wait();
  std::vector<TraceEvent> events = trace.Sorted();
  ASSERT_GE(events.size(), 10u);  // 10000 rows / 1000 morsel size
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.query, 7);
    EXPECT_LE(e.start_us, e.end_us);
  }
  EXPECT_EQ(pool.TotalMorselsRun(), events.size());
}

}  // namespace
}  // namespace morsel
