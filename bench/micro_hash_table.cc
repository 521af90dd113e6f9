// Supporting micro benchmarks for §4.2: the lock-free tagged hash table.
//
//  - insert throughput, single- and multi-threaded (CAS scalability)
//  - probe cost with and without pointer tags at varying selectivity
//    (tags should make misses ~free)
//  - ablation: two-phase perfectly-sized build vs a dynamically grown
//    chaining table (the design §4.1 argues against)
//  - probe-pipeline throughput of the full HashProbeOp, staged batched+
//    prefetched (DESIGN.md §5), on a build side that far exceeds LLC
//    size
//  - sel-aware probe (DESIGN.md §10/§15): chunks arriving with a sparse
//    selection (~6% of rows survive an upstream filter), probed in
//    place through the selection
//  - large join build (DESIGN.md §17): TPC-H Q21's l2 build side, 6M
//    rows x 2 int64, materialized, sized and inserted as the engine
//    does, in ns per build row — the path breaker memory on 2 MiB pages
//    and the first-touch-zeroed table speed up

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/tagged_hash_table.h"
#include "exec/tuple.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {
namespace {

constexpr int64_t kBuildSize = 1 << 18;  // 256k tuples

struct BuildSide {
  TupleLayout layout;
  RowBuffer rows;
  BuildSide()
      : layout({LogicalType::kInt64}, false), rows(&layout, 0) {
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = rows.AppendRow();
      TupleLayout::SetNext(r, nullptr);
      TupleLayout::SetHash(r, Hash64(static_cast<uint64_t>(i)));
      layout.SetI64(r, 0, i);
    }
  }
};

BuildSide& SharedBuild() {
  static BuildSide* b = new BuildSide();
  return *b;
}

void BM_InsertSingleThread(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  for (auto _ : state) {
    TaggedHashTable ht(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = b.rows.row(i);
      ht.Insert(r, TupleLayout::GetHash(r));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_InsertSingleThread)->Unit(benchmark::kMillisecond);

void BM_InsertParallel(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TaggedHashTable ht(kBuildSize);
    std::vector<std::thread> ts;
    int64_t per = kBuildSize / threads;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        int64_t begin = t * per;
        int64_t end = t == threads - 1 ? kBuildSize : begin + per;
        for (int64_t i = begin; i < end; ++i) {
          uint8_t* r = b.rows.row(i);
          ht.Insert(r, TupleLayout::GetHash(r));
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_InsertParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Probe with a given hit rate; tags should short-circuit the misses.
void ProbeBench(benchmark::State& state, bool use_tagging) {
  BuildSide& b = SharedBuild();
  static TaggedHashTable* ht = [] {
    BuildSide& bs = SharedBuild();
    auto* t = new TaggedHashTable(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = bs.rows.row(i);
      t->Insert(r, TupleLayout::GetHash(r));
    }
    return t;
  }();
  double hit_rate = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(7);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 1 << 16; ++i) {
    int64_t key = rng.Bernoulli(hit_rate)
                      ? rng.Uniform(0, kBuildSize - 1)
                      : kBuildSize + rng.Uniform(0, 1 << 20);
    probes.push_back(Hash64(static_cast<uint64_t>(key)));
  }
  int64_t found = 0;
  for (auto _ : state) {
    for (uint64_t h : probes) {
      uint8_t* t = ht->LookupHead(h, use_tagging);
      while (t != nullptr) {
        if (TupleLayout::GetHash(t) == h) {
          ++found;
          break;
        }
        t = TupleLayout::GetNext(t);
      }
    }
  }
  benchmark::DoNotOptimize(found);
  benchmark::DoNotOptimize(b);
  state.SetItemsProcessed(state.iterations() * probes.size());
}
void BM_ProbeTagged(benchmark::State& state) { ProbeBench(state, true); }
void BM_ProbeUntagged(benchmark::State& state) { ProbeBench(state, false); }
BENCHMARK(BM_ProbeTagged)->Arg(100)->Arg(50)->Arg(10)->Arg(1);
BENCHMARK(BM_ProbeUntagged)->Arg(100)->Arg(50)->Arg(10)->Arg(1);

// Ablation: the §4.2 alternative — a separate Bloom filter in front of an
// untagged table. "A Bloom filter is an additional data structure that
// incurs multiple reads ... the Bloom filter size must be proportional to
// the hash table size to be effective." The tag rides in the pointer word
// instead and costs nothing extra.
class BloomFilter {
 public:
  explicit BloomFilter(uint64_t n) {
    uint64_t want = n * 16;  // ~16 bits/key
    bits_ = 1024;
    while (bits_ < want) bits_ <<= 1;
    words_.assign(bits_ / 64, 0);
  }
  void Add(uint64_t h) {
    words_[(h >> 6) & (words_.size() - 1)] |= 1ull << (h & 63);
    uint64_t h2 = h * 0x9e3779b97f4a7c15ULL;
    words_[(h2 >> 6) & (words_.size() - 1)] |= 1ull << (h2 & 63);
  }
  bool MayContain(uint64_t h) const {
    if (!(words_[(h >> 6) & (words_.size() - 1)] & (1ull << (h & 63)))) {
      return false;
    }
    uint64_t h2 = h * 0x9e3779b97f4a7c15ULL;
    return words_[(h2 >> 6) & (words_.size() - 1)] & (1ull << (h2 & 63));
  }

 private:
  uint64_t bits_;
  std::vector<uint64_t> words_;
};

void BM_ProbeBloomFiltered(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  static TaggedHashTable* ht = nullptr;
  static BloomFilter* bloom = nullptr;
  if (ht == nullptr) {
    ht = new TaggedHashTable(kBuildSize);
    bloom = new BloomFilter(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = b.rows.row(i);
      ht->Insert(r, TupleLayout::GetHash(r));
      bloom->Add(TupleLayout::GetHash(r));
    }
  }
  double hit_rate = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(7);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 1 << 16; ++i) {
    int64_t key = rng.Bernoulli(hit_rate)
                      ? rng.Uniform(0, kBuildSize - 1)
                      : kBuildSize + rng.Uniform(0, 1 << 20);
    probes.push_back(Hash64(static_cast<uint64_t>(key)));
  }
  int64_t found = 0;
  for (auto _ : state) {
    for (uint64_t h : probes) {
      if (!bloom->MayContain(h)) continue;  // extra structure, extra reads
      uint8_t* t = ht->LookupHead(h, /*use_tagging=*/false);
      while (t != nullptr) {
        if (TupleLayout::GetHash(t) == h) {
          ++found;
          break;
        }
        t = TupleLayout::GetNext(t);
      }
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * probes.size());
}
BENCHMARK(BM_ProbeBloomFiltered)->Arg(100)->Arg(50)->Arg(10)->Arg(1);

// --- probe-pipeline throughput -----------------------------------------------
//
// Exercises the real HashProbeOp (key compare, candidate flush, payload
// gather, traffic accounting) against a build side far larger than any
// LLC, so every chain step is a memory access.

constexpr int64_t kBigBuild = 1 << 23;  // 8M tuples, ~384 MB + 128 MB table

struct ProbePipelineFixture {
  Topology topo{1, 1, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats{1};
  WorkerContext wctx;
  JoinState state{{LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kInner, 1};
  std::vector<int64_t> probe_keys;

  ProbePipelineFixture() {
    wctx.topo = &topo;
    wctx.traffic = stats.worker(0);
    ExecContext ctx;
    ctx.worker = &wctx;

    HashBuildSink sink(&state);
    std::vector<int64_t> keys(kChunkCapacity), vals(kChunkCapacity);
    for (int64_t base = 0; base < kBigBuild; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, kBigBuild - base));
      for (int i = 0; i < chunk.n; ++i) {
        keys[i] = base + i;
        vals[i] = (base + i) * 3;
      }
      chunk.cols = {Vector{LogicalType::kInt64, keys.data()},
                    Vector{LogicalType::kInt64, vals.data()}};
      sink.Consume(chunk, ctx);
    }
    sink.Finalize(ctx);
    RowBuffer* buf = state.buffer_by_index(0);
    for (int64_t i = 0; i < kBigBuild; ++i) {
      uint8_t* r = buf->row(i);
      state.table()->Insert(r, TupleLayout::GetHash(r));
    }

    // Probe keys shuffled across the whole key space at 50% hit rate:
    // cache-hostile, half the probes survive the tag filter.
    Rng rng(42);
    probe_keys.resize(1 << 18);
    for (auto& k : probe_keys) {
      k = rng.Bernoulli(0.5) ? rng.Uniform(0, kBigBuild - 1)
                             : kBigBuild + rng.Uniform(0, 1 << 24);
    }
  }
};

ProbePipelineFixture& SharedProbeFixture() {
  static ProbePipelineFixture* f = new ProbePipelineFixture();
  return *f;
}

struct CountRowsSink : Sink {
  int64_t rows = 0;
  void Consume(Chunk& c, ExecContext&) override { rows += c.n; }
};

void BM_ProbePipelineBatched(benchmark::State& state) {
  ProbePipelineFixture& f = SharedProbeFixture();
  ExecContext ctx;
  ctx.worker = &f.wctx;

  CountRowsSink sink;
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<HashProbeOp>(
      &f.state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
  Pipeline pipe(nullptr, std::move(ops), &sink);

  const int64_t n = static_cast<int64_t>(f.probe_keys.size());
  for (auto _ : state) {
    for (int64_t base = 0; base < n; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, n - base));
      chunk.cols = {Vector{LogicalType::kInt64, f.probe_keys.data() + base}};
      pipe.Push(chunk, 0, ctx);
      ctx.arena.Reset();  // morsel boundary
    }
  }
  benchmark::DoNotOptimize(sink.rows);
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_ProbePipelineBatched)->Unit(benchmark::kMillisecond);

// --- sel-aware probe --------------------------------------------------------
//
// An upstream filter has narrowed each chunk to every 16th row (~6%,
// the <=10% selectivity regime). HashProbeOp hashes and probes only the
// selected rows in place, carrying four payload columns it never
// compacts. The build side is small enough to stay cache-resident so
// the per-chunk selection handling is not hidden behind memory-bound
// chain walks.

constexpr int64_t kSmallBuild = 1 << 16;  // 64k tuples, LLC-resident

struct SelProbeFixture {
  Topology topo{1, 1, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats{1};
  WorkerContext wctx;
  JoinState state{{LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kInner, 1};
  std::vector<int64_t> keys;              // probe keys, 50% hit rate
  std::vector<std::vector<int64_t>> pay;  // 4 pass-through payload columns
  std::vector<int32_t> sel;               // every 16th physical index

  SelProbeFixture() {
    wctx.topo = &topo;
    wctx.traffic = stats.worker(0);
    ExecContext ctx;
    ctx.worker = &wctx;

    HashBuildSink sink(&state);
    std::vector<int64_t> bk(kChunkCapacity), bv(kChunkCapacity);
    for (int64_t base = 0; base < kSmallBuild; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, kSmallBuild - base));
      for (int i = 0; i < chunk.n; ++i) {
        bk[i] = base + i;
        bv[i] = (base + i) * 3;
      }
      chunk.cols = {Vector{LogicalType::kInt64, bk.data()},
                    Vector{LogicalType::kInt64, bv.data()}};
      sink.Consume(chunk, ctx);
    }
    sink.Finalize(ctx);
    RowBuffer* buf = state.buffer_by_index(0);
    for (int64_t i = 0; i < kSmallBuild; ++i) {
      uint8_t* r = buf->row(i);
      state.table()->Insert(r, TupleLayout::GetHash(r));
    }

    Rng rng(9);
    keys.resize(1 << 18);  // multiple of kChunkCapacity: full chunks only
    for (auto& k : keys) {
      k = rng.Bernoulli(0.5) ? rng.Uniform(0, kSmallBuild - 1)
                             : kSmallBuild + rng.Uniform(0, 1 << 20);
    }
    pay.assign(4, std::vector<int64_t>(keys.size()));
    for (int c = 0; c < 4; ++c) {
      for (size_t i = 0; i < keys.size(); ++i) pay[c][i] = keys[i] * (c + 2);
    }
    for (int i = 0; i < kChunkCapacity; i += 16) {
      sel.push_back(i);
    }
  }
};

SelProbeFixture& SharedSelProbeFixture() {
  static SelProbeFixture* f = new SelProbeFixture();
  return *f;
}

void BM_ProbePipelineSelChain(benchmark::State& state) {
  SelProbeFixture& f = SharedSelProbeFixture();
  ExecContext ctx;
  ctx.worker = &f.wctx;

  CountRowsSink sink;
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<HashProbeOp>(
      &f.state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
  Pipeline pipe(nullptr, std::move(ops), &sink);

  const int64_t n = static_cast<int64_t>(f.keys.size());
  for (auto _ : state) {
    for (int64_t base = 0; base < n; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = kChunkCapacity;
      chunk.cols = {Vector{LogicalType::kInt64, f.keys.data() + base},
                    Vector{LogicalType::kInt64, f.pay[0].data() + base},
                    Vector{LogicalType::kInt64, f.pay[1].data() + base},
                    Vector{LogicalType::kInt64, f.pay[2].data() + base},
                    Vector{LogicalType::kInt64, f.pay[3].data() + base}};
      chunk.sel = f.sel.data();
      chunk.sel_n = static_cast<int>(f.sel.size());
      pipe.Push(chunk, 0, ctx);
      ctx.arena.Reset();  // morsel boundary
    }
  }
  benchmark::DoNotOptimize(sink.rows);
  // Rows the probe actually consumes, not the pre-filter chunk width.
  state.SetItemsProcessed(state.iterations() * (n / 16));
}

BENCHMARK(BM_ProbePipelineSelChain)->Unit(benchmark::kMillisecond);

// --- large join build ------------------------------------------------------
//
// Q21's l2 side at SF 1: 6M (l_orderkey, l_suppkey) rows, about four per
// order key, build-keyed on the order key. Each iteration runs the
// engine's three build steps on `threads` threads, as the worker pool
// would: every thread materializes its slice through HashBuildSink into
// its own storage area, one thread runs Finalize (FinishMaterialize
// sizes and allocates the table), then every thread inserts its own
// area through HashInsertJob in 100k-row morsels. Teardown (freeing the
// areas and the table) is timed too. Counters: ns per build row in
// total and per step.

constexpr int64_t kLargeBuild = 6'000'000;

struct LargeBuildInput {
  std::vector<int64_t> orderkey, suppkey;
  LargeBuildInput() : orderkey(kLargeBuild), suppkey(kLargeBuild) {
    Rng rng(21);
    for (int64_t i = 0; i < kLargeBuild; ++i) {
      orderkey[i] = i / 4 * 32 + rng.Uniform(0, 7);  // sparse, ascending
      suppkey[i] = rng.Uniform(1, 10000);
    }
  }
};

// `threads` simulated workers on one socket, as the worker pool would
// run them: each gets its own WorkerContext (storage area slot).
struct BenchWorkers {
  explicit BenchWorkers(int n)
      : threads(n),
        topo(1, n, InterconnectKind::kFullyConnected),
        stats(n),
        wctx(n) {
    for (int t = 0; t < n; ++t) {
      wctx[t].worker_id = t;
      wctx[t].core = t;
      wctx[t].topo = &topo;
      wctx[t].traffic = stats.worker(t);
    }
  }
  // Runs fn(t) on every worker's thread and joins them.
  template <typename Fn>
  void Parallel(Fn&& fn) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) ts.emplace_back(fn, t);
    for (auto& th : ts) th.join();
  }
  // Pushes worker t's slice of `n` rows of the int64 `cols` through
  // `consume(chunk, ctx)`, one chunk at a time.
  template <typename Fn>
  void ForEachSlice(const std::vector<const int64_t*>& cols, int64_t n,
                    Fn&& consume) {
    Parallel([&](int t) {
      ExecContext ctx;
      ctx.worker = &wctx[t];
      const int64_t begin = n * t / threads;
      const int64_t end = n * (t + 1) / threads;
      for (int64_t base = begin; base < end; base += kChunkCapacity) {
        Chunk chunk;
        chunk.n = static_cast<int>(
            std::min<int64_t>(kChunkCapacity, end - base));
        for (const int64_t* c : cols) {
          chunk.cols.push_back(Vector{LogicalType::kInt64,
                                      const_cast<int64_t*>(c) + base});
        }
        consume(chunk, ctx);
        ctx.arena.Reset();
      }
    });
  }

  int threads;
  Topology topo;
  MemStatsRegistry stats;
  std::vector<WorkerContext> wctx;
};

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// The engine's three build steps over `n` rows of `cols` ([key,
// payload...] int64 columns): every worker materializes its slice
// through HashBuildSink into its own storage area, one runs Finalize
// (FinishMaterialize sizes and allocates the table), then every worker
// inserts its own area through HashInsertJob in 100k-row morsels. Adds
// each step's nanoseconds to `step_ns`.
void RunBuild(BenchWorkers& w, JoinState* join,
              const std::vector<const int64_t*>& cols, int64_t n,
              double step_ns[3]) {
  const Clock::time_point start = Clock::now();
  HashBuildSink sink(join);
  w.ForEachSlice(cols, n,
                 [&](Chunk& chunk, ExecContext& ctx) {
                   sink.Consume(chunk, ctx);
                 });
  step_ns[0] += NsSince(start);

  const Clock::time_point fin = Clock::now();
  {
    ExecContext ctx;
    ctx.worker = &w.wctx[0];
    sink.Finalize(ctx);
  }
  step_ns[1] += NsSince(fin);

  const Clock::time_point ins = Clock::now();
  HashInsertJob insert(nullptr, "insert", join, {});
  w.Parallel([&](int t) {
    const RowBuffer* buf = join->buffer_by_index(t);
    if (buf == nullptr) return;
    constexpr uint64_t kMorsel = 100'000;
    for (uint64_t b = 0; b < buf->rows(); b += kMorsel) {
      Morsel m;
      m.partition = t;
      m.begin = b;
      m.end = std::min<uint64_t>(buf->rows(), b + kMorsel);
      insert.RunMorsel(m, w.wctx[t]);
    }
  });
  step_ns[2] += NsSince(ins);
}

void BM_JoinBuildLarge(benchmark::State& state) {
  static LargeBuildInput* in = new LargeBuildInput();
  BenchWorkers w(static_cast<int>(state.range(0)));
  double step_ns[3] = {0, 0, 0};
  double total_ns = 0;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    {
      auto join = std::make_unique<JoinState>(
          std::vector<LogicalType>{LogicalType::kInt64, LogicalType::kInt64},
          1, JoinKind::kInner, w.threads);
      RunBuild(w, join.get(), {in->orderkey.data(), in->suppkey.data()},
               kLargeBuild, step_ns);
      if (join->table()->LookupHead(
              TupleLayout::GetHash(join->buffer_by_index(0)->row(0)),
              true) == nullptr) {
        state.SkipWithError("inserted row not found");
      }
    }
    const double elapsed = NsSince(start);
    total_ns += elapsed;
    state.SetIterationTime(elapsed * 1e-9);
  }
  const double rows = static_cast<double>(kLargeBuild) *
                      static_cast<double>(state.iterations());
  state.counters["ns_per_row"] = total_ns / rows;
  state.counters["materialize_ns_per_row"] = step_ns[0] / rows;
  state.counters["finalize_ns_per_row"] = step_ns[1] / rows;
  state.counters["insert_ns_per_row"] = step_ns[2] / rows;
  state.SetItemsProcessed(state.iterations() * kLargeBuild);
}
BENCHMARK(BM_JoinBuildLarge)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- semi join: which side to build -----------------------------------------
//
// Q21's l2 semi join at SF 1: the right side is the 6M-row
// (l_orderkey, l_suppkey) input above, the left side 74,378 rows whose
// order keys all occur on the right, and the residual is the right
// supplier differing from the left one. Both arms produce the same left
// rows:
//   side:0  build right (the plan without a side decision): materialize
//           and insert the 6M rows, probe them with the 74k (kSemi);
//   side:1  build left, probe with marks: materialize and insert the
//           74k, probe them with the 6M in mark-only mode (kRightSemi),
//           then drain the marked tuples through BuildTupleSource.
// Counters: ns per right-side row in total and for the build and the
// probe (drain included) steps.

constexpr int64_t kSemiLeft = 74'378;

struct SemiLeftInput {
  std::vector<int64_t> orderkey, suppkey;
  int64_t expect = 0;  // left rows with a qualifying right row
  explicit SemiLeftInput(const LargeBuildInput& right)
      : orderkey(kSemiLeft), suppkey(kSemiLeft) {
    Rng rng(4);
    for (int64_t i = 0; i < kSemiLeft; ++i) {
      orderkey[i] = right.orderkey[rng.Uniform(0, kLargeBuild - 1)];
      suppkey[i] = rng.Uniform(1, 10000);
      // Right row r has key r / 4 * 32 + [0, 7]: key k can only sit in
      // rows k / 32 * 4 .. + 3.
      const int64_t first = orderkey[i] / 32 * 4;
      bool match = false;
      for (int64_t r = first; r < first + 4 && r < kLargeBuild; ++r) {
        match = match || (right.orderkey[r] == orderkey[i] &&
                          right.suppkey[r] != suppkey[i]);
      }
      expect += match ? 1 : 0;
    }
  }
};

// Counts rows reaching the end of a pipeline, per worker.
struct CountSink final : Sink {
  explicit CountSink(int threads) : rows(threads, 0) {}
  void Consume(Chunk& chunk, ExecContext& ctx) override {
    rows[ctx.worker->worker_id] += chunk.ActiveRows();
  }
  int64_t Total() const {
    int64_t n = 0;
    for (int64_t r : rows) n += r;
    return n;
  }
  std::vector<int64_t> rows;
};

void BM_SemiJoinSides(benchmark::State& state) {
  static LargeBuildInput* right = new LargeBuildInput();
  static SemiLeftInput* left = new SemiLeftInput(*right);
  const bool build_left = state.range(0) == 1;
  BenchWorkers w(static_cast<int>(state.range(1)));
  const std::vector<const int64_t*> rcols = {right->orderkey.data(),
                                             right->suppkey.data()};
  const std::vector<const int64_t*> lcols = {left->orderkey.data(),
                                             left->suppkey.data()};
  const std::vector<LogicalType> types = {LogicalType::kInt64,
                                          LogicalType::kInt64};
  double build_ns = 0, probe_ns = 0, total_ns = 0;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    CountSink out(w.threads);
    {
      auto join = std::make_unique<JoinState>(
          types, 1, build_left ? JoinKind::kRightSemi : JoinKind::kSemi,
          w.threads);
      double step_ns[3] = {0, 0, 0};
      RunBuild(w, join.get(), build_left ? lcols : rcols,
               build_left ? kSemiLeft : kLargeBuild, step_ns);
      build_ns += step_ns[0] + step_ns[1] + step_ns[2];

      // Residual over the probe's combined chunk [probe key, probe
      // supplier, build supplier] (side 0) or [right key, right
      // supplier, left key, left supplier] (side 1).
      const Clock::time_point probe = Clock::now();
      std::vector<int> fields = build_left ? std::vector<int>{0, 1}
                                           : std::vector<int>{1};
      const int other = build_left ? 3 : 2;
      // Side 0 emits the surviving left rows into `out`; side 1 marks.
      CountSink marks(w.threads);
      std::vector<std::unique_ptr<Operator>> ops;
      ops.push_back(std::make_unique<HashProbeOp>(
          join.get(), std::vector<int>{0}, fields,
          Ne(ColRef(1, LogicalType::kInt64),
             ColRef(other, LogicalType::kInt64))));
      Pipeline probe_pipe(nullptr, std::move(ops),
                          build_left ? &marks : &out);
      w.ForEachSlice(build_left ? rcols : lcols,
                     build_left ? kLargeBuild : kSemiLeft,
                     [&](Chunk& chunk, ExecContext& ctx) {
                       probe_pipe.Push(chunk, 0, ctx);
                     });
      if (build_left) {
        BuildTupleSource source(join.get(),
                                BuildTupleSource::Mode::kMarked);
        Pipeline drain(nullptr, {}, &out);
        w.Parallel([&](int t) {
          ExecContext ctx;
          ctx.worker = &w.wctx[t];
          const RowBuffer* buf = join->buffer_by_index(t);
          if (buf == nullptr) return;
          Morsel m;
          m.partition = t;
          m.begin = 0;
          m.end = buf->rows();
          source.RunMorsel(m, drain, ctx);
        });
      }
      probe_ns += NsSince(probe);
    }
    const double elapsed = NsSince(start);
    total_ns += elapsed;
    state.SetIterationTime(elapsed * 1e-9);
    benchmark::DoNotOptimize(out.Total());
    if (out.Total() != left->expect) {
      state.SkipWithError("semi join output differs from the reference");
    }
  }
  const double rows = static_cast<double>(kLargeBuild) *
                      static_cast<double>(state.iterations());
  state.counters["ns_per_right_row"] = total_ns / rows;
  state.counters["build_ns_per_right_row"] = build_ns / rows;
  state.counters["probe_ns_per_right_row"] = probe_ns / rows;
  state.counters["semi_rows"] = static_cast<double>(left->expect);
  state.SetItemsProcessed(state.iterations() * kLargeBuild);
}
BENCHMARK(BM_SemiJoinSides)
    ->ArgNames({"side", "threads"})
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Ablation: growing a standard chaining map while inserting, vs. the
// two-phase materialize-then-perfect-size build above.
void BM_DynamicGrowBaseline(benchmark::State& state) {
  for (auto _ : state) {
    std::unordered_map<uint64_t, int64_t> map;
    for (int64_t i = 0; i < kBuildSize; ++i) {
      map.emplace(Hash64(static_cast<uint64_t>(i)), i);
    }
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_DynamicGrowBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace morsel

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext(
      "simulated_topology",
      "1 socket x 1 core (threads:N benchmarks: 1 socket x N cores)");
  benchmark::AddCustomContext("build_type", morsel::bench::kBuildType);
  benchmark::AddCustomContext("git_sha", morsel::bench::GitSha());
  benchmark::AddCustomContext("transparent_hugepage",
                              morsel::bench::ThpMode());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
