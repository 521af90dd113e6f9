// Unit tests for src/numa: topology & distances, tagged allocation,
// breaker memory on 2 MiB pages, traffic accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/hash.h"
#include "common/memory_tracker.h"
#include "exec/tagged_hash_table.h"
#include "exec/tuple.h"
#include "numa/allocator.h"
#include "numa/mem_stats.h"
#include "numa/pinning.h"
#include "numa/topology.h"
#include "test_util.h"

namespace morsel {
namespace {

TEST(Topology, FullyConnectedDistances) {
  Topology t = Topology::NehalemEx();
  EXPECT_EQ(t.num_sockets(), 4);
  EXPECT_EQ(t.total_cores(), 32);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(t.Distance(a, b), a == b ? 0 : 1);
    }
  }
}

TEST(Topology, RingDistances) {
  Topology t = Topology::SandyBridgeEp();
  // Ring of 4: diagonal pairs are two hops (paper Figure 10).
  EXPECT_EQ(t.Distance(0, 1), 1);
  EXPECT_EQ(t.Distance(0, 2), 2);
  EXPECT_EQ(t.Distance(0, 3), 1);
  EXPECT_EQ(t.Distance(1, 3), 2);
  EXPECT_EQ(t.Distance(2, 2), 0);
}

TEST(Topology, StealOrderClosestFirst) {
  Topology t = Topology::SandyBridgeEp();
  const std::vector<int>& order = t.StealOrder(0);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);                       // self first
  EXPECT_EQ(t.Distance(0, order[1]), 1);        // then direct neighbours
  EXPECT_EQ(t.Distance(0, order[2]), 1);
  EXPECT_EQ(order[3], 2);                       // two-hop socket last
}

TEST(Topology, SocketOfCore) {
  Topology t(4, 8, InterconnectKind::kFullyConnected);
  EXPECT_EQ(t.SocketOfCore(0), 0);
  EXPECT_EQ(t.SocketOfCore(7), 0);
  EXPECT_EQ(t.SocketOfCore(8), 1);
  EXPECT_EQ(t.SocketOfCore(31), 3);
}

TEST(Allocator, AlignmentAndAccounting) {
  size_t before = NumaAllocatedBytes();
  void* p = NumaAlloc(100, 2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineSize, 0u);
  EXPECT_GE(NumaAllocatedBytes(), before + 100);
  NumaFree(p, 100);
  EXPECT_EQ(NumaAllocatedBytes(), before);
}

TEST(Allocator, InterleavedSocketOf) {
  // 2 MB chunks round-robin across 4 sockets.
  EXPECT_EQ(InterleavedSocketOf(0, 4), 0);
  EXPECT_EQ(InterleavedSocketOf((2u << 20) - 1, 4), 0);
  EXPECT_EQ(InterleavedSocketOf(2u << 20, 4), 1);
  EXPECT_EQ(InterleavedSocketOf(8u << 20, 4), 0);
}

TEST(NumaVector, PushAndGrow) {
  NumaVector<int64_t> v(1);
  EXPECT_EQ(v.socket(), 1);
  for (int64_t i = 0; i < 10000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10000u);
  for (int64_t i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
}

TEST(NumaVector, ResizeZeroFills) {
  NumaVector<int32_t> v;
  v.push_back(7);
  v.resize(100);
  EXPECT_EQ(v[0], 7);
  for (size_t i = 1; i < 100; ++i) ASSERT_EQ(v[i], 0);
  v.resize(3);
  EXPECT_EQ(v.size(), 3u);
}

TEST(NumaVector, ResizeByOneIsAmortized) {
  // RowBuffer extends one row at a time: capacity must grow
  // geometrically, not per call.
  NumaVector<uint8_t> v;
  size_t regrows = 0;
  const uint8_t* last = nullptr;
  for (size_t i = 1; i <= 100000; ++i) {
    v.resize(i);
    if (v.data() != last) {
      ++regrows;
      last = v.data();
    }
  }
  EXPECT_LT(regrows, 30u);
}

TEST(NumaVector, MoveTransfersOwnership) {
  NumaVector<int64_t> a(2);
  a.push_back(1);
  a.push_back(2);
  NumaVector<int64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.socket(), 2);
  EXPECT_EQ(a.size(), 0u);
  NumaVector<int64_t> c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1], 2);
}

TEST(NumaVector, BulkAppend) {
  NumaVector<int32_t> v;
  int32_t chunk[256];
  for (int i = 0; i < 256; ++i) chunk[i] = i;
  for (int rep = 0; rep < 10; ++rep) v.append(chunk, 256);
  ASSERT_EQ(v.size(), 2560u);
  EXPECT_EQ(v[256 * 3 + 42], 42);
}

TEST(BreakerMemory, LargeRequestIsAZeroHugePageAlignedMapping) {
  const size_t before = NumaAllocatedBytes();
  const size_t bytes = kHugePageMinBytes + 100;  // rounds up to 6 MiB
  MemoryTracker tracker;
  {
    ScopedAllocationGovernor gov(&tracker, nullptr);
    auto* p = static_cast<uint8_t*>(NumaAllocBreaker(bytes, 0));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kHugePageBytes, 0u);
    EXPECT_EQ(NumaAllocatedBytes(), before + 3 * kHugePageBytes);
    EXPECT_GE(tracker.used(), static_cast<int64_t>(3 * kHugePageBytes));
    for (size_t i = 0; i < bytes; i += 4096) ASSERT_EQ(p[i], 0) << i;
    EXPECT_EQ(p[bytes - 1], 0);
    p[bytes - 1] = 7;  // the whole requested range is writable
    NumaFreeBreaker(p, bytes);
  }
  // The rounded size is charged and returned, to the byte.
  EXPECT_EQ(tracker.used(), 0);
  EXPECT_EQ(NumaAllocatedBytes(), before);
}

TEST(BreakerMemory, SmallRequestTakesNumaAlloc) {
  const size_t before = NumaAllocatedBytes();
  bool huge = true;
  void* p = NumaAllocBreaker(kHugePageMinBytes - 1, 0, &huge);
  EXPECT_FALSE(huge);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineSize, 0u);
  EXPECT_EQ(NumaAllocatedBytes(), before + kHugePageMinBytes);
  NumaFreeBreaker(p, kHugePageMinBytes - 1);
  EXPECT_EQ(NumaAllocatedBytes(), before);
}

TEST(BreakerMemory, LargeHashTableReadsEmptyBeforeInsert) {
  // 1M entries -> 2M slots, a 16 MiB slot array: the huge-page path,
  // which skips the constructor's memset when the advice is taken. Each
  // table follows a freed, dirtied allocation of its size, which an
  // allocator that recycled memory would hand straight back.
  constexpr size_t kSlotBytes = size_t{16} << 20;
  for (int round = 0; round < 2; ++round) {
    {
      void* dirty = NumaAllocBreaker(kSlotBytes, 0);
      std::memset(dirty, 0xA5, kSlotBytes);
      NumaFreeBreaker(dirty, kSlotBytes);
    }
    TaggedHashTable ht(uint64_t{1} << 20);
    ASSERT_EQ(ht.bytes(), kSlotBytes);
    for (uint64_t i = 0; i < 20000; ++i) {
      const uint64_t h = Hash64(i * 7919 + static_cast<uint64_t>(round));
      ASSERT_EQ(ht.LookupHead(h, /*use_tagging=*/true), nullptr) << i;
      ASSERT_EQ(ht.LookupHead(h, /*use_tagging=*/false), nullptr) << i;
      ASSERT_EQ(ht.SlotValue(h), 0u) << i;
    }
    // The first slot and the last one, at both ends of the mapping.
    EXPECT_EQ(ht.SlotValue(0), 0u);
    EXPECT_EQ(ht.SlotValue(~uint64_t{0}), 0u);
    // Inserts land on the lazily zeroed pages and read back.
    TupleLayout layout({LogicalType::kInt64}, false);
    RowBuffer rows(&layout, 0);
    for (uint64_t i = 0; i < 1000; ++i) {
      TupleLayout::SetHash(rows.AppendRow(), Hash64(i));
    }
    for (uint64_t i = 0; i < 1000; ++i) ht.Insert(rows.row(i), Hash64(i));
    for (uint64_t i = 0; i < 1000; ++i) {
      bool found = false;
      for (uint8_t* t = ht.LookupHead(Hash64(i), true); t != nullptr;
           t = TupleLayout::GetNext(t)) {
        found |= t == rows.row(i);
      }
      ASSERT_TRUE(found) << i;
    }
  }
}

TEST(BreakerMemory, RowBufferAcrossThresholdBalancesTracker) {
  // A governed RowBuffer grows from NumaAlloc sizes through 4 MiB into
  // huge-page mappings (regrows free under the governor too); once it
  // is freed, the query tracker and the process-wide counter are back
  // where they started, to the byte.
  const size_t before = NumaAllocatedBytes();
  MemoryTracker tracker;
  {
    ScopedAllocationGovernor gov(&tracker, nullptr);
    TupleLayout layout({LogicalType::kInt64, LogicalType::kInt64}, true);
    {
      RowBuffer buf(&layout, 1);
      const size_t target = 3 * kHugePageMinBytes;
      while (buf.bytes() < target) buf.AppendRows(1000);
      EXPECT_GE(NumaAllocatedBytes(), before + target);
      EXPECT_GE(tracker.used(), static_cast<int64_t>(target));
      EXPECT_EQ(layout.GetI64(buf.row(buf.rows() - 1), 1), 0);
    }
  }
  EXPECT_EQ(tracker.used(), 0);
  EXPECT_GE(tracker.peak(), static_cast<int64_t>(3 * kHugePageMinBytes));
  EXPECT_EQ(NumaAllocatedBytes(), before);
}

TEST(BreakerMemory, JoinBuildOverBudgetAbortsWithoutLeak) {
  // Build side of 1M rows x 2 int64 (32-byte tuples, 32 MiB of storage
  // areas) plus a 16 MiB slot array: every budget below ends the query
  // as kMemoryExceeded — in the huge-page row buffers' growth or in the
  // table allocation — and returns every byte.
  constexpr int64_t kRows = 1 << 20;
  std::vector<std::pair<int64_t, int64_t>> build_rows, probe_rows;
  for (int64_t i = 0; i < kRows; ++i) {
    // Distinct, unsorted keys: odd multipliers permute 32-bit integers.
    build_rows.push_back(
        {static_cast<int64_t>((uint64_t(i) * 2654435761u) & 0xFFFFFFFFu),
         i});
  }
  for (int64_t i = 0; i < 1000; ++i) probe_rows.push_back(build_rows[i * 7]);
  auto build = testutil::MakeKv(testutil::SmallTopo(), build_rows, "bk",
                                "bv");
  auto probe = testutil::MakeKv(testutil::SmallTopo(), probe_rows, "pk",
                                "pv");
  auto plan = [&] {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
    p.CollectResult();
    return p.Build();
  };
  EngineOptions opts;
  opts.morsel_size = 16384;
  opts.num_workers = 4;
  Engine engine(testutil::SmallTopo(), opts);
  const size_t before = NumaAllocatedBytes();
  for (int64_t budget_mib : {6, 12, 24, 40}) {
    auto q = engine.CreateQuery(plan());
    q->SetMemoryBudget(budget_mib << 20);
    ResultSet r = q->Execute();
    EXPECT_FALSE(r.ok()) << budget_mib;
    EXPECT_EQ(r.status().code, StatusCode::kMemoryExceeded) << budget_mib;
  }
  EXPECT_EQ(NumaAllocatedBytes(), before);
  // Unbudgeted, the same build succeeds and its memory still balances.
  {
    auto q = engine.CreateQuery(plan());
    ResultSet r = q->Execute();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.num_rows(), 1000);
    EXPECT_GT(q->context()->memory_tracker().peak(),
              static_cast<int64_t>(kHugePageMinBytes));
  }
  EXPECT_EQ(NumaAllocatedBytes(), before);
}

TEST(MemStats, LocalRemoteClassification) {
  TrafficCounters c;
  c.OnRead(0, 0, 100);   // local
  c.OnRead(0, 1, 50);    // remote: link 1 -> 0
  c.OnWrite(2, 2, 30);   // local
  c.OnWrite(2, 3, 20);   // remote: link 2 -> 3
  EXPECT_EQ(c.read_local, 100u);
  EXPECT_EQ(c.read_remote, 50u);
  EXPECT_EQ(c.written_local, 30u);
  EXPECT_EQ(c.written_remote, 20u);
  EXPECT_EQ(c.link[1][0], 50u);
  EXPECT_EQ(c.link[2][3], 20u);
}

TEST(MemStats, InterleavedCharging) {
  TrafficCounters c;
  SocketTally tally;
  // Offset 0 lives on socket 0; worker on socket 0 -> local.
  tally.AddInterleaved(0, 8, 4);
  // Offset in the second 2MB chunk lives on socket 1 -> remote.
  tally.AddInterleaved(2u << 20, 8, 4);
  tally.FlushReads(&c, /*worker_socket=*/0, /*num_sockets=*/4);
  EXPECT_EQ(c.read_local, 8u);
  EXPECT_EQ(c.read_remote, 8u);
  // Flushing resets the tally: a second flush adds nothing.
  tally.FlushReads(&c, 0, 4);
  EXPECT_EQ(c.read_local, 8u);
  EXPECT_EQ(c.read_remote, 8u);
}

TEST(MemStats, RegistryAggregation) {
  MemStatsRegistry reg(3);
  reg.worker(0)->OnRead(0, 0, 100);
  reg.worker(1)->OnRead(1, 0, 60);
  reg.worker(2)->OnWrite(2, 2, 40);
  TrafficSnapshot snap = reg.Aggregate();
  EXPECT_EQ(snap.read_local, 100u);
  EXPECT_EQ(snap.read_remote, 60u);
  EXPECT_EQ(snap.written_local, 40u);
  EXPECT_EQ(snap.bytes_read(), 160u);
  EXPECT_NEAR(snap.RemotePercent(), 100.0 * 60 / 200, 1e-9);
  EXPECT_EQ(snap.max_link, 60u);
  reg.ResetAll();
  EXPECT_EQ(reg.Aggregate().bytes_read(), 0u);
}

TEST(Pinning, BestEffortDoesNotCrash) {
  // May fail in restricted sandboxes; must not crash either way.
  PinThreadToCpu(0);
  PinThreadToCpu(123456);
}

}  // namespace
}  // namespace morsel
