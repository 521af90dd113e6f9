// Tests for selection-vector filter execution (DESIGN.md §10) and filter
// merging (§15): FilterOp narrows the chunk's `sel` conjunct by conjunct
// (AND short-circuit, adaptive reordering), adjacent Filter() nodes merge
// into one conjunct chain, and consumers read through the selection.
// Every plan's answer is checked against rows the test computes itself
// from its input rows with std containers, across join kinds, residuals,
// group-bys, sorts, string predicates and multi-conjunct chains; the
// filter→probe→agg→result hot path must never call Chunk::Compact
// (asserted via the process-wide counter).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/chunk.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::KvRows;
using testutil::MakeKv;
using testutil::ReferenceJoin;
using testutil::SmallTopo;
using testutil::SortedRows;

Engine& SelEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 512;
    return new Engine(SmallTopo(), opts);
  }();
  return *engine;
}

KvRows Numbers(int64_t n, int64_t key_mod) {
  KvRows rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({i % key_mod, i});
  return rows;
}

// One expected result row, rendered the way ResultSet::RowToString
// renders integer and string cells (tab-separated).
std::string Cell(int64_t v) { return std::to_string(v); }
std::string Cell(const std::string& s) { return s; }
template <typename... T>
std::string Row(const T&... cells) {
  std::string out;
  bool first = true;
  ((out += (first ? "" : "\t") + Cell(cells), first = false), ...);
  return out;
}
std::string Row(const std::vector<int64_t>& cells) {
  std::string out;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (c > 0) out += '\t';
    out += Cell(cells[c]);
  }
  return out;
}

// Runs `plan` and expects exactly `expect`: in order when the plan
// orders its output, as a multiset otherwise.
void ExpectRows(const LogicalPlan& plan, std::vector<std::string> expect,
                bool ordered = false) {
  ResultSet r = SelEngine().CreateQuery(plan)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> got;
  if (ordered) {
    for (int64_t i = 0; i < r.num_rows(); ++i) {
      got.push_back(r.RowToString(i));
    }
  } else {
    got = SortedRows(r);
    std::sort(expect.begin(), expect.end());
  }
  EXPECT_EQ(got, expect);
}

// Expected rows of a (k, v) scan filtered by `pred`.
template <typename Pred>
std::vector<std::string> FilteredKv(const KvRows& rows, const Pred& pred) {
  std::vector<std::string> out;
  for (const auto& [k, v] : rows) {
    if (pred(k, v)) out.push_back(Row(k, v));
  }
  return out;
}

TEST(SelectionVectors, MultiConjunctChainMatchesReference) {
  const KvRows rows = Numbers(20000, 4000);
  auto t = MakeKv(SmallTopo(), rows);
  // Four conjuncts of very different selectivity and cost, plus chunks
  // both fully passing and fully failing — exercises narrowing, dense
  // preservation, and the empty-selection early-out.
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(And(Lt(pb.Col("k"), ConstI64(3000)),
                Ge(pb.Col("v"), ConstI64(100)),
                Eq(Arith(ArithOp::kSub, pb.Col("v"),
                         Mul(Div(pb.Col("v"), ConstI64(7)), ConstI64(7))),
                   ConstI64(3)),  // v % 7 == 3
                Ne(pb.Col("k"), ConstI64(17))));
  pb.CollectResult();
  auto expect = FilteredKv(rows, [](int64_t k, int64_t v) {
    return k < 3000 && v >= 100 && v % 7 == 3 && k != 17;
  });
  ASSERT_FALSE(expect.empty());
  ExpectRows(pb.Build(), expect);
}

TEST(SelectionVectors, StackedFiltersMatchReference) {
  const KvRows rows = Numbers(15000, 1000);
  auto t = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(Lt(pb.Col("k"), ConstI64(700)));
  pb.Filter(Ge(pb.Col("v"), ConstI64(50)));
  pb.Filter(InI64(pb.Col("k"), {1, 5, 9, 13, 400, 401, 699, 999}));
  pb.CollectResult();
  auto expect = FilteredKv(rows, [](int64_t k, int64_t v) {
    const bool in_set = k == 1 || k == 5 || k == 9 || k == 13 ||
                        k == 400 || k == 401 || k == 699 || k == 999;
    return k < 700 && v >= 50 && in_set;
  });
  ASSERT_FALSE(expect.empty());
  ExpectRows(pb.Build(), expect);
}

TEST(SelectionVectors, JoinKindsWithResidualsMatchReference) {
  const KvRows probe_rows = Numbers(6000, 80);
  const KvRows build_rows = Numbers(200, 40);
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  // Both sides are filtered before the join; the reference filters the
  // input rows the same way.
  KvRows probe_kept, build_kept;
  for (const auto& [k, v] : probe_rows) {
    if (v >= 10 && k < 60) probe_kept.push_back({k, v});
  }
  for (const auto& [k, v] : build_rows) {
    if (v < 150) build_kept.push_back({k, v});
  }
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    const bool probe_only =
        kind == JoinKind::kSemi || kind == JoinKind::kAnti;
    for (bool with_residual : {false, true}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " residual=" + std::to_string(with_residual));
      PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
      b.Filter(Lt(b.Col("bv"), ConstI64(150)));
      PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
      p.Filter(And(Ge(p.Col("pv"), ConstI64(10)),
                   Lt(p.Col("pk"), ConstI64(60))));
      std::vector<std::string> payload =
          probe_only ? std::vector<std::string>{}
                     : std::vector<std::string>{"bv"};
      std::function<ExprPtr(const ColScope&)> residual;
      std::function<bool(int64_t, int64_t)> ref_residual;
      if (with_residual) {
        residual = [probe_only](const ColScope& s) {
          return probe_only ? Lt(s.Col("pv"), ConstI64(5000))
                            : Ne(s.Col("bv"), s.Col("pv"));
        };
        ref_residual = [probe_only](int64_t pv, int64_t bv) {
          return probe_only ? pv < 5000 : bv != pv;
        };
      }
      p.HashJoin(std::move(b), {"pk"}, {"bk"}, payload, kind, residual);
      p.CollectResult();
      std::vector<std::string> expect;
      for (const std::vector<int64_t>& row :
           ReferenceJoin(probe_kept, build_kept, kind, ref_residual)) {
        expect.push_back(Row(row));
      }
      if (kind != JoinKind::kAnti) {
        EXPECT_FALSE(expect.empty());
      }
      ExpectRows(p.Build(), expect);
    }
  }
}

TEST(SelectionVectors, GroupByAndSortMatchReference) {
  const KvRows rows = Numbers(30000, 97);
  auto t = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(And(Lt(pb.Col("v"), ConstI64(25000)),
                Ge(pb.Col("k"), ConstI64(5))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  aggs.push_back({AggFunc::kSum, pb.Col("v"), "sv"});
  aggs.push_back({AggFunc::kMin, pb.Col("v"), "mn"});
  pb.GroupBy({"k"}, std::move(aggs));
  pb.OrderBy({{"k", true}});
  struct Agg {
    int64_t cnt = 0, sum = 0, min = INT64_MAX;
  };
  std::map<int64_t, Agg> groups;
  for (const auto& [k, v] : rows) {
    if (v >= 25000 || k < 5) continue;
    Agg& g = groups[k];
    ++g.cnt;
    g.sum += v;
    g.min = std::min(g.min, v);
  }
  std::vector<std::string> expect;
  for (const auto& [k, g] : groups) {
    expect.push_back(Row(k, g.cnt, g.sum, g.min));
  }
  ExpectRows(pb.Build(), expect, /*ordered=*/true);
}

TEST(SelectionVectors, MergeJoinAndTopKMatchReference) {
  // Sorted inputs through a forced merge join ending in a top-k heap.
  KvRows probe_rows, build_rows;
  for (int64_t i = 0; i < 9000; ++i) probe_rows.push_back({i / 2, i});
  for (int64_t i = 0; i < 5000; ++i) build_rows.push_back({i, 3 * i});
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  b.Filter(Lt(b.Col("bv"), ConstI64(9000)));
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  p.Filter(Ge(p.Col("pv"), ConstI64(64)));
  p.MergeJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
  p.OrderBy({{"pv", true}}, /*limit=*/100);
  // Build key bk = i carries bv = 3i, kept while 3i < 9000; the probe
  // row pv has key pv / 2, so the 100 smallest surviving pv are 64..163.
  std::vector<std::string> expect;
  for (int64_t pv = 64; pv < 164; ++pv) {
    expect.push_back(Row(pv / 2, pv, 3 * (pv / 2)));
  }
  ExpectRows(p.Build(), expect, /*ordered=*/true);
}

TEST(SelectionVectors, OrNotShortCircuitMatchesReference) {
  const KvRows rows = Numbers(12000, 500);
  auto t = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(Or(Lt(pb.Col("k"), ConstI64(10)),
               And(Ge(pb.Col("k"), ConstI64(490)),
                   Not(Eq(pb.Col("v"), ConstI64(777)))),
               Eq(pb.Col("v"), ConstI64(4242))));
  pb.CollectResult();
  ExpectRows(pb.Build(), FilteredKv(rows, [](int64_t k, int64_t v) {
               return k < 10 || (k >= 490 && v != 777) || v == 4242;
             }));
}

TEST(SelectionVectors, StringPredicatesThroughSelection) {
  // String column scanned + LIKE / IN conjuncts after a narrowing
  // integer conjunct: string vectors are read through `sel`.
  Schema schema({{"id", LogicalType::kInt64},
                 {"name", LogicalType::kString}});
  auto t = std::make_unique<Table>("strs", schema, SmallTopo());
  const char* kNames[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  std::vector<std::string> expect;
  for (int64_t i = 0; i < 8000; ++i) {
    int p = static_cast<int>(i % t->num_partitions());
    const std::string name =
        std::string(kNames[i % 5]) + std::to_string(i % 11);
    t->Int64Col(p, 0)->Append(i);
    t->StrCol(p, 1)->Append(name);
    const std::string head = name.substr(0, 4);
    if (i < 4000 && name.find('a') != std::string::npos &&
        head != "beta" && head != "delt") {
      expect.push_back(Row(i, name));
    }
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  ASSERT_FALSE(expect.empty());
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"id", "name"});
  pb.Filter(And(Lt(pb.Col("id"), ConstI64(4000)),
                Like(pb.Col("name"), "%a%"),
                Not(InStr(Substr(pb.Col("name"), 1, 4),
                          {"beta", "delt"}))));
  pb.CollectResult();
  ExpectRows(pb.Build(), expect);
}

TEST(SelectionVectors, TwelveConjunctsDegradeToStaticOrder) {
  // More conjuncts than kMaxAdaptive (8): the chain must degrade to a
  // stable static evaluation order — the packed order word holds only 8
  // indices, so adaptive reordering is disabled outright rather than
  // aliasing ranks 8..11 onto low conjuncts' counters or order slots.
  // Enough rows/chunks that a (wrongly) active re-rank would have fired
  // dozens of times.
  const KvRows rows = Numbers(200000, 10000);
  auto t = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  std::vector<ExprPtr> conj;
  conj.push_back(Lt(pb.Col("k"), ConstI64(9000)));
  conj.push_back(Ge(pb.Col("k"), ConstI64(3)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(17)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(4444)));
  conj.push_back(Lt(pb.Col("v"), ConstI64(190000)));
  conj.push_back(Ge(pb.Col("v"), ConstI64(55)));
  conj.push_back(Ne(pb.Col("v"), ConstI64(100000)));
  conj.push_back(Lt(Mul(pb.Col("k"), ConstI64(2)), ConstI64(16000)));
  conj.push_back(Ne(pb.Col("v"), ConstI64(123457)));
  conj.push_back(Ge(Add(pb.Col("k"), pb.Col("v")), ConstI64(60)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(8999)));
  const std::vector<int64_t> in_set = {1,   2,   3,   4,   5,   6,
                                       7,   8,   9,   10,  100, 200,
                                       300, 400, 500, 7999};
  conj.push_back(InI64(pb.Col("k"), in_set));
  pb.Filter(And(std::move(conj)));
  pb.CollectResult();
  auto expect = FilteredKv(rows, [&](int64_t k, int64_t v) {
    return k < 9000 && k >= 3 && k != 17 && k != 4444 && v < 190000 &&
           v >= 55 && v != 100000 && k * 2 < 16000 && v != 123457 &&
           k + v >= 60 && k != 8999 &&
           std::find(in_set.begin(), in_set.end(), k) != in_set.end();
  });
  ASSERT_FALSE(expect.empty());
  ExpectRows(pb.Build(), expect);
}

TEST(SelectionVectors, TwelveConjunctsMatchScalarReference) {
  // Same shape, checked against an independently computed oracle.
  const int64_t n = 50000, mod = 2000;
  auto t = MakeKv(SmallTopo(), Numbers(n, mod));
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = i % mod, v = i;
    bool pass = k < 1500 && k >= 2 && k != 17 && k != 444 && v < 49000 &&
                v >= 55 && v != 10000 && k * 2 < 2900 && v != 12345 &&
                k + v >= 60 && k != 1499 && v % 3 == 0;
    if (pass) expect.push_back({k, v});
  }
  std::sort(expect.begin(), expect.end());
  ASSERT_FALSE(expect.empty());
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  std::vector<ExprPtr> conj;
  conj.push_back(Lt(pb.Col("k"), ConstI64(1500)));
  conj.push_back(Ge(pb.Col("k"), ConstI64(2)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(17)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(444)));
  conj.push_back(Lt(pb.Col("v"), ConstI64(49000)));
  conj.push_back(Ge(pb.Col("v"), ConstI64(55)));
  conj.push_back(Ne(pb.Col("v"), ConstI64(10000)));
  conj.push_back(Lt(Mul(pb.Col("k"), ConstI64(2)), ConstI64(2900)));
  conj.push_back(Ne(pb.Col("v"), ConstI64(12345)));
  conj.push_back(Ge(Add(pb.Col("k"), pb.Col("v")), ConstI64(60)));
  conj.push_back(Ne(pb.Col("k"), ConstI64(1499)));
  conj.push_back(Eq(Sub(pb.Col("v"),
                        Mul(Div(pb.Col("v"), ConstI64(3)), ConstI64(3))),
                    ConstI64(0)));  // v % 3 == 0
  pb.Filter(And(std::move(conj)));
  pb.CollectResult();
  ResultSet r = SelEngine().CreateQuery(pb.Build())->Execute();
  std::vector<std::pair<int64_t, int64_t>> got;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    got.push_back({r.I64(i, 0), r.I64(i, 1)});
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

TEST(SelectionVectors, AdaptiveReorderStaysExactOverManyChunks) {
  // Enough chunks (>64 per worker) that the conjunct re-rank actually
  // fires, with the expensive conjunct deliberately written first: the
  // reorder must never change results.
  const KvRows rows = Numbers(200000, 10000);
  auto t = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  ExprPtr expensive = Lt(
      Add(Mul(pb.Col("v"), pb.Col("v")), Mul(pb.Col("k"), ConstI64(3))),
      ConstI64(int64_t{1} << 62));  // always true here, costly
  ExprPtr cheap = Lt(pb.Col("k"), ConstI64(500));  // 5%, cheap
  pb.Filter(And(std::move(expensive), std::move(cheap)));
  pb.CollectResult();
  ExpectRows(pb.Build(), FilteredKv(rows, [](int64_t k, int64_t v) {
               return v * v + 3 * k < (int64_t{1} << 62) && k < 500;
             }));
}

TEST(SelectionVectors, ConstantFoldingPreservesSemantics) {
  const KvRows rows = Numbers(5000, 100);
  auto t = MakeKv(SmallTopo(), rows);
  // Column-free subtrees everywhere: arithmetic on literals in filter
  // conjuncts and projections, a constant-true conjunct (dropped at
  // lowering), CASE over a constant condition.
  {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(And(
        Gt(ConstI64(10), Add(ConstI64(4), ConstI64(5))),  // const true
        Lt(pb.Col("k"), Add(ConstI64(30), Mul(ConstI64(2), ConstI64(10))))));
    pb.Project(
        NE("k", pb.Col("k")),
        NE("c", Add(Mul(ConstI64(6), ConstI64(7)), ConstI64(0))),
        NE("s", CaseWhen(Gt(ConstI64(1), ConstI64(0)), ConstStr("yes"),
                         ConstStr("no"))),
        NE("vv", Add(pb.Col("v"), Sub(ConstI64(100), ConstI64(100)))));
    pb.CollectResult();
    std::vector<std::string> expect;
    for (const auto& [k, v] : rows) {
      if (k < 50) expect.push_back(Row(k, 42, std::string("yes"), v));
    }
    ExpectRows(pb.Build(), expect);
  }
  // A constant-false conjunct filters everything.
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(And(Lt(ConstI64(5), ConstI64(3)), Lt(pb.Col("k"), ConstI64(50))));
  pb.CollectResult();
  ExpectRows(pb.Build(), {});
}

TEST(SelectionVectors, RandomizedPlansMatchReference) {
  // Randomized shapes; any mismatch reproduces from the logged seed.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    const int64_t rows = 2000 + static_cast<int64_t>(rng.Uniform(0, 20000));
    const int64_t keys = 1 + static_cast<int64_t>(rng.Uniform(0, 3000));
    KvRows data;
    for (int64_t i = 0; i < rows; ++i) {
      data.push_back({rng.Uniform(0, keys), rng.Uniform(0, 100000)});
    }
    auto t = MakeKv(SmallTopo(), data);
    const int64_t cut_k = rng.Uniform(0, keys);
    const int64_t cut_v = rng.Uniform(0, 100000);
    const bool group = rng.Bernoulli(0.5);
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(And(Le(pb.Col("k"), ConstI64(cut_k)),
                  Gt(pb.Col("v"), ConstI64(cut_v))));
    if (group) {
      std::vector<AggItem> aggs;
      aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
      aggs.push_back({AggFunc::kSum, pb.Col("v"), "sv"});
      pb.GroupBy({"k"}, std::move(aggs));
    }
    pb.CollectResult();
    auto pass = [&](int64_t k, int64_t v) { return k <= cut_k && v > cut_v; };
    std::vector<std::string> expect;
    if (group) {
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;
      for (const auto& [k, v] : data) {
        if (!pass(k, v)) continue;
        ++groups[k].first;
        groups[k].second += v;
      }
      for (const auto& [k, g] : groups) {
        expect.push_back(Row(k, g.first, g.second));
      }
    } else {
      expect = FilteredKv(data, pass);
    }
    ExpectRows(pb.Build(), expect);
  }
}

TEST(SelectionVectors, ZoneMapPartialMorselsMatchReference) {
  // v is the row index, ascending within each partition, so the
  // SARGable range conjunct lets zone maps skip, fully accept and
  // partially accept morsels — the merged filter chain must honor the
  // per-morsel accept mask exactly. The stacked second filter merges
  // into the same conjunct chain.
  const KvRows probe_rows = Numbers(40000, 300);
  const KvRows build_rows = Numbers(500, 250);
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
  p.Filter(Between(p.Col("pv"), ConstI64(4000), ConstI64(30000)));
  p.Filter(Ne(p.Col("pk"), ConstI64(123)));
  p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  aggs.push_back({AggFunc::kSum, p.Col("bv"), "sb"});
  p.GroupBy({"pk"}, std::move(aggs));
  p.CollectResult();
  KvRows probe_kept;
  for (const auto& [k, v] : probe_rows) {
    if (v >= 4000 && v <= 30000 && k != 123) probe_kept.push_back({k, v});
  }
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (const std::vector<int64_t>& row :
       ReferenceJoin(probe_kept, build_rows, JoinKind::kInner)) {
    ++groups[row[0]].first;
    groups[row[0]].second += row[2];
  }
  std::vector<std::string> expect;
  for (const auto& [k, g] : groups) {
    expect.push_back(Row(k, g.first, g.second));
  }
  ASSERT_FALSE(expect.empty());
  ExpectRows(p.Build(), expect);
}

TEST(FilterMerging, StackedFiltersPublishOneLearnedOrder) {
  // Two single-conjunct Filter() nodes lower into ONE adaptive FilterOp
  // over both conjuncts: its re-rank publishes a two-conjunct order word
  // to the lower node's plan-owned slot, and the upper node's slot stays
  // unlearned (no FilterOp of its own). A single-conjunct FilterOp is
  // not adaptive and would publish nothing at all.
  auto t = MakeKv(SmallTopo(), Numbers(200000, 10000));
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  pb.Filter(Lt(Add(Mul(pb.Col("v"), pb.Col("v")),
                   Mul(pb.Col("k"), ConstI64(3))),
               ConstI64(int64_t{1} << 62)));  // always true, costly
  pb.Filter(Lt(pb.Col("k"), ConstI64(500)));  // 5%, cheap
  pb.CollectResult();
  LogicalPlan plan = pb.Build();
  const LogicalNode* upper = plan.root()->input.get();
  ASSERT_EQ(upper->kind, LogicalNode::Kind::kFilter);
  const LogicalNode* lower = upper->input.get();
  ASSERT_EQ(lower->kind, LogicalNode::Kind::kFilter);

  ResultSet r = SelEngine().CreateQuery(plan)->Execute();
  EXPECT_EQ(r.num_rows(), 200000 / 10000 * 500);
  // Packed byte-per-rank word: conjunct 1 (the cheap filter) at rank 0,
  // conjunct 0 at rank 1.
  EXPECT_EQ(lower->learned_conjunct_order->load(), uint64_t{0x0001});
  EXPECT_EQ(upper->learned_conjunct_order->load(), uint64_t{0});
}

TEST(SelectionVectors, HotPathNeverCompacts) {
  // The filter→probe→agg→result spine reads through `sel` end to end —
  // Chunk::Compact must not run at all.
  auto probe = MakeKv(SmallTopo(), Numbers(30000, 400), "pk", "pv");
  auto build = MakeKv(SmallTopo(), Numbers(300, 150), "bk", "bv");
  auto make_plan = [&] {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    b.Filter(Lt(b.Col("bv"), ConstI64(250)));
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.Filter(And(Lt(p.Col("pk"), ConstI64(37)),  // ~9% selectivity
                 Ge(p.Col("pv"), ConstI64(100))));
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, p.Col("bv"), "sb"});
    p.GroupBy({"pk"}, std::move(aggs));
    p.CollectResult();
    return p.Build();
  };

  const int64_t before_sel = Chunk::CompactCalls();
  ResultSet r = SelEngine().CreateQuery(make_plan())->Execute();
  EXPECT_GT(r.num_rows(), 0);
  EXPECT_EQ(Chunk::CompactCalls() - before_sel, 0)
      << "selection-vector hot path compacted";

  // Counter sanity: compacting a chunk that carries a selection counts,
  // and the dense early-out does not.
  Arena arena;
  const int64_t vals[4] = {10, 20, 30, 40};
  const int32_t sel[2] = {1, 3};
  Chunk c;
  c.n = 4;
  c.cols.push_back(Vector{LogicalType::kInt64, vals});
  c.sel = sel;
  c.sel_n = 2;
  const int64_t before_unit = Chunk::CompactCalls();
  c.Compact(&arena);
  EXPECT_EQ(Chunk::CompactCalls() - before_unit, 1);
  ASSERT_TRUE(c.dense());
  ASSERT_EQ(c.n, 2);
  EXPECT_EQ(c.cols[0].i64()[0], 20);
  EXPECT_EQ(c.cols[0].i64()[1], 40);
  c.Compact(&arena);
  EXPECT_EQ(Chunk::CompactCalls() - before_unit, 1);
}

TEST(FilterMerging, PreparedReExecutionStartsWithWarmConjunctOrder) {
  // DESIGN §15 conjunct-order persistence: the first execution learns
  // cheap-selective-first via the adaptive re-rank and publishes the
  // packed order to the plan-owned slot; the second lowering of the
  // same prepared plan adopts it and annotates the pipeline.
  auto t = MakeKv(SmallTopo(), Numbers(200000, 10000));
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  ExprPtr expensive = Lt(Add(Mul(pb.Col("v"), pb.Col("v")),
                             Mul(pb.Col("k"), ConstI64(3))),
                         ConstI64(int64_t{1} << 62));  // ~always true
  ExprPtr cheap = Lt(pb.Col("k"), ConstI64(500));      // 5%, cheap
  pb.Filter(And(std::move(expensive), std::move(cheap)));
  pb.CollectResult();
  PreparedQuery pq = SelEngine().Prepare(pb.Build());
  ASSERT_TRUE(pq.valid());

  auto q1 = pq.MakeQuery();
  EXPECT_EQ(q1->ExplainPlan().find("[warm-conjunct-order]"),
            std::string::npos)
      << "nothing learned yet on the first execution";
  std::vector<std::string> first = SortedRows(q1->Execute());
  ASSERT_FALSE(first.empty());

  auto q2 = pq.MakeQuery();
  EXPECT_NE(q2->ExplainPlan().find("[warm-conjunct-order]"),
            std::string::npos)
      << q2->ExplainPlan();
  EXPECT_EQ(SortedRows(q2->Execute()), first);
}

}  // namespace
}  // namespace morsel
