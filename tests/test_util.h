#ifndef MORSELDB_TESTS_TEST_UTIL_H_
#define MORSELDB_TESTS_TEST_UTIL_H_

// Shared helpers for engine-level tests: small tables, reference
// canonicalization of results.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/query.h"
#include "storage/table.h"

namespace morsel {
namespace testutil {

inline const Topology& SmallTopo() {
  static Topology topo(2, 2, InterconnectKind::kFullyConnected);
  return topo;
}

inline Engine& SmallEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 512;  // force real parallel scheduling in tests
    return new Engine(SmallTopo(), opts);
  }();
  return *engine;
}

// Builds a two-column int64 table (k, v) with v = value_of(k) rows
// supplied by the caller.
inline std::unique_ptr<Table> MakeKv(
    const Topology& topo, const std::vector<std::pair<int64_t, int64_t>>& rows,
    const char* kname = "k", const char* vname = "v") {
  Schema schema(
      {{kname, LogicalType::kInt64}, {vname, LogicalType::kInt64}});
  auto t = std::make_unique<Table>("kv", schema, topo);
  size_t i = 0;
  for (const auto& [k, v] : rows) {
    int p = static_cast<int>(i++ % t->num_partitions());
    t->Int64Col(p, 0)->Append(k);
    t->Int64Col(p, 1)->Append(v);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

// Rows of a result set as sorted strings (order-insensitive comparison).
inline std::vector<std::string> SortedRows(const ResultSet& r) {
  std::vector<std::string> rows;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    rows.push_back(r.RowToString(i));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

using KvRows = std::vector<std::pair<int64_t, int64_t>>;

// Reference equi-join of (k, v) input rows, computed with std containers
// rather than engine operators. Inner and left-outer kinds emit
// (pk, pv, bv) per match, and left-outer emits (pk, pv, 0) for a probe
// row without one; semi and anti emit (pk, pv) per qualifying probe row.
// `residual(pv, bv)`, when set, must hold for a key match to count.
// Rows come back sorted.
inline std::vector<std::vector<int64_t>> ReferenceJoin(
    const KvRows& probe, const KvRows& build, JoinKind kind,
    const std::function<bool(int64_t, int64_t)>& residual = nullptr) {
  std::multimap<int64_t, int64_t> by_key(build.begin(), build.end());
  std::vector<std::vector<int64_t>> out;
  for (const auto& [pk, pv] : probe) {
    bool matched = false;
    auto [lo, hi] = by_key.equal_range(pk);
    for (auto it = lo; it != hi; ++it) {
      if (residual && !residual(pv, it->second)) continue;
      matched = true;
      if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
        out.push_back({pk, pv, it->second});
      }
    }
    if ((kind == JoinKind::kSemi && matched) ||
        (kind == JoinKind::kAnti && !matched)) {
      out.push_back({pk, pv});
    } else if (kind == JoinKind::kLeftOuter && !matched) {
      out.push_back({pk, pv, 0});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testutil
}  // namespace morsel

#endif  // MORSELDB_TESTS_TEST_UTIL_H_
