// The metric names this benchmark emits. BENCHMARK.json lists the same
// names; `e2ebench --list-metrics` prints them so run.py --selftest can
// check the two agree.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "ssb/ssb_queries.h"
#include "workloads.h"

namespace e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"power_s", "s"},
      {"geomean_ms", "ms"},      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}, {"throughput_qps", "1/s"},
      {"max_rate_qps", "1/s"},   {"peak_rss_mb", "MiB"},
  };
  return specs;
}

namespace {

std::vector<MetricSpec> BuildPerLayer() {
  std::vector<MetricSpec> specs = {
      {"storage.load_s", "s"},
      {"storage.seal_ms_p50", "ms"},
      {"storage.seal_ms_max", "ms"},
      {"storage.rows_sealed", "count"},
      {"numa.read_mb", "MiB"},
      {"numa.written_mb", "MiB"},
      {"numa.remote_pct", "%"},
      {"numa.max_link_pct", "%"},
      {"numa.leaked_bytes", "bytes"},
      {"core.morsels", "count"},
      {"core.morsel_us_p50", "us"},
      {"core.stolen_frac", "ratio"},
      {"core.worker_idle_frac", "ratio"},
      {"exec.busy_s", "s"},
      {"exec.pipelines", "count"},
      {"exec.compact_calls", "count"},
      {"engine.plan_build_us_p50", "us"},
      {"engine.lower_us_p50", "us"},
      {"engine.unattributed_frac", "ratio"},
      {"server.prepare_us_p50", "us"},
      {"server.execute_us_p50", "us"},
      {"server.execute_us_p99", "us"},
      {"server.fetch_us_p50", "us"},
      {"server.fetch_us_p99", "us"},
      {"server.admission_queued_frac", "ratio"},
      {"server.stmt_cache_hit_rate", "ratio"},
      {"server.protocol_errors", "count"},
      {"server.sched_lag_ms_p99", "ms"},
      {"shard.coordinator_frac", "ratio"},
      {"shard.worker_idle_frac", "ratio"},
      {"shard.morsels", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  for (int q : TpchQueries()) specs.push_back({"tpch." + TpchLabel(q) + "_ms", "ms"});
  for (int q = 0; q < morsel::kNumSsbQueries; ++q) {
    specs.push_back({"ssb." + SsbLabel(q) + "_ms", "ms"});
  }
  for (const std::string& s : ServeStatementNames()) {
    specs.push_back({"server." + s + "_ms", "ms"});
  }
  for (const std::string& s : ShardStatementNames()) {
    specs.push_back({"shard." + s + "_ms", "ms"});
  }
  return specs;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = BuildPerLayer();
  return specs;
}

std::string TpchLabel(int q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "q%02d", q);
  return buf;
}

std::string SsbLabel(int index) {
  std::string name = std::string("q") + morsel::SsbQueryName(index);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

}  // namespace e2e
