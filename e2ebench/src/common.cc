#include "common.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "common/rng.h"
#include "common/timer.h"
#include "numa/allocator.h"
#include "volcano/volcano.h"
#include "workloads.h"

namespace e2e {

using morsel::LogicalType;
using morsel::ResultSet;

// --- report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Context(const std::string& key, const std::string& json_value) {
  context_.emplace_back(key, json_value);
}

void Report::Attempt(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Every failure counts; the first few are printed with their reason.
  if (failures_printed_ < 20) {
    ++failures_printed_;
    Note("FAILED: " + what_failed);
  }
}

void Report::Leak(int64_t bytes) {
  leaked_ = bytes;
  if (bytes != 0) {
    Note("FAILED: NumaAllocatedBytes() is " + std::to_string(bytes) +
         " bytes above its baseline at workload end");
  }
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int Report::Emit(bool trace) {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricSpec& m : specs) {
    auto it = values_.find(m.name);
    double v = 0;
    if (it != values_.end()) {
      v = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "e2ebench: end-to-end metric %s not measured\n",
                   m.name.c_str());
      return 3;
    }
    std::printf("metric %-28s %16s %s%s\n", m.name.c_str(),
                JsonNumber(v).c_str(), m.unit.c_str(),
                it == values_.end() ? "  (not exercised)" : "");
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               JsonNumber(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("metric %-28s %16s ratio  (%" PRId64 " failed / %" PRId64
              " attempted)\n",
              "error_rate",
              JsonNumber(attempted_ > 0 ? static_cast<double>(failed_) /
                                              static_cast<double>(attempted_)
                                        : 0)
                  .c_str(),
              failed_, attempted_);
  std::string ctx;
  for (const auto& [k, v] : context_) {
    if (!ctx.empty()) ctx += ", ";
    ctx += "\"" + k + "\": " + v;
  }
  std::printf("context {%s}\n", ctx.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": {%s}}\n",
      correct() ? "true" : "false", attempted_, failed_ + (leaked_ ? 1 : 0),
      metrics.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// --- fingerprints ----------------------------------------------------------------

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Fingerprint FingerprintOf(const ResultSet& r) {
  Fingerprint fp;
  fp.rows = r.num_rows();
  for (int c = 0; c < r.num_cols(); ++c) {
    ColumnFp col;
    switch (r.type(c)) {
      case LogicalType::kInt32:
        for (int64_t i = 0; i < r.num_rows(); ++i) {
          col.exact += static_cast<uint64_t>(static_cast<int64_t>(r.I32(i, c)));
        }
        break;
      case LogicalType::kInt64:
        for (int64_t i = 0; i < r.num_rows(); ++i) {
          col.exact += static_cast<uint64_t>(r.I64(i, c));
        }
        break;
      case LogicalType::kDouble:
        col.kind = 'd';
        for (int64_t i = 0; i < r.num_rows(); ++i) {
          col.sum += r.F64(i, c);
          col.abs_sum += std::fabs(r.F64(i, c));
        }
        break;
      case LogicalType::kString:
        col.kind = 's';
        for (int64_t i = 0; i < r.num_rows(); ++i) {
          col.exact += HashString(r.Str(i, c));
        }
        break;
    }
    fp.cols.push_back(col);
  }
  return fp;
}

Fingerprint FingerprintOf(const morsel::server::Client::RowBatch& b) {
  Fingerprint fp;
  fp.rows = b.num_rows;
  for (const auto& c : b.cols) {
    ColumnFp col;
    switch (c.type) {
      case LogicalType::kInt32:
      case LogicalType::kInt64:
        for (int64_t v : c.ints) col.exact += static_cast<uint64_t>(v);
        break;
      case LogicalType::kDouble:
        col.kind = 'd';
        for (double v : c.doubles) {
          col.sum += v;
          col.abs_sum += std::fabs(v);
        }
        break;
      case LogicalType::kString:
        col.kind = 's';
        for (const std::string& s : c.strings) col.exact += HashString(s);
        break;
    }
    fp.cols.push_back(col);
  }
  return fp;
}

bool FingerprintsMatch(const Fingerprint& got, const Fingerprint& want,
                       std::string* why) {
  if (got.rows != want.rows) {
    *why = "rows " + std::to_string(got.rows) + " != " +
           std::to_string(want.rows);
    return false;
  }
  if (got.cols.size() != want.cols.size()) {
    *why = "column count differs";
    return false;
  }
  for (size_t c = 0; c < got.cols.size(); ++c) {
    const ColumnFp& g = got.cols[c];
    const ColumnFp& w = want.cols[c];
    if (g.kind != w.kind) {
      *why = "column " + std::to_string(c) + " type differs";
      return false;
    }
    if (g.kind != 'd') {
      if (g.exact != w.exact) {
        *why = "column " + std::to_string(c) + " exact sum differs";
        return false;
      }
      continue;
    }
    const double tol = kDoubleRelTol * std::max(w.abs_sum, 1e-12);
    if (std::fabs(g.sum - w.sum) > tol ||
        std::fabs(g.abs_sum - w.abs_sum) > tol) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "column %zu double sum %.17g != %.17g (tolerance %.3g)", c,
                    g.sum, w.sum, tol);
      *why = buf;
      return false;
    }
  }
  return true;
}

std::string FormatFingerprint(const Fingerprint& fp) {
  std::string out = std::to_string(fp.rows);
  char buf[96];
  for (const ColumnFp& c : fp.cols) {
    if (c.kind == 'd') {
      std::snprintf(buf, sizeof(buf), " d%.17g,%.17g", c.sum, c.abs_sum);
    } else {
      std::snprintf(buf, sizeof(buf), " %c%" PRIu64, c.kind, c.exact);
    }
    out += buf;
  }
  return out;
}

bool ParseFingerprint(const std::string& text, Fingerprint* out) {
  std::istringstream in(text);
  Fingerprint fp;
  if (!(in >> fp.rows)) return false;
  std::string tok;
  while (in >> tok) {
    ColumnFp c;
    c.kind = tok[0];
    const char* rest = tok.c_str() + 1;
    char* end = nullptr;
    if (c.kind == 'd') {
      c.sum = std::strtod(rest, &end);
      if (end == nullptr || *end != ',') return false;
      c.abs_sum = std::strtod(end + 1, &end);
    } else if (c.kind == 'i' || c.kind == 's') {
      c.exact = std::strtoull(rest, &end, 10);
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0') return false;
    fp.cols.push_back(c);
  }
  *out = fp;
  return true;
}

bool FingerprintBook::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.find(' ');
    Fingerprint fp;
    if (sp == std::string::npos || !ParseFingerprint(line.substr(sp + 1), &fp)) {
      std::fprintf(stderr, "e2ebench: bad fingerprint line: %s\n",
                   line.c_str());
      return false;
    }
    entries_[line.substr(0, sp)] = fp;
  }
  return true;
}

const Fingerprint* FingerprintBook::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void FingerprintBook::Put(const std::string& key, const Fingerprint& fp) {
  entries_[key] = fp;
}

bool FingerprintBook::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Result fingerprints of the e2ebench queries at their fixed scale\n"
         "# factors: <key> <rows> then per column i<int sum> | s<string-hash "
         "sum>\n"
         "# | d<double sum>,<double abs sum>. Written by run.py --record, "
         "which\n"
         "# cross-checks every entry against a single-worker Volcano "
         "engine.\n";
  for (const auto& [k, fp] : entries_) {
    out << k << ' ' << FormatFingerprint(fp) << '\n';
  }
  return static_cast<bool>(out);
}

void CheckAnswer(FingerprintBook* book, const std::string& key,
                 const Fingerprint& fp, Report* report) {
  const Fingerprint* want = book->Find(key);
  if (want == nullptr) {
    if (book->recording()) {
      book->Put(key, fp);
      report->Attempt(true);
    } else {
      report->Attempt(false, key + ": no fingerprint recorded");
    }
    return;
  }
  std::string why;
  const bool ok = FingerprintsMatch(fp, *want, &why);
  report->Attempt(ok, key + ": " + why);
}

void RecordAnswers(
    const std::vector<std::string>& keys,
    const std::function<ResultSet(morsel::Engine&, int)>& run,
    FingerprintBook* book, Report* report) {
  const int n = static_cast<int>(keys.size());
  {
    morsel::EngineOptions opts;
    opts.num_workers = kWorkers;
    morsel::Engine engine(MachineTopology(), opts);
    for (int i = 0; i < n; ++i) book->Put(keys[i], FingerprintOf(run(engine, i)));
  }
  morsel::EngineOptions vopts = morsel::MakeVolcanoOptions();
  vopts.num_workers = 1;
  morsel::Engine volcano(MachineTopology(), vopts);
  for (int i = 0; i < n; ++i) {
    std::string why;
    const bool ok = FingerprintsMatch(FingerprintOf(run(volcano, i)),
                                      *book->Find(keys[i]), &why);
    report->Attempt(ok, keys[i] + " (Volcano cross-check): " + why);
  }
}

// --- statistics ------------------------------------------------------------------

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(xs.size()));
}

Tail TailOf(const std::vector<double>& xs) {
  Tail t;
  t.samples = xs.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // The epsilon keeps e.g. 100 x (1 - 0.90) from rounding below 10.
    if (static_cast<double>(xs.size()) * (100.0 - p) / 100.0 >= 10.0 - 1e-9 ||
        p == 50.0) {
      t.percentile = p;
      t.value = Quantile(xs, p / 100.0);
      return t;
    }
  }
  return t;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- closed loops ------------------------------------------------------------------

std::vector<Execution> Stream::Executions() const {
  std::vector<Execution> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) out.push_back(o.exec);
  return out;
}

void Stream::Merge(Stream&& other) {
  begin_us = outcomes.empty() ? other.begin_us
                              : std::min(begin_us, other.begin_us);
  end_us = std::max(end_us, other.end_us);
  for (Outcome& o : other.outcomes) outcomes.push_back(std::move(o));
  pass_s.insert(pass_s.end(), other.pass_s.begin(), other.pass_s.end());
}

Stream RunStream(const QuerySet& qs, uint64_t salt, int passes,
                 const std::function<ResultSet(int)>& run) {
  Stream s;
  s.begin_us = NowUs();
  for (int pass = 0; pass < passes; ++pass) {
    const int64_t p0 = NowUs();
    for (int i : SeededOrder(qs.size(), salt + static_cast<uint64_t>(pass))) {
      Outcome o;
      o.index = i;
      o.exec.query = qs.names[i];
      o.exec.start_us = NowUs();
      ResultSet r = run(i);
      o.exec.end_us = NowUs();
      o.status = r.status();
      if (r.ok()) o.fp = FingerprintOf(r);
      s.outcomes.push_back(std::move(o));
    }
    s.pass_s.push_back((NowUs() - p0) / 1e6);
  }
  s.end_us = NowUs();
  return s;
}

void CheckStream(const QuerySet& qs, const Stream& s, FingerprintBook* book,
                 Report* report) {
  for (const Outcome& o : s.outcomes) {
    const std::string& key = qs.keys[o.index];
    if (!o.status.ok()) {
      report->Attempt(false, key + ": " + o.status.ToString());
    } else {
      CheckAnswer(book, key, o.fp, report);
    }
  }
}

namespace {

std::map<std::string, double> PerQueryMedianMs(
    const std::vector<Execution>& execs) {
  std::map<std::string, std::vector<double>> by;
  for (const Execution& e : execs) by[e.query].push_back(e.latency_ms());
  std::map<std::string, double> out;
  for (auto& [q, xs] : by) out[q] = Median(std::move(xs));
  return out;
}

}  // namespace

void ClosedLoopMetrics(const Stream& s, int streams, int queries_per_pass,
                       Report* report) {
  const std::vector<Execution> execs = s.Executions();
  std::vector<double> lat;
  lat.reserve(execs.size());
  for (const Execution& e : execs) lat.push_back(e.latency_ms());
  const Tail tail = TailOf(lat);
  report->Set("latency_p50_ms", Median(lat));
  report->Set("latency_tail_ms", tail.value);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms is p%g over %zu executions (%.0f beyond it)",
                tail.percentile, tail.samples,
                static_cast<double>(tail.samples) *
                    (1.0 - tail.percentile / 100.0));
  report->Note(buf);
  report->Context("latency_tail_percentile", JsonNumber(tail.percentile));
  report->Context("latency_samples", std::to_string(tail.samples));
  std::vector<double> medians;
  for (const auto& [q, m] : PerQueryMedianMs(execs)) medians.push_back(m);
  report->Set("geomean_ms", GeoMean(medians));
  report->Set("power_s", Median(s.pass_s));
  report->Set("throughput_qps",
              static_cast<double>(s.outcomes.size()) / s.measured_s());
  report->Set("max_rate_qps", static_cast<double>(streams * queries_per_pass) /
                                  Quantile(s.pass_s, 0.25));
}

void SetupMetrics(const std::vector<double>& setup_s,
                  const std::vector<double>& load_s, Report* report) {
  report->Set("setup_s", Median(setup_s));
  report->Set("storage.load_s", Median(load_s));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "setup_s is the median of %zu set-ups (%.4g s .. %.4g s)",
                setup_s.size(),
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
  report->Note(buf);
}

void PerQueryMetrics(const std::vector<Execution>& execs,
                     const std::string& prefix, Report* report) {
  for (const auto& [q, ms] : PerQueryMedianMs(execs)) {
    report->Set(prefix + q + "_ms", ms);
  }
}

void FinishRun(size_t numa_baseline, Report* report) {
  report->Set("peak_rss_mb", PeakRssMb());
  const int64_t leaked = static_cast<int64_t>(morsel::NumaAllocatedBytes()) -
                         static_cast<int64_t>(numa_baseline);
  report->Set("numa.leaked_bytes", static_cast<double>(leaked));
  report->Leak(leaked);
}

// --- trace analysis ------------------------------------------------------------------

TraceCursor::TraceCursor(const morsel::TraceRecorder* rec)
    : rec_(rec), seen_(rec->num_workers(), 0) {}

std::vector<Span> TraceCursor::TakeNew(int engine_tag) {
  std::vector<Span> out;
  for (int w = 0; w < rec_->num_workers(); ++w) {
    const auto& evs = rec_->worker_events(w);
    for (size_t i = seen_[w]; i < evs.size(); ++i) {
      const morsel::TraceEvent& e = evs[i];
      out.push_back(Span{e.start_us, e.end_us, engine_tag * 1000 + e.worker,
                         engine_tag * 1000000 + e.query, e.pipeline,
                         e.stolen});
    }
    seen_[w] = evs.size();
  }
  return out;
}

namespace {

using Interval = std::pair<int64_t, int64_t>;

std::vector<Interval> Union(std::vector<Interval> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<Interval> out;
  for (const Interval& x : xs) {
    if (x.second <= x.first) continue;
    if (!out.empty() && x.first <= out.back().second) {
      out.back().second = std::max(out.back().second, x.second);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

int64_t Length(const std::vector<Interval>& xs) {
  int64_t n = 0;
  for (const Interval& x : xs) n += x.second - x.first;
  return n;
}

// Length of the intersection of two disjoint, sorted interval lists.
int64_t Overlap(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  int64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) n += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

std::vector<Interval> SpanIntervals(const std::vector<Span>& spans) {
  std::vector<Interval> xs;
  xs.reserve(spans.size());
  for (const Span& s : spans) xs.emplace_back(s.start_us, s.end_us);
  return xs;
}

}  // namespace

TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::vector<Execution>& execs, int workers) {
  TraceSummary s;
  s.morsels = static_cast<int64_t>(spans.size());
  std::vector<double> durs;
  durs.reserve(spans.size());
  int64_t stolen = 0;
  std::set<std::pair<int, int>> pipes;
  for (const Span& sp : spans) {
    durs.push_back(static_cast<double>(sp.end_us - sp.start_us));
    s.busy_s += static_cast<double>(sp.end_us - sp.start_us) / 1e6;
    stolen += sp.stolen ? 1 : 0;
    pipes.emplace(sp.query, sp.pipeline);
  }
  s.morsel_us_p50 = Median(durs);
  s.stolen_frac =
      spans.empty() ? 0 : static_cast<double>(stolen) / spans.size();
  s.pipelines = static_cast<int64_t>(pipes.size());
  std::vector<Interval> wins;
  for (const Execution& e : execs) wins.emplace_back(e.start_us, e.end_us);
  const std::vector<Interval> wall = Union(std::move(wins));
  s.wall_s = static_cast<double>(Length(wall)) / 1e6;
  const std::vector<Interval> covered = Union(SpanIntervals(spans));
  s.uncovered_s =
      static_cast<double>(Length(wall) - Overlap(wall, covered)) / 1e6;
  s.worker_idle_frac =
      s.wall_s > 0 ? 1.0 - s.busy_s / (workers * s.wall_s) : 0;
  return s;
}

void AccountingCheck(const std::vector<Span>& spans,
                     const std::vector<Execution>& execs, int workers,
                     Report* report) {
  std::vector<Span> sorted = spans;
  std::sort(sorted.begin(), sorted.end(),
            [](const Span& a, const Span& b) { return a.start_us < b.start_us; });
  int64_t max_dur = 0;
  for (const Span& s : sorted) max_dur = std::max(max_dur, s.end_us - s.start_us);
  int flagged = 0;
  for (const Execution& w : execs) {
    const int64_t wall = w.end_us - w.start_us;
    if (wall <= 0) continue;
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), w.start_us - max_dur,
        [](const Span& s, int64_t t) { return s.start_us < t; });
    int64_t busy = 0;
    std::vector<Interval> in;
    for (; it != sorted.end() && it->start_us < w.end_us; ++it) {
      const int64_t lo = std::max(it->start_us, w.start_us);
      const int64_t hi = std::min(it->end_us, w.end_us);
      if (hi <= lo) continue;
      busy += hi - lo;
      in.emplace_back(lo, hi);
    }
    const int64_t covered = Length(Union(std::move(in)));
    const double unattributed = 1.0 - static_cast<double>(covered) / wall;
    if (unattributed <= 0.10) continue;
    ++flagged;
    if (flagged <= 25) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "accounting: %s wall=%.3fms morsel=%.3fms idle=%.3fms of "
                    "%d x wall, %.1f%% of wall outside any morsel span",
                    w.query.c_str(), wall / 1000.0, busy / 1000.0,
                    (static_cast<double>(workers) * wall - busy) / 1000.0,
                    workers, 100.0 * unattributed);
      report->Note(buf);
    }
  }
  report->Note("accounting: " + std::to_string(flagged) + " of " +
               std::to_string(execs.size()) +
               " executions have more than 10% of their wall time outside "
               "any morsel span");
}

TraceSummary TracedPhaseMetrics(const std::vector<Span>& spans,
                                const std::vector<Execution>& execs,
                                const morsel::TrafficSnapshot& traffic,
                                double passes, int64_t compact_calls,
                                Report* report) {
  const TraceSummary s = Summarize(spans, execs, kWorkers);
  const double p = std::max(passes, 1e-9);
  report->Set("core.morsels", static_cast<double>(s.morsels) / p);
  report->Set("core.morsel_us_p50", s.morsel_us_p50);
  report->Set("core.stolen_frac", s.stolen_frac);
  report->Set("core.worker_idle_frac", s.worker_idle_frac);
  report->Set("exec.busy_s", s.busy_s / p);
  report->Set("exec.pipelines", static_cast<double>(s.pipelines) / p);
  report->Set("exec.compact_calls", static_cast<double>(compact_calls) / p);
  report->Set("engine.unattributed_frac",
              s.wall_s > 0 ? s.uncovered_s / s.wall_s : 0);
  const double mb = 1024.0 * 1024.0 * p;
  report->Set("numa.read_mb", static_cast<double>(traffic.bytes_read()) / mb);
  report->Set("numa.written_mb",
              static_cast<double>(traffic.bytes_written()) / mb);
  report->Set("numa.remote_pct", traffic.RemotePercent());
  report->Set("numa.max_link_pct", traffic.MaxLinkPercent());
  AccountingCheck(spans, execs, kWorkers, report);
  return s;
}

std::vector<int> SeededOrder(int n, uint64_t seed) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  morsel::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(0, i)]);
  }
  return order;
}

int64_t NowUs() { return morsel::WallTimer::NowMicros(); }

}  // namespace e2e
