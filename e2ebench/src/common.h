#ifndef MORSELDB_E2EBENCH_COMMON_H_
#define MORSELDB_E2EBENCH_COMMON_H_

// Shared pieces of the end-to-end benchmark: run arguments, the metric
// report, answer fingerprints, latency statistics and the analysis of
// TraceRecorder morsel spans. Everything here sits outside the engine
// and reaches it only through its public headers.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/trace.h"
#include "engine/engine.h"
#include "exec/result.h"
#include "numa/mem_stats.h"
#include "server/client.h"

namespace e2e {

// --- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Records fingerprints instead of checking them (see run.py --record).
  bool record = false;
};

// The checked-in answers, relative to the repository root (run.py runs
// the binary there).
inline constexpr char kFingerprintFile[] = "e2ebench/fingerprints.txt";

// Simulated machine: 2 sockets x 2 cores, one worker per core.
inline constexpr int kSockets = 2;
inline constexpr int kCoresPerSocket = 2;
inline constexpr int kWorkers = kSockets * kCoresPerSocket;

// --- report ------------------------------------------------------------------

// Metric values of one run plus the run's answer-check tally. The
// end-to-end and per-layer name lists live in metrics.cc; Emit prints
// the set the run's mode asks for.
class Report {
 public:
  void Set(const std::string& name, double value);
  // Free-form findings printed before the result (accounting check,
  // percentile choices, context).
  void Note(const std::string& line);
  void Context(const std::string& key, const std::string& json_value);

  // One execution attempted; `ok` false counts it as failed (wrong
  // answer, error status, refused).
  void Attempt(bool ok, const std::string& what_failed = "");
  void Leak(int64_t bytes);

  bool correct() const { return failed_ == 0 && leaked_ == 0; }

  // Prints notes, one "metric" line per emitted metric, the context line
  // and, last, the result JSON. Returns the process exit code.
  int Emit(bool trace);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> context_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t leaked_ = 0;
  int failures_printed_ = 0;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// --- fingerprints --------------------------------------------------------------

// Order-independent digest of a result: row count, per column the
// wrapping sum of the integer values or of a 64-bit FNV-1a hash of the
// strings (exact), or the sum and absolute sum of the doubles (compared
// within kDoubleRelTol of the absolute sum).
inline constexpr double kDoubleRelTol = 1e-6;

struct ColumnFp {
  char kind = 'i';  // 'i' integer, 's' string, 'd' double
  uint64_t exact = 0;
  double sum = 0;
  double abs_sum = 0;
};

struct Fingerprint {
  int64_t rows = 0;
  std::vector<ColumnFp> cols;
};

uint64_t HashString(const std::string& s);
Fingerprint FingerprintOf(const morsel::ResultSet& r);
Fingerprint FingerprintOf(const morsel::server::Client::RowBatch& b);
bool FingerprintsMatch(const Fingerprint& got, const Fingerprint& want,
                       std::string* why);
std::string FormatFingerprint(const Fingerprint& fp);
bool ParseFingerprint(const std::string& text, Fingerprint* out);

// The checked-in fingerprint file: one "<key> <fingerprint>" per line.
class FingerprintBook {
 public:
  bool Load(const std::string& path);
  const Fingerprint* Find(const std::string& key) const;
  void Put(const std::string& key, const Fingerprint& fp);
  // Rewrites `path` with the existing entries plus the recorded ones.
  bool Save(const std::string& path) const;

  // While recording, a key without an entry takes the first answer.
  bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

 private:
  std::map<std::string, Fingerprint> entries_;
  bool recording_ = false;
};

// Checks `fp` against the book entry `key` and counts the execution in
// `report`.
void CheckAnswer(FingerprintBook* book, const std::string& key,
                 const Fingerprint& fp, Report* report);

// Recording: puts the answer of a 4-worker engine under keys[i] for
// every query i, then cross-checks each entry against the answer of the
// single-worker Volcano-emulation engine, counting a mismatch as failed.
// run(engine, i) executes query i on `engine`.
void RecordAnswers(
    const std::vector<std::string>& keys,
    const std::function<morsel::ResultSet(morsel::Engine&, int)>& run,
    FingerprintBook* book, Report* report);

// --- statistics ----------------------------------------------------------------

double Median(std::vector<double> xs);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> xs, double q);
double GeoMean(const std::vector<double>& xs);

// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that leaves at
// least 10 samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 50;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& xs);

// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

// --- closed loops ----------------------------------------------------------------

struct Execution {
  std::string query;  // statement or query name
  int64_t start_us = 0;
  int64_t end_us = 0;
  double latency_ms() const { return (end_us - start_us) / 1000.0; }
};

// A closed loop's queries: per query its name (executions, per-query
// metrics) and its fingerprint key.
struct QuerySet {
  std::vector<std::string> names;
  std::vector<std::string> keys;
  int size() const { return static_cast<int>(names.size()); }
};

// What one execution returned, kept until the answers are checked.
struct Outcome {
  int index = 0;
  Execution exec;
  morsel::QueryStatus status;
  Fingerprint fp;
};

// The executions of one or more closed-loop streams.
struct Stream {
  std::vector<Outcome> outcomes;
  std::vector<double> pass_s;
  int64_t begin_us = 0;
  int64_t end_us = 0;
  double measured_s() const { return (end_us - begin_us) / 1e6; }
  std::vector<Execution> Executions() const;
  // Appends `other`'s executions and passes and widens the time span.
  void Merge(Stream&& other);
};

// Runs `passes` passes over the query set, pass p in
// SeededOrder(size, salt + p); run(i) executes query i. Answers are only
// recorded, so several streams can run on their own threads.
Stream RunStream(const QuerySet& qs, uint64_t salt, int passes,
                 const std::function<morsel::ResultSet(int)>& run);

// Checks every answer of `s` against the book and counts it in `report`.
void CheckStream(const QuerySet& qs, const Stream& s, FingerprintBook* book,
                 Report* report);

// Fills the end-to-end metrics of a closed loop of `streams` streams:
// latency_p50_ms, latency_tail_ms, geomean_ms, power_s (median pass),
// throughput_qps (executions over the measured time) and max_rate_qps
// (a closed loop has no rate ladder; its highest rate is the one its
// faster passes reach: streams x queries per pass over the first
// quartile of pass times).
void ClosedLoopMetrics(const Stream& s, int streams, int queries_per_pass,
                       Report* report);

// Sets setup_s (median of the timed set-ups) and storage.load_s (median
// of their data generation) and notes the set-up count and range.
void SetupMetrics(const std::vector<double>& setup_s,
                  const std::vector<double>& load_s, Report* report);

// Sets prefix + name + "_ms" to each query's median latency.
void PerQueryMetrics(const std::vector<Execution>& execs,
                     const std::string& prefix, Report* report);

// Sets peak_rss_mb and numa.leaked_bytes (NumaAllocatedBytes() against
// `numa_baseline`); a leak fails the run. Call after the teardown.
void FinishRun(size_t numa_baseline, Report* report);

// --- trace analysis ----------------------------------------------------------------

struct Span {
  int64_t start_us = 0;
  int64_t end_us = 0;
  int worker = 0;
  int query = 0;
  int pipeline = 0;
  bool stolen = false;
};

// Reads the events a TraceRecorder gained since the previous call.
// Call only while the engine runs no queries.
class TraceCursor {
 public:
  explicit TraceCursor(const morsel::TraceRecorder* rec);
  std::vector<Span> TakeNew(int engine_tag = 0);

 private:
  const morsel::TraceRecorder* rec_;
  std::vector<size_t> seen_;
};

// Morsel-span accounting over the wall-time windows of a set of
// executions.
struct TraceSummary {
  int64_t morsels = 0;
  double morsel_us_p50 = 0;
  double stolen_frac = 0;
  double busy_s = 0;           // sum of morsel time
  double wall_s = 0;           // union of the execution windows
  double uncovered_s = 0;      // window time covered by no morsel span
  double worker_idle_frac = 0; // 1 - busy / (workers x wall)
  int64_t pipelines = 0;       // distinct (tag, query, pipeline)
};
TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::vector<Execution>& execs, int workers);

// Accounting check: prints every execution with more than 10% of its
// wall time outside any morsel span, and how many there were.
void AccountingCheck(const std::vector<Span>& spans,
                     const std::vector<Execution>& execs, int workers,
                     Report* report);

// Fills the per-layer metrics common to every traced phase -- core.*,
// exec.busy_s/pipelines/compact_calls, engine.unattributed_frac and
// numa.* traffic, counts per pass -- and runs the accounting check.
TraceSummary TracedPhaseMetrics(const std::vector<Span>& spans,
                                const std::vector<Execution>& execs,
                                const morsel::TrafficSnapshot& traffic,
                                double passes, int64_t compact_calls,
                                Report* report);

// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int> SeededOrder(int n, uint64_t seed);

int64_t NowUs();

}  // namespace e2e

#endif  // MORSELDB_E2EBENCH_COMMON_H_
