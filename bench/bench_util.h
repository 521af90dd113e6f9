#ifndef MORSELDB_BENCH_BENCH_UTIL_H_
#define MORSELDB_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction bench binaries. Each binary
// regenerates one table or figure of the paper (see DESIGN.md §3) and is
// tuned to finish in seconds on a small container; environment knobs:
//
//   MORSEL_BENCH_SF       TPC-H/SSB scale factor   (default 0.02 / 0.05)
//   MORSEL_BENCH_WORKERS  worker threads           (default topo cores)
//   MORSEL_SOCKETS / MORSEL_CORES_PER_SOCKET  virtual topology
//   MORSEL_BENCH_ALL      =1 -> run full query sets where a subset is
//                         the default

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "numa/topology.h"

namespace morsel {
namespace bench {

#ifndef MORSEL_BUILD_TYPE
#define MORSEL_BUILD_TYPE "unknown"
#endif

// CMake build type of this binary, for the reports' host block.
inline constexpr const char* kBuildType = MORSEL_BUILD_TYPE;

// `git describe --always --dirty` of the working directory, for the
// reports' host block; "unknown" outside a git checkout.
inline std::string GitSha() {
  std::string sha;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

// The host's transparent-huge-page mode — the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled (read only), for the
// reports' host block; "unknown" where the file is missing.
inline std::string ThpMode() {
  std::string mode = "unknown";
  if (FILE* f = std::fopen("/sys/kernel/mm/transparent_hugepage/enabled",
                           "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, f) != nullptr) {
      const std::string line = buf;
      const size_t open = line.find('[');
      const size_t close = line.find(']', open);
      if (open != std::string::npos && close != std::string::npos) {
        mode = line.substr(open + 1, close - open - 1);
      }
    }
    std::fclose(f);
  }
  return mode;
}

inline double GetSf(double def) {
  if (const char* env = std::getenv("MORSEL_BENCH_SF")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return def;
}

inline int GetWorkers(int def) {
  if (const char* env = std::getenv("MORSEL_BENCH_WORKERS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return def;
}

inline bool RunAll() { return std::getenv("MORSEL_BENCH_ALL") != nullptr; }

// Morsel size for benches over scaled-down data: the paper's 100k
// default assumes SF-100-sized inputs; scaled to bench data so each
// socket still holds many morsels (locality + load balancing both need
// morsel_count >> workers).
inline uint64_t GetMorselSize(uint64_t def) {
  if (const char* env = std::getenv("MORSEL_BENCH_MORSEL_SIZE")) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return def;
}

// Default bench topology: the paper's 4-socket shape when the host has
// enough cores, otherwise one virtual core per physical core (2 sockets)
// so that workers are not timeshared — oversubscription makes whichever
// worker the OS runs drain its socket and steal, which distorts the
// locality metrics (see EXPERIMENTS.md).
inline Topology BenchTopology() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  int sockets = hw >= 8 ? 4 : 2;
  int cores = std::max(1, static_cast<int>(hw) / sockets);
  if (const char* env = std::getenv("MORSEL_SOCKETS")) {
    sockets = std::max(1, std::atoi(env));
  }
  if (const char* env = std::getenv("MORSEL_CORES_PER_SOCKET")) {
    cores = std::max(1, std::atoi(env));
  }
  return Topology(sockets, cores, InterconnectKind::kFullyConnected);
}

// Median-of-k query timer (first run warms caches/allocators).
template <typename Fn>
double TimeQuerySeconds(Fn&& fn, int repeats = 3) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    WallTimer t;
    fn();
    times.push_back(t.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

inline double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace morsel

#endif  // MORSELDB_BENCH_BENCH_UTIL_H_
