#ifndef MORSELDB_E2EBENCH_WORKLOADS_H_
#define MORSELDB_E2EBENCH_WORKLOADS_H_

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/timer.h"
#include "numa/topology.h"

namespace e2e {

// Each workload sets up its data, measures for args.seconds, checks every
// answer against `book` and fills `report`. With args.trace it splits
// the time into an untraced and a traced half and fills the per-layer
// metrics instead. In record mode it also cross-checks every recorded
// fingerprint against the single-worker Volcano-emulation engine.
void RunTpchPower(const Args& args, FingerprintBook* book, Report* report);
void RunSsbStreams(const Args& args, FingerprintBook* book, Report* report);
void RunServeIngest(const Args& args, FingerprintBook* book, Report* report);
void RunShardTpch(const Args& args, FingerprintBook* book, Report* report);

// Self-tests of the benchmark's own pieces; returns the failure count.
int RunSelfTests();

const std::vector<std::string>& ServeStatementNames();
const std::vector<std::string>& ShardStatementNames();
// The TPC-H queries tpch_power runs, and the names of queries in
// executions and per-query metrics ("q01", "q1_1").
std::vector<int> TpchQueries();
std::string TpchLabel(int q);
std::string SsbLabel(int index);

morsel::Topology MachineTopology();

// Runs `make` at least kMinSetups times and until kMinSetupSeconds have
// been spent in it (at most kMaxSetups times), timing each call but not
// the teardown of the discarded results, and returns the last result.
// Cheap setups repeat more, so their median is as steady as a slow one's.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 25;
inline constexpr double kMinSetupSeconds = 2.0;

template <typename Make>
auto TimedSetups(Make make, std::vector<double>* times) {
  double spent = 0;
  for (int i = 1;; ++i) {
    {
      morsel::WallTimer t;
      auto result = make();
      times->push_back(t.ElapsedSeconds());
      spent += times->back();
      if (i >= kMaxSetups || (i >= kMinSetups && spent >= kMinSetupSeconds)) {
        return result;
      }
    }
    // Hand the discarded set-up's memory back to the OS, so every set-up
    // starts from the same heap state as the first one in a process.
    malloc_trim(0);
  }
}

// Closed loops run a fixed number of passes for a given --seconds: as
// many as fit at the nominal pass time measured on the 4-core reference
// host. Every run and every commit then does the same work and takes the
// same number of samples, so the tail percentile does not flip between
// runs, and a faster engine finishes sooner instead of sampling more.
inline int PassesFor(double seconds, double nominal_pass_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_pass_s)));
}

// Records host and build context common to every workload.
void HostContext(const Args& args, Report* report);

// trace.overhead_frac: traced over untraced value of the same measure.
inline double OverheadFrac(double traced, double untraced) {
  return untraced > 0 ? traced / untraced - 1.0 : 0.0;
}

}  // namespace e2e

#endif  // MORSELDB_E2EBENCH_WORKLOADS_H_
