// e2ebench: morselDB's end-to-end benchmark. One workload per run; the
// last line of standard output is the result JSON (see run.py, which
// builds this binary and is the command to use).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--record]
//   e2ebench --selftest
//   e2ebench --list-metrics

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace e2e {

morsel::Topology MachineTopology() {
  return morsel::Topology(kSockets, kCoresPerSocket,
                          morsel::InterconnectKind::kFullyConnected);
}

void HostContext(const Args& args, Report* report) {
  report->Context("workload", "\"" + args.workload + "\"");
  report->Context("seed", std::to_string(args.seed));
  report->Context("seconds", std::to_string(args.seconds));
  report->Context("trace", args.trace ? "true" : "false");
  report->Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  char topo[64];
  std::snprintf(topo, sizeof(topo), "\"%d sockets x %d cores\"", kSockets,
                kCoresPerSocket);
  report->Context("simulated_topology", topo);
  report->Context("workers_per_engine", std::to_string(kWorkers));
  report->Context("build_type", "\"" E2E_BUILD_TYPE "\"");
#ifdef __clang__
  report->Context("compiler", "\"clang " __clang_version__ "\"");
#else
  report->Context("compiler", "\"g++ " __VERSION__ "\"");
#endif
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--record]\n"
               "       e2ebench --selftest | --list-metrics\n"
               "workloads: tpch_power ssb_streams serve_ingest shard_tpch\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return RunSelfTests() == 0 ? 0 : 1;
    if (a == "--list-metrics") {
      for (const MetricSpec& m : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const MetricSpec& m : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      return 0;
    }
    if (a == "--record") {
      args.record = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  FingerprintBook book;
  if (!book.Load(kFingerprintFile) && !args.record) {
    std::fprintf(stderr, "e2ebench: cannot read %s\n", kFingerprintFile);
    return 2;
  }
  book.set_recording(args.record);

  Report report;
  HostContext(args, &report);
  if (args.workload == "tpch_power") {
    RunTpchPower(args, &book, &report);
  } else if (args.workload == "ssb_streams") {
    RunSsbStreams(args, &book, &report);
  } else if (args.workload == "serve_ingest") {
    RunServeIngest(args, &book, &report);
  } else if (args.workload == "shard_tpch") {
    RunShardTpch(args, &book, &report);
  } else {
    return Usage();
  }
  if (args.record && !book.Save(kFingerprintFile)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", kFingerprintFile);
    return 2;
  }
  return report.Emit(args.trace);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
