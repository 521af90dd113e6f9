#ifndef MORSELDB_E2EBENCH_OPEN_LOOP_H_
#define MORSELDB_E2EBENCH_OPEN_LOOP_H_

// Open-loop request generation: a seeded schedule of due times over a
// ladder of fixed-rate rungs, and the loop that sends each request at
// its due time. Latency is taken from the due time, not the send time,
// so a stall also charges the requests queued behind it; the send lag
// (send - due) is how late the generator ran.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"

namespace e2e {

struct Rung {
  int64_t start_us = 0;
  int64_t end_us = 0;
  double qps = 0;  // over all connections
};

struct Request {
  int64_t due_us = 0;
  int rung = 0;
  int stmt = 0;
  bool sent = false;  // false: dropped, its rung ended before it went out
  bool ok = false;
  int64_t send_us = 0;
  int64_t executed_us = 0;
  int64_t done_us = 0;
  std::string error;
  Fingerprint fp;
  // Ingest statement only: sealed rows before EXECUTE, announced rows
  // after FETCH.
  int64_t sealed_before = 0;
  int64_t announced_after = 0;

  double latency_ms() const { return (done_us - due_us) / 1000.0; }
  double lag_ms() const { return (send_us - due_us) / 1000.0; }
};

// One connection's share of the ladder: each rung's requests are spread
// evenly over it and jittered uniformly within their slot, so a rung
// always offers exactly its rate; statements are drawn uniformly.
inline std::vector<Request> Schedule(const std::vector<Rung>& rungs,
                                     int num_stmts, int connections,
                                     uint64_t seed, int conn) {
  std::vector<Request> reqs;
  morsel::Rng rng(seed * 1000003 + static_cast<uint64_t>(conn));
  for (int r = 0; r < static_cast<int>(rungs.size()); ++r) {
    const double span_us =
        static_cast<double>(rungs[r].end_us - rungs[r].start_us);
    const int n = static_cast<int>(rungs[r].qps * span_us / 1e6 / connections);
    for (int i = 0; i < n; ++i) {
      Request q;
      q.rung = r;
      q.due_us = rungs[r].start_us +
                 static_cast<int64_t>((i + rng.NextDouble()) * span_us / n);
      q.stmt = static_cast<int>(rng.Uniform(0, num_stmts - 1));
      reqs.push_back(q);
    }
  }
  return reqs;
}

// Sends every request of one connection at its due time through
// `send(Request*)`, which fills the outcome. A request that could not go
// out within `grace_us` after its rung ended is dropped (sent stays
// false), so an overloaded rung does not eat into the next one.
template <typename Send>
void DriveOpenLoop(std::vector<Request>* reqs, const std::vector<Rung>& rungs,
                   int64_t grace_us, Send send) {
  for (Request& q : *reqs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::microseconds(q.due_us)));
    const int64_t now = NowUs();
    if (now >= rungs[q.rung].end_us + grace_us) continue;
    q.sent = true;
    q.send_us = now;
    send(&q);
  }
}

}  // namespace e2e

#endif  // MORSELDB_E2EBENCH_OPEN_LOOP_H_
