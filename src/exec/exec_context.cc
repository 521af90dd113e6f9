#include "exec/exec_context.h"

#include <chrono>
#include <thread>

#include "common/fault_injector.h"
#include "common/query_status.h"

namespace morsel {

void CheckQueryInterrupt(QueryContext* q) {
  if (q == nullptr) return;
  if (FaultInjector* fi = q->fault_injector()) {
    int64_t stall_us = fi->OnInterruptCheck();
    if (stall_us > 0) {
      // Injected slow/wedged worker: the stall sits *between* the
      // checks, so the stalled worker still honors cancellation right
      // after — chaos runs assert overall progress, not per-worker.
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
  }
  if (q->cancelled()) {
    // Carry the already-set structured error if there is one; a plain
    // user cancel unwinds as kCancelled.
    throw QueryAbort(q->has_error() ? q->status()
                                    : QueryStatus::Cancelled());
  }
  if (q->DeadlineExpired()) {
    throw QueryAbort(QueryStatus::DeadlineExceeded());
  }
}

}  // namespace morsel
