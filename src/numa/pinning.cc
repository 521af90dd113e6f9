#include "numa/pinning.h"

#include <sched.h>

#include <cstdlib>
#include <thread>

namespace morsel {

int PinThreadToCpu(int cpu_slot, pthread_t thread) {
  if (std::getenv("MORSEL_NO_PINNING") != nullptr) return -1;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0 || cpu_slot < 0) return -1;
  int cpu = cpu_slot % static_cast<int>(hw);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(thread, sizeof(set), &set) == 0 ? cpu : -1;
}

}  // namespace morsel
