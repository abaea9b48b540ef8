#include "capacity.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

namespace perfbench {

namespace {

// About 10 ms of dependent integer work on one core of a current x86 host.
uint64_t Spin(uint64_t seed) {
  uint64_t x = seed | 1;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double WallSeconds(int threads) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(threads);
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] { sink[t] = Spin(t + 1); });
  }
  for (std::thread& th : pool) th.join();
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  // Keep the work observable so it is not optimized away.
  volatile uint64_t keep = 0;
  for (uint64_t v : sink) keep = keep + v;
  (void)keep;
  return wall.count();
}

// The fastest of five trials: what the host can give when it is least
// disturbed during the probe.
double BestWall(int threads) {
  double best = WallSeconds(threads);
  for (int i = 1; i < 5; ++i) best = std::min(best, WallSeconds(threads));
  return best;
}

}  // namespace

std::vector<double> ProbeCapacity(int max_threads) {
  std::vector<double> scaling;
  double one = BestWall(1);
  for (int k = 1; k <= max_threads; ++k) {
    double wall = k == 1 ? one : BestWall(k);
    scaling.push_back(k * one / wall);
  }
  return scaling;
}

bool CapacityShifted(const std::vector<double>& start,
                     const std::vector<double>& end) {
  if (start.empty() || end.empty()) return false;
  double a = start.back();
  double b = end.back();
  return std::fabs(a - b) > 0.25 * a;
}

}  // namespace perfbench
