// Host-capacity probe. The host's usable parallelism can change from one
// minute to the next, so every run measures it at its start and its end:
// k threads each spin the same fixed amount of integer work, and the
// probe reports scaling(k) = k * wall(1) / wall(k) for k = 1..max_threads.
// A run whose scaling at max_threads moved by more than a quarter between
// start and end is flagged, so its figures can be read with that in mind.

#ifndef PERFBENCH_CAPACITY_H_
#define PERFBENCH_CAPACITY_H_

#include <vector>

namespace perfbench {

/// scaling[k - 1] for k = 1..max_threads (best of five trials each).
std::vector<double> ProbeCapacity(int max_threads);

/// True when the scaling at the largest thread count moved by more than
/// 25% between the two probes.
bool CapacityShifted(const std::vector<double>& start,
                     const std::vector<double>& end);

}  // namespace perfbench

#endif  // PERFBENCH_CAPACITY_H_
