/**
 * @file
 * The open-loop generator: sends on a seeded Poisson schedule whether
 * or not earlier requests have finished, and hands every request its
 * *due* time, so latency is measured from when the request should
 * have left.  A stalled generator then shows up in the latency of the
 * requests it sent late, instead of silently lowering the load.
 */

#ifndef PERFBENCH_OPEN_LOOP_H
#define PERFBENCH_OPEN_LOOP_H

#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two time points. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * Run one open loop over [start, end): round(rate * seconds) arrivals
 * placed as a Poisson process conditioned on that count (exponential
 * gaps rescaled to span the interval), so the offered load of a
 * window is exact and only the arrival pattern depends on the seed.
 * Before each send the generator calls `reap()` (collect finished
 * replies), then sleeps until the request is due and calls
 * `send(index, due)`; how late the send ran is Clock::now() - due at
 * that call.
 */
inline void
runOpenLoop(double rate_per_s, spatial::Rng &rng, Clock::time_point start,
            Clock::time_point end,
            const std::function<void(std::size_t, Clock::time_point)> &send,
            const std::function<void()> &reap)
{
    const double span_s = std::chrono::duration<double>(end - start).count();
    const auto n = static_cast<std::size_t>(std::llround(rate_per_s * span_s));
    // n + 1 exponential gaps; 1 - u keeps log() finite.
    std::vector<double> at(n + 1);
    double total = 0.0;
    for (double &t : at) {
        total += -std::log(1.0 - rng.uniformReal());
        t = total;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(span_s * at[i] / total));
        reap();
        std::this_thread::sleep_until(due);
        send(i, due);
    }
}

} // namespace perfbench

#endif // PERFBENCH_OPEN_LOOP_H
