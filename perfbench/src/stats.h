/**
 * @file
 * Sample statistics and ratio definitions of the benchmark.
 *
 * Every timing the benchmark reports goes through nearestRank(), and
 * every ratio goes through one of the named functions below, so the
 * base of each ratio is written down once and checked by the
 * self-tests.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench
{

/** Samples a tail percentile must have strictly beyond its rank. */
constexpr std::size_t kMinBeyond = 10;

/**
 * 1-based nearest rank of the `percent`-th percentile of n samples:
 * the smallest rank r with r >= percent * n / 100.  Integer arithmetic,
 * so p99 of 1000 samples is exactly rank 990.
 */
inline std::size_t
nearestRankIndex(std::size_t n, unsigned percent)
{
    const std::size_t r = (static_cast<std::size_t>(percent) * n + 99) / 100;
    return std::max<std::size_t>(r, 1);
}

/** Samples that lie beyond the `percent`-th percentile's rank. */
inline std::size_t
samplesBeyond(std::size_t n, unsigned percent)
{
    return n == 0 ? 0 : n - nearestRankIndex(n, percent);
}

/** Nearest-rank percentile; nullopt for an empty sample. */
inline std::optional<double>
nearestRank(std::vector<double> samples, unsigned percent)
{
    if (samples.empty())
        return std::nullopt;
    const std::size_t idx = nearestRankIndex(samples.size(), percent) - 1;
    std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
    return samples[idx];
}

/**
 * A tail percentile, refused (nullopt) unless at least kMinBeyond
 * samples lie beyond it: a p99 from 500 samples is the 5th-worst
 * sample, not a percentile.
 */
inline std::optional<double>
tailPercentile(const std::vector<double> &samples, unsigned percent)
{
    if (samplesBeyond(samples.size(), percent) < kMinBeyond)
        return std::nullopt;
    return nearestRank(samples, percent);
}

/** Median by nearest rank (0 for an empty sample). */
inline double
median(const std::vector<double> &samples)
{
    return nearestRank(samples, 50).value_or(0.0);
}

/**
 * A uniform random subset of at most kCapacity samples (Vitter's
 * Algorithm R) plus the count of samples seen.  A run's sample memory,
 * and so its peak RSS, then stays the same however many requests it
 * completes, and the percentiles of the subset estimate those of the
 * full sample.  Below kCapacity every sample is kept.
 */
class Reservoir
{
  public:
    static constexpr std::size_t kCapacity = 50000;

    void add(double x)
    {
        ++seen_;
        if (kept_.size() < kCapacity) {
            kept_.push_back(x);
            return;
        }
        // splitmix64 step: a fixed, seedless stream keeps this header
        // free of the library's Rng.
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        const std::uint64_t j = z % seen_;
        if (j < kCapacity)
            kept_[j] = x;
    }

    /** The kept samples. */
    const std::vector<double> &samples() const { return kept_; }

    /** Every sample added, kept or not. */
    std::uint64_t seen() const { return seen_; }

  private:
    std::vector<double> kept_;
    std::uint64_t seen_ = 0;
    std::uint64_t state_ = 0;
};

/** num / den, 0 when the base is empty. */
inline double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Share of attempted operations that failed; base: attempted. */
inline double
failedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    return ratio(failed, attempted);
}

/**
 * Share of attempted requests answered correctly within the latency
 * limit; base: attempted.  `ok_within` counts only verified replies,
 * so a failed request counts as a miss.
 */
inline double
sloFrac(std::uint64_t ok_within, std::uint64_t attempted)
{
    return ratio(ok_within, attempted);
}

/** Real lanes over padded lanes; base: lanes after 64-lane padding. */
inline double
occupancy(std::uint64_t lanes, std::uint64_t padded_lanes)
{
    return ratio(lanes, padded_lanes);
}

/** Hot-tier hits over lookups; base: hits + misses. */
inline double
hitRatio(std::uint64_t hits, std::uint64_t misses)
{
    return ratio(hits, hits + misses);
}

/** Skipped tape segments over all segments; base: executed + skipped. */
inline double
skippedFrac(std::uint64_t executed, std::uint64_t skipped)
{
    return ratio(skipped, executed + skipped);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
