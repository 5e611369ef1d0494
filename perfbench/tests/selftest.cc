/**
 * @file
 * Self-tests of the benchmark's statistics, ratio bases, open-loop
 * generator and design generation.
 */

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/tiled_design.h"
#include "open_loop.h"
#include "stats.h"
#include "workload.h"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // descending: order must not matter
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(nearestRankIndex(1000, 99), 990u);
    EXPECT_EQ(nearestRankIndex(100, 50), 50u);
    EXPECT_EQ(nearestRankIndex(101, 50), 51u);
    EXPECT_EQ(nearestRankIndex(1, 99), 1u);
    EXPECT_EQ(*nearestRank(oneTo(1000), 99), 990.0);
    EXPECT_EQ(*nearestRank(oneTo(10), 50), 5.0);
    EXPECT_EQ(*nearestRank(oneTo(10), 100), 10.0);
    EXPECT_EQ(median(oneTo(7)), 4.0);
    EXPECT_FALSE(nearestRank({}, 50).has_value());
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(*tailPercentile(oneTo(1000), 99), 990.0);
    EXPECT_FALSE(tailPercentile(oneTo(999), 99).has_value());
    EXPECT_FALSE(tailPercentile(oneTo(500), 99).has_value());
    // p90 of 100 samples leaves exactly 10 beyond.
    EXPECT_EQ(*tailPercentile(oneTo(100), 90), 90.0);
    EXPECT_FALSE(tailPercentile(oneTo(99), 90).has_value());
}

TEST(Reservoir, KeepsAllThenAFixedUniformSubset)
{
    Reservoir small;
    for (int i = 0; i < 100; ++i)
        small.add(i);
    EXPECT_EQ(small.seen(), 100u);
    EXPECT_EQ(small.samples().size(), 100u);
    EXPECT_EQ(median(small.samples()), 49.0);

    Reservoir big;
    const std::size_t n = 4 * Reservoir::kCapacity;
    for (std::size_t i = 0; i < n; ++i)
        big.add(static_cast<double>(i));
    EXPECT_EQ(big.seen(), n);
    EXPECT_EQ(big.samples().size(), Reservoir::kCapacity);
    // A uniform subset of 0..n-1: its median and p90 sit near the full
    // sample's (n/2 and 0.9n) with 200,000 inputs and 50,000 kept.
    EXPECT_NEAR(median(big.samples()) / n, 0.5, 0.01);
    EXPECT_NEAR(*nearestRank(big.samples(), 90) / n, 0.9, 0.01);
}

TEST(Ratios, Bases)
{
    // failed_frac: base is every attempted operation.
    EXPECT_DOUBLE_EQ(failedFrac(3, 100), 0.03);
    // slo_frac: base is attempted, so a failed request (never among the
    // verified replies within the limit) counts as a miss.
    EXPECT_DOUBLE_EQ(sloFrac(2, 4), 0.5);
    EXPECT_DOUBLE_EQ(sloFrac(2, 3), 2.0 / 3.0);
    // occupancy: base is padded lanes, not groups or real lanes.
    EXPECT_DOUBLE_EQ(occupancy(16, 64), 0.25);
    // hit ratio: base is hits + misses.
    EXPECT_DOUBLE_EQ(hitRatio(3, 1), 0.75);
    // skipped segments: base is executed + skipped.
    EXPECT_DOUBLE_EQ(skippedFrac(1, 3), 0.75);
    // An empty base reads 0, never NaN.
    EXPECT_EQ(ratio(5, 0), 0.0);
    EXPECT_EQ(hitRatio(0, 0), 0.0);
}

TEST(OpenLoop, LatencyCountsFromDueTimeAcrossAStall)
{
    // A fake target that answers instantly; the generator stalls for
    // 60 ms inside send #5.  Requests due during the stall are sent
    // late, and their latency from the due time must show it, while
    // latency from the send time would not.
    constexpr auto kStall = std::chrono::milliseconds(60);
    spatial::Rng rng(7);
    std::vector<double> from_due, from_send;
    const auto start = Clock::now();
    runOpenLoop(
        1000.0, rng, start, start + std::chrono::milliseconds(150),
        [&](std::size_t i, Clock::time_point due) {
            const auto sent = Clock::now();
            if (i == 5)
                std::this_thread::sleep_for(kStall);
            const auto done = Clock::now();
            from_due.push_back(msBetween(due, done));
            from_send.push_back(msBetween(sent, done));
        },
        [] {});
    ASSERT_EQ(from_due.size(), 150u);
    // The request after the stall was due about when the stall began.
    EXPECT_GT(from_due[6], 30.0);
    EXPECT_LT(from_send[6], 30.0);
    // Every arrival is kept: the schedule does not thin out after a stall.
    std::size_t late = 0;
    for (std::size_t i = 6; i < from_due.size(); ++i)
        late += from_due[i] > 5.0;
    EXPECT_GE(late, 10u);
}

TEST(OpenLoop, ScheduleRepeatsForASeed)
{
    auto dues = [](std::uint64_t seed) {
        spatial::Rng rng(seed);
        std::vector<Clock::duration> out;
        const auto start = Clock::now() - std::chrono::hours(1);
        runOpenLoop(
            500.0, rng, start, start + std::chrono::milliseconds(200),
            [&](std::size_t, Clock::time_point due) {
                out.push_back(due - start);
            },
            [] {});
        return out;
    };
    EXPECT_EQ(dues(3), dues(3));
    EXPECT_NE(dues(3), dues(4));
    // The offered load is exact: 500/s over 200 ms is 100 arrivals.
    EXPECT_EQ(dues(3).size(), 100u);
    EXPECT_EQ(dues(4).size(), 100u);
}

DesignCounts
compileAndCount(const WorkloadSpec &spec, std::uint64_t seed)
{
    DesignCounts counts;
    for (const auto &w : makeWeights(spec, seed))
        addCounts(counts,
                  spatial::core::TiledDesign::compile(w, compileOptions()));
    return counts;
}

TEST(Designs, CountsRepeatExactlyForASeed)
{
    for (const auto &spec : workloads()) {
        SCOPED_TRACE(spec.name);
        const DesignCounts a = compileAndCount(spec, 11);
        EXPECT_EQ(a, compileAndCount(spec, 11));
        EXPECT_GT(a.netlistNodes, 0u);
        EXPECT_EQ(a.tiles, spec.designs);
    }
    EXPECT_NE(compileAndCount(*findWorkload("tcp_gemv"), 11),
              compileAndCount(*findWorkload("tcp_gemv"), 12));
}

TEST(Designs, PoolsRepeatAndMatchReference)
{
    const WorkloadSpec &spec = *findWorkload("cold_churn");
    const auto weights = makeWeights(spec, 5);
    const auto a = makePools(spec, weights, 5);
    const auto b = makePools(spec, weights, 5);
    ASSERT_EQ(a.size(), spec.designs);
    for (std::size_t d = 0; d < a.size(); ++d)
        for (std::size_t i = 0; i < a[d].size(); ++i) {
            EXPECT_EQ(a[d][i].request.vec, b[d][i].request.vec);
            EXPECT_EQ(a[d][i].expected, b[d][i].expected);
        }
    // The reference agrees with the compiled engine on the first design.
    const auto design =
        spatial::core::TiledDesign::compile(weights[0], compileOptions());
    const auto &gemv = a[0][0].request;
    ASSERT_EQ(gemv.kind, spatial::serve::RequestKind::Gemv);
    const auto o = design.multiply(gemv.vec);
    for (std::size_t c = 0; c < o.size(); ++c)
        EXPECT_EQ(o[c], a[0][0].expected.at(0, c));
}

TEST(Workloads, NamesAreTheBenchmarkOnes)
{
    std::vector<std::string> names;
    for (const auto &spec : workloads())
        names.push_back(spec.name);
    EXPECT_EQ(names, (std::vector<std::string>{"inproc_batch", "tcp_gemv",
                                               "esn_recurrent",
                                               "cold_churn"}));
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

} // namespace
} // namespace perfbench
