/**
 * @file
 * The chaos experiment: open-loop traffic through the wire path under
 * deterministic fault storms.
 *
 * Each scenario stands up a real in-process NetServer, registers a
 * small design set over the wire, installs a seeded FaultPlan, and
 * pushes a pipelined burst of GEMV requests through a NetClient with
 * every degradation mechanism armed — per-request timeouts,
 * reconnect-and-replay, jittered-backoff retry rounds, the server's
 * queue-age watchdog, and the admission controller.  The contract it
 * proves is shed-not-stall: every submitted request either completes
 * bit-exactly (checked against a plain integer multiply) or is
 * explicitly shed / timed out — no stuck future, no wedged server,
 * bounded wall clock.
 *
 * Scenarios (see docs/robustness.md for the site catalog):
 *
 * - `slow_worker`       worker stalls + queue-age watchdog shedding
 * - `eviction_storm`    capacity-1 store churn with compile faults,
 *                       failed cold loads, and spill-write failures
 * - `cold_corruption`   damaged cold-tier artifacts force recompile
 *                       fallbacks mid-traffic
 * - `disconnect_flood`  dropped connections, partial writes, and
 *                       reader stalls against reconnect-and-replay
 *
 * `spatial-bench run chaos --json=...` writes the headline artifact
 * (BENCH_chaos.json in CI) with admitted-request SLO compliance and
 * the shed fraction per scenario.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "experiments/registry.h"
#include "matrix/generate.h"
#include "serve/net_client.h"
#include "serve/net_server.h"

namespace spatial::experiments
{

namespace
{

/** Design shape of the chaos workload (small: wall clock is faults). */
constexpr std::size_t kDim = 48;

/** GEMV requests pushed through the wire per scenario. */
constexpr std::size_t kRequests = 256;

/** Retry rounds before leftover Busy/TimedOut work is given up. */
constexpr unsigned kMaxRounds = 40;

/** Liveness bound: a future not resolved by then is a stuck future. */
constexpr auto kLivenessBound = std::chrono::seconds(30);

/** Admitted-request SLO for the compliance column (generous: the
 * point is that admitted work finishes promptly even mid-storm, not
 * that it hits the happy-path latency). */
constexpr double kSloMs = 250.0;

/** Plain integer GEMV of the raw weights: the untiled reference. */
IntMatrix
referenceMultiply(const IntMatrix &weights, const IntMatrix &batch)
{
    IntMatrix out(batch.rows(), weights.cols());
    for (std::size_t b = 0; b < batch.rows(); ++b)
        for (std::size_t r = 0; r < weights.rows(); ++r) {
            const std::int64_t x = batch.at(b, r);
            if (x == 0)
                continue;
            for (std::size_t c = 0; c < weights.cols(); ++c)
                out.at(b, c) += x * weights.at(r, c);
        }
    return out;
}

/** One scenario's fault rules and server/client shape. */
struct Scenario
{
    std::size_t designs = 2;
    std::size_t storeCapacity = 64;
    bool spill = false;
    std::size_t maxQueue = 64;
    std::chrono::milliseconds maxQueueAge{0};
    std::chrono::milliseconds slowWorkerAfter{0};
    unsigned reconnects = 8;
    /** Outstanding-request cap per retry round.  A full burst is the
     * default; connection-fault scenarios use a small window so a
     * reconnect replays a handful of frames instead of re-dialing
     * into the drop rate with hundreds outstanding. */
    std::size_t window = kRequests;
    /** (site, rule) pairs installed once registration is done. */
    std::vector<std::pair<fault::Site, fault::Rule>> rules;
};

Scenario
makeScenario(const std::string &name, std::uint64_t seed)
{
    using fault::Rule;
    using fault::Site;
    Scenario s;
    if (name == "slow_worker") {
        // Workers randomly stall 80ms per group — long enough that
        // both workers stalling at once ages the queue past the 40ms
        // watchdog cutoff, so some groups shed and the slow-worker
        // detector flags the stalled threads.
        s.maxQueue = 48;
        s.maxQueueAge = std::chrono::milliseconds(40);
        s.slowWorkerAfter = std::chrono::milliseconds(10);
        s.rules = {{Site::ServeWorkerStall, Rule{0.45, seed ^ 1, 80}}};
    } else if (name == "eviction_storm") {
        // Three designs through a capacity-1 store: every request is
        // a potential evict/demote/promote, with transient compile
        // failures, latency spikes, and spill-write errors layered on.
        // Spills are write-once per key, so the write-failure site
        // only fires on a real write: failed cold loads unpublish
        // their key (and recompile), which makes the next demotion of
        // that design write its file again.
        s.designs = 3;
        s.storeCapacity = 1;
        s.spill = true;
        s.maxQueue = 32;
        s.maxQueueAge = std::chrono::milliseconds(120);
        s.rules = {{Site::StoreCompileFail, Rule{0.2, seed ^ 2, 0}},
                   {Site::StoreCompileDelay, Rule{0.3, seed ^ 3, 10}},
                   {Site::ColdReadFail, Rule{0.25, seed ^ 11, 0}},
                   {Site::ColdWriteFail, Rule{0.25, seed ^ 4, 0}}};
    } else if (name == "cold_corruption") {
        // Same churn, but the cold tier itself lies: short writes and
        // post-load corruption force recompile fallbacks mid-traffic
        // while outputs must stay bit-exact.
        s.designs = 3;
        s.storeCapacity = 1;
        s.spill = true;
        s.maxQueue = 32;
        s.maxQueueAge = std::chrono::milliseconds(120);
        s.rules = {{Site::ColdWriteShort, Rule{0.3, seed ^ 5, 0}},
                   {Site::ColdReadFail, Rule{0.2, seed ^ 6, 0}},
                   {Site::ColdReadCorrupt, Rule{0.3, seed ^ 7, 0}}};
    } else if (name == "disconnect_flood") {
        // The wire misbehaves: dispatched requests drop the
        // connection, responses trickle out a few bytes per poll
        // round, and the client reader stalls — reconnect-and-replay
        // plus timeouts must still land every request.  The small
        // window keeps each reconnect's replay set (everything
        // outstanding) from compounding with the per-frame drop rate.
        s.reconnects = 200;
        s.window = 16;
        s.rules = {{Site::NetConnDrop, Rule{0.01, seed ^ 8, 0}},
                   {Site::NetWritePartial, Rule{0.3, seed ^ 9, 96}},
                   {Site::ClientReadStall, Rule{0.2, seed ^ 10, 2}}};
    } else {
        SPATIAL_FATAL("chaos: unknown scenario '", name, "'");
    }
    return s;
}

Experiment
makeChaos()
{
    Experiment exp;
    exp.name = "chaos";
    exp.figure = "ours (robustness)";
    exp.title = "Chaos: wire-path traffic under deterministic fault "
                "storms";
    exp.description =
        "fault-storm scenarios over the TCP path; every request "
        "completes bit-exactly or is explicitly shed";
    exp.runtime = "~20 s (timed fault storms)";
    exp.columns = {"scenario", "requests", "ok", "shed", "timeouts",
                   "lost", "retries", "reconnects", "watchdog shed",
                   "faults", "slo %", "shed frac", "bit exact"};
    exp.grid =
        Grid::cases({"scenario"},
                    {{Value{std::string("slow_worker")}},
                     {Value{std::string("eviction_storm")}},
                     {Value{std::string("cold_corruption")}},
                     {Value{std::string("disconnect_flood")}}});
    exp.serialOnly = true; // one process-wide FaultPlan at a time
    exp.evaluate = [](const ParamPoint &point, const void *,
                      EvalContext &ctx) {
        namespace fs = std::filesystem;
        const std::string &name = point.getString("scenario");
        const std::uint64_t seed = mixSeed(0xc4a05, ctx.seed);
        const Scenario scenario = makeScenario(name, seed);

        fault::FaultPlan &plan = fault::FaultPlan::instance();
        plan.clear();

        // The server: one shard, two workers, tight batching so the
        // burst forms many groups; chaos scenarios optionally add a
        // spill directory and the queue-age watchdog.
        serve::NetServerOptions net;
        net.shards = 1;
        net.maxQueue = scenario.maxQueue;
        net.drainTimeout = std::chrono::milliseconds(2000);
        net.serve.workers = 2;
        net.serve.maxBatch = 32;
        net.serve.maxDelay = std::chrono::microseconds(500);
        net.serve.storeCapacity = scenario.storeCapacity;
        net.serve.maxQueueAge = scenario.maxQueueAge;
        net.serve.slowWorkerAfter = scenario.slowWorkerAfter;
        net.serve.sim = ctx.sim;
        fs::path spill_dir;
        if (scenario.spill) {
            spill_dir = fs::temp_directory_path() /
                        ("spatial-chaos-" +
                         std::to_string(::getpid()) + "-" + name);
            std::error_code ec;
            fs::remove_all(spill_dir, ec);
            net.serve.storeSpillDir = spill_dir.string();
        }
        serve::NetServer server(net);

        serve::NetClientOptions copts;
        copts.requestTimeout = std::chrono::milliseconds(500);
        copts.maxReconnects = scenario.reconnects;
        copts.backoffSeed = seed ^ 0xb0ff;
        serve::NetClient client("127.0.0.1", server.port(), copts);

        // Designs and the request stream, registered over the wire
        // before the faults arm — registration is the fixture, not
        // the system under test here.
        Rng rng(seed);
        core::CompileOptions compile;
        compile.inputBits = 8;
        compile.inputsSigned = true;
        compile.signMode = core::SignMode::Csd;
        std::vector<IntMatrix> weights;
        std::vector<std::uint32_t> ids;
        for (std::size_t d = 0; d < scenario.designs; ++d) {
            weights.push_back(makeSignedElementSparseMatrix(
                kDim, kDim, compile.inputBits, 0.9, rng));
            std::uint32_t id = 0;
            if (client.registerDesign(weights.back(), compile, &id) !=
                serve::wire::Status::Ok)
                SPATIAL_FATAL("chaos: registration failed");
            ids.push_back(id);
        }
        std::vector<std::size_t> target(kRequests);
        std::vector<std::vector<std::int64_t>> inputs;
        std::vector<IntMatrix> expected;
        inputs.reserve(kRequests);
        expected.reserve(kRequests);
        for (std::size_t i = 0; i < kRequests; ++i) {
            target[i] = i % scenario.designs;
            inputs.push_back(
                makeSignedVector(kDim, compile.inputBits, rng));
            IntMatrix one(1, kDim);
            for (std::size_t c = 0; c < kDim; ++c)
                one.at(0, c) = inputs.back()[c];
            expected.push_back(
                referenceMultiply(weights[target[i]], one));
        }

        // Arm the storm.
        for (const auto &[site, rule] : scenario.rules)
            plan.configure(site, rule);

        // Pipelined burst, then bounded jittered-backoff retry
        // rounds: Busy (admission or watchdog shed) and TimedOut
        // resubmit; whatever survives kMaxRounds is given up as shed.
        std::size_t ok = 0, shed = 0, timeouts = 0, lost = 0,
                    retries = 0;
        std::vector<double> latencies;
        Rng backoff_rng(seed ^ 0x0b0ff5eedULL);
        std::vector<std::size_t> todo(kRequests);
        for (std::size_t i = 0; i < kRequests; ++i)
            todo[i] = i;
        const auto start = std::chrono::steady_clock::now();
        for (unsigned round = 0;
             round < kMaxRounds && !todo.empty(); ++round) {
            std::vector<std::size_t> again;
            for (std::size_t base = 0; base < todo.size();
                 base += scenario.window) {
                const std::size_t end = std::min(
                    todo.size(), base + scenario.window);
                std::vector<
                    std::pair<std::size_t,
                              std::future<serve::RemoteResult>>>
                    futures;
                futures.reserve(end - base);
                for (std::size_t k = base; k < end; ++k) {
                    const std::size_t i = todo[k];
                    futures.emplace_back(
                        i, client.submit(
                               ids[target[i]],
                               serve::Request::gemv(inputs[i])));
                }
                for (auto &[i, future] : futures) {
                    // The liveness gate: a future the client never
                    // resolves is exactly the bug this experiment
                    // exists to catch.
                    if (future.wait_for(kLivenessBound) !=
                        std::future_status::ready)
                        SPATIAL_FATAL(
                            "chaos(", name, "): request ", i,
                            " stuck — future unresolved after ",
                            kLivenessBound.count(), "s");
                    serve::RemoteResult r = future.get();
                    if (r.status == serve::wire::Status::Ok) {
                        if (!(r.output == expected[i]))
                            SPATIAL_FATAL(
                                "chaos(", name, "): request ", i,
                                " completed with wrong bits");
                        ++ok;
                        latencies.push_back(r.latencySeconds() * 1e3);
                    } else if (r.status ==
                               serve::wire::Status::Busy) {
                        ++shed;
                        again.push_back(i);
                    } else if (r.status ==
                               serve::wire::Status::TimedOut) {
                        ++timeouts;
                        again.push_back(i);
                    } else if (r.status ==
                               serve::wire::Status::Disconnected) {
                        ++lost; // reconnect budget exhausted
                    } else {
                        SPATIAL_FATAL(
                            "chaos(", name, "): unexpected status ",
                            serve::wire::statusName(r.status));
                    }
                }
            }
            retries += again.size();
            todo = std::move(again);
            if (!todo.empty())
                std::this_thread::sleep_for(serve::jitteredBackoff(
                    round, std::chrono::milliseconds(1),
                    std::chrono::milliseconds(50), backoff_rng));
        }
        // Leftovers were answered (shed/timed out) every round and
        // simply ran out of retry budget — explicitly given up, not
        // stuck.
        const std::size_t given_up = todo.size();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        // Disarm before the bookkeeping round trips so fetchStats and
        // the shutdown drain run on a clean wire.
        const std::uint64_t faults = plan.injectedTotal();
        std::string by_site;
        for (const auto &[site, rule] : scenario.rules)
            by_site += std::string(by_site.empty() ? "" : ", ") +
                       fault::siteName(site) + " " +
                       std::to_string(plan.injected(site));
        plan.clear();

        std::size_t watchdog_shed = 0;
        IntMatrix shard_stats;
        if (client.fetchStats(&shard_stats) ==
                serve::wire::Status::Ok &&
            shard_stats.cols() >= serve::wire::kShardStatsCols)
            for (std::size_t s = 0; s < shard_stats.rows(); ++s)
                watchdog_shed += static_cast<std::size_t>(
                    shard_stats.at(s, serve::wire::kStatWatchdogShed));
        const std::size_t reconnects = client.stats().reconnects;
        client.close();
        server.shutdown();
        if (!spill_dir.empty()) {
            std::error_code ec;
            fs::remove_all(spill_dir, ec);
        }

        std::sort(latencies.begin(), latencies.end());
        const double slo =
            latencies.empty()
                ? 1.0
                : static_cast<double>(
                      std::upper_bound(latencies.begin(),
                                       latencies.end(), kSloMs) -
                      latencies.begin()) /
                      static_cast<double>(latencies.size());
        const double shed_fraction =
            static_cast<double>(kRequests - ok) /
            static_cast<double>(kRequests);
        SPATIAL_INFORM("chaos(", name, "): ", ok, "/", kRequests,
                       " ok in ", seconds, "s, ", given_up,
                       " given up, ", faults, " faults injected (",
                       by_site, ")");

        return std::vector<Row>{
            {cell(name),
             cell(static_cast<std::int64_t>(kRequests)),
             cell(static_cast<std::int64_t>(ok)),
             cell(static_cast<std::int64_t>(shed)),
             cell(static_cast<std::int64_t>(timeouts)),
             cell(static_cast<std::int64_t>(lost)),
             cell(static_cast<std::int64_t>(retries)),
             cell(static_cast<std::int64_t>(reconnects)),
             cell(static_cast<std::int64_t>(watchdog_shed)),
             cell(static_cast<std::int64_t>(faults)),
             cell(slo * 100.0, 4), cell(shed_fraction, 4),
             cell("yes")}};
    };
    exp.expectedShape =
        "Every scenario finishes with ok + given-up == requests and "
        "zero stuck futures; admitted requests stay near 100% SLO "
        "compliance while the shed fraction absorbs the overload — "
        "shed-not-stall.  The storm scenarios report nonzero injected "
        "faults, and disconnect_flood reports nonzero reconnects.";
    return exp;
}

} // namespace

void
registerChaosExperiments(Registry &registry)
{
    registry.add(makeChaos());
}

} // namespace spatial::experiments
