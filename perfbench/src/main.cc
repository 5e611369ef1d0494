/**
 * @file
 * perfbench: runs one named workload against the serving stack, checks
 * every reply against a dense integer GEMV, and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --scratch DIR
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 runs the same
 * load untraced and then traced (reporting the difference as the
 * tracing overhead), then times the benchmark's own calls into each
 * layer's public functions and prints the per-layer metrics.  The
 * last line of standard output is one JSON object.  README.md
 * documents the workloads and the metrics.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "circuit/exec_plan.h"
#include "circuit/kernels.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/tiled_design.h"
#include "experiments/design_cache.h"
#include "matrix/generate.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/cold_tier.h"
#include "store/format.h"

#include "open_loop.h"
#include "stats.h"
#include "workload.h"

namespace fs = std::filesystem;
namespace serve = spatial::serve;
namespace wire = spatial::serve::wire;
namespace core = spatial::core;
namespace circuit = spatial::circuit;

using spatial::IntMatrix;
using spatial::Rng;

namespace perfbench
{
namespace
{

/**
 * The tail percentile taken per slice, like the median.  It and p99
 * are printed but not bounded: while the host's hypervisor stole time
 * from the VM for minutes at a stretch, p90 moved by 44-75% (quartile
 * spread over ten runs) where p50 moved by 12%.
 */
constexpr unsigned kTailPercent = 90;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

/**
 * Idle gap between set-ups.  Host-noise episodes last seconds, so
 * back-to-back set-ups of a fraction of a second would all land in
 * one; spacing them samples several.
 */
constexpr auto kSetupGap = std::chrono::milliseconds(250);

/**
 * Shed watermark of the TCP front (NetServerOptions::maxQueue).  In an
 * open loop a stall of the server's threads piles requests up: at
 * 30,000 requests/s, 1 run in 5 on a shared 4-vCPU VM passed the
 * default of 1024 and shed some.  At 16384 a stall is queued and shows
 * in the latency instead.
 */
constexpr std::size_t kNetMaxQueue = 16384;

/** Load before the measured window, verified but not counted. */
constexpr double kWarmupSeconds = 2.0;

/** Traced run: time the wire codec on every k-th verified reply. */
constexpr std::size_t kWireEvery = 4;

/** Traffic stream, independent of the design and pool streams. */
constexpr std::uint64_t kTrafficStream = 0x7a11c0deu;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".bench_build/perfbench-scratch";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--scratch")
                args.scratch = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * CPU time of every thread of the process so far.  Time the host's
 * hypervisor steals from the VM is not charged to it.
 */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------
// Set-up: designs generated, registered and compiled.
// ---------------------------------------------------------------------

/** One set-up workload: a server with every design registered. */
struct Rig
{
    std::vector<IntMatrix> weights;
    std::string spillDir;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::NetServer> net;
    std::unique_ptr<serve::NetClient> client;
    std::vector<serve::DesignId> ids;     //!< in-process design ids
    std::vector<std::uint32_t> remoteIds; //!< wire design ids

    Rig() = default;
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    ~Rig()
    {
        client.reset();
        net.reset();
        server.reset();
        if (!spillDir.empty()) {
            std::error_code ec;
            fs::remove_all(spillDir, ec);
        }
    }
};

serve::ServeOptions
serveOptions(const WorkloadSpec &spec, const std::string &spill_dir)
{
    serve::ServeOptions options;
    options.workers = spec.workers;
    options.maxBatch = spec.maxBatch;
    options.maxDelay = spec.maxDelay;
    options.storeCapacity = spec.storeCapacity;
    options.storeSpillDir = spill_dir;
    return options;
}

std::unique_ptr<Rig>
setUp(const WorkloadSpec &spec, std::uint64_t seed,
      const std::string &spill_dir)
{
    auto rig = std::make_unique<Rig>();
    rig->weights = makeWeights(spec, seed);
    if (spec.spill) {
        rig->spillDir = spill_dir;
        fs::remove_all(spill_dir);
        fs::create_directories(spill_dir);
    }
    const auto compile = compileOptions();
    if (spec.front == Front::InProcess) {
        rig->server = std::make_unique<serve::Server>(
            serveOptions(spec, rig->spillDir));
        for (const auto &w : rig->weights)
            rig->ids.push_back(rig->server->registerDesign(w, compile));
        return rig;
    }
    serve::NetServerOptions net;
    net.shards = 1;
    net.maxQueue = kNetMaxQueue;
    net.serve = serveOptions(spec, rig->spillDir);
    rig->net = std::make_unique<serve::NetServer>(net);
    rig->client =
        std::make_unique<serve::NetClient>("127.0.0.1", rig->net->port());
    for (const auto &w : rig->weights) {
        std::uint32_t id = 0;
        const wire::Status status =
            rig->client->registerDesign(w, compile, &id);
        if (status != wire::Status::Ok) {
            std::fprintf(stderr, "perfbench: registerDesign failed: %s\n",
                         wire::statusName(status));
            std::exit(1);
        }
        rig->remoteIds.push_back(id);
    }
    return rig;
}

// ---------------------------------------------------------------------
// Load phases.
// ---------------------------------------------------------------------

/** Server-side counters the traced run reads, in or out of process. */
struct ServerCounters
{
    std::uint64_t lanes = 0, paddedLanes = 0, groups = 0;
    std::uint64_t flushDeadline = 0, enginePasses = 0;
    std::uint64_t segExecuted = 0, segSkipped = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t promotions = 0, demotions = 0, coldFallbacks = 0;
    std::uint64_t shed = 0;
    bool full = true; //!< false: only the wire Stats subset is known

    ServerCounters operator-(const ServerCounters &o) const
    {
        ServerCounters d = *this;
        d.lanes -= o.lanes;
        d.paddedLanes -= o.paddedLanes;
        d.groups -= o.groups;
        d.flushDeadline -= o.flushDeadline;
        d.enginePasses -= o.enginePasses;
        d.segExecuted -= o.segExecuted;
        d.segSkipped -= o.segSkipped;
        d.hits -= o.hits;
        d.misses -= o.misses;
        d.promotions -= o.promotions;
        d.demotions -= o.demotions;
        d.coldFallbacks -= o.coldFallbacks;
        d.shed -= o.shed;
        return d;
    }
};

ServerCounters
readCounters(Rig &rig)
{
    ServerCounters c;
    if (rig.server) {
        const serve::ServerStats s = rig.server->stats();
        c.lanes = s.lanes;
        c.paddedLanes = s.paddedLanes;
        c.groups = s.groups;
        c.flushDeadline = s.flushDeadline;
        c.enginePasses = s.enginePasses;
        c.segExecuted = s.segmentsExecuted;
        c.segSkipped = s.segmentsSkipped;
        c.hits = s.store.cache.hits;
        c.misses = s.store.cache.misses;
        c.promotions = s.store.promotions;
        c.demotions = s.store.demotions;
        c.coldFallbacks = s.store.coldFallbacks;
        return c;
    }
    IntMatrix m;
    if (rig.client->fetchStats(&m) != wire::Status::Ok || m.rows() < 1) {
        std::fprintf(stderr, "perfbench: Stats request failed\n");
        std::exit(1);
    }
    c.full = false;
    c.lanes = m.at(0, wire::kStatLanes);
    c.paddedLanes = m.at(0, wire::kStatPaddedLanes);
    c.groups = m.at(0, wire::kStatGroups);
    c.hits = m.at(0, wire::kStatStoreHits);
    c.misses = m.at(0, wire::kStatStoreMisses);
    c.promotions = m.at(0, wire::kStatStorePromotions);
    c.demotions = m.at(0, wire::kStatStoreDemotions);
    c.shed = m.at(0, wire::kStatShed);
    return c;
}

/** One outstanding request. */
struct Pending
{
    std::variant<std::future<serve::Response>,
                 std::future<serve::RemoteResult>>
        future;
    Clock::time_point start; //!< submit (closed loop) or due (open loop)
    std::size_t design = 0;
    std::size_t entry = 0;
    bool inWindow = false;
};

/** A completed request as the generator sees it. */
struct Reply
{
    bool ok = false; //!< executed (not shed, not a wire error)
    IntMatrix output;
    Clock::time_point doneAt;
    bool serverTimes = false; //!< the fields below are set
    Clock::time_point submitAt, flushAt;
    std::uint32_t groupLanes = 0;
    wire::Status status = wire::Status::Ok;
};

bool
isReady(const Pending &p)
{
    return std::visit(
        [](const auto &f) {
            return f.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
        },
        p.future);
}

Reply
take(Pending &p)
{
    Reply r;
    if (auto *f = std::get_if<std::future<serve::Response>>(&p.future)) {
        serve::Response resp = f->get();
        r.ok = !resp.shed;
        r.output = std::move(resp.output);
        r.doneAt = resp.doneAt;
        r.serverTimes = true;
        r.submitAt = resp.submitAt;
        r.flushAt = resp.flushAt;
        r.groupLanes = resp.groupLanes;
        return r;
    }
    serve::RemoteResult res =
        std::get<std::future<serve::RemoteResult>>(p.future).get();
    r.status = res.status;
    r.ok = res.status == wire::Status::Ok;
    r.output = std::move(res.output);
    r.doneAt = res.doneAt;
    return r;
}

/** Everything one load phase measured. */
struct Phase
{
    /** Verified latencies, by the slice the request started in. */
    std::vector<Reservoir> sliceLatencyMs;
    std::uint64_t withinSlo = 0;   //!< verified within spec.sloMs
    std::uint64_t vectors = 0; //!< verified vectors done in the window
    double vectorSeconds = 0.0; //!< the window `vectors` was counted over
    std::vector<std::uint64_t> sliceVectors; //!< `vectors` by slice
    /** Process CPU time of each slice of the latency window. */
    std::vector<double> sliceCpuSeconds;
    /** Verified vectors of the requests sent in each of those slices. */
    std::vector<std::uint64_t> sliceWindowVectors;
    std::uint64_t attempted = 0;   //!< requests sent, warm-up included
    std::uint64_t windowAttempted = 0; //!< sent in the latency window
    std::uint64_t failed = 0;      //!< not executed, or a wire error
    std::uint64_t mismatched = 0;  //!< executed, wrong output
    std::uint64_t busy = 0;        //!< wire Busy answers
    double sliceSeconds = 0.0;
    Reservoir lateMs;              //!< open loop: send - due

    // Traced only.
    Reservoir queueWaitMs, execMs, groupLanes;
    Reservoir encReqUs, decReqUs, encRespUs, decRespUs;
    Reservoir requestBytes;
};

wire::MessageKind
messageKind(serve::RequestKind kind)
{
    switch (kind) {
      case serve::RequestKind::Gemv: return wire::MessageKind::Gemv;
      case serve::RequestKind::GemvBatch: return wire::MessageKind::GemvBatch;
      case serve::RequestKind::EsnStep: return wire::MessageKind::EsnStep;
      case serve::RequestKind::EsnSequence:
        return wire::MessageKind::EsnSequence;
    }
    return wire::MessageKind::Gemv;
}

double
usSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t)
        .count();
}

/** Time the wire codec on one request and its verified reply. */
void
timeWire(Phase &phase, std::uint32_t design, const serve::Request &request,
         const IntMatrix &output)
{
    wire::RequestFrame req;
    req.kind = messageKind(request.kind);
    req.requestId = phase.encReqUs.seen() + 1;
    req.designId = design;
    req.request = request;
    std::vector<std::uint8_t> bytes;
    auto t = Clock::now();
    wire::appendRequestFrame(bytes, req);
    phase.encReqUs.add(usSince(t));
    phase.requestBytes.add(static_cast<double>(bytes.size()));

    std::size_t off = 0, size = 0, frame = 0;
    wire::RequestFrame req_back;
    t = Clock::now();
    const bool req_ok =
        wire::peekFrame(bytes.data(), bytes.size(), &off, &size, &frame) ==
            wire::FrameResult::Ok &&
        wire::decodeRequest(bytes.data() + off, size, &req_back) ==
            wire::Status::Ok;
    phase.decReqUs.add(usSince(t));

    wire::ResponseFrame resp;
    resp.kind = req.kind;
    resp.requestId = req.requestId;
    resp.designId = design;
    resp.output = output;
    bytes.clear();
    t = Clock::now();
    wire::appendResponseFrame(bytes, resp);
    phase.encRespUs.add(usSince(t));

    wire::ResponseFrame resp_back;
    t = Clock::now();
    const bool resp_ok =
        wire::peekFrame(bytes.data(), bytes.size(), &off, &size, &frame) ==
            wire::FrameResult::Ok &&
        wire::decodeResponse(bytes.data() + off, size, &resp_back) ==
            wire::Status::Ok;
    phase.decRespUs.add(usSince(t));

    // The codec is checked like any other layer: a round trip must
    // reproduce the request's input and the reply's output.
    if (!req_ok || !resp_ok || !(resp_back.output == output) ||
        !(req_back.request.vec == request.vec) ||
        !(req_back.request.batch == request.batch))
        ++phase.mismatched;
}

/** Runs one load phase of a workload against a set-up rig. */
class Generator
{
  public:
    Generator(const WorkloadSpec &spec, Rig &rig,
              const std::vector<std::vector<PoolEntry>> &pools,
              std::uint64_t seed, bool traced)
        : spec_(spec), rig_(rig), pools_(pools), rng_(seed ^ kTrafficStream),
          traced_(traced)
    {
        if (spec.zipfS > 0.0)
            cdf_ = zipfCdf(spec.designs, spec.zipfS);
    }

    Phase run(double seconds)
    {
        phase_.sliceLatencyMs.resize(spec_.slices);
        phase_.sliceVectors.assign(spec_.slices, 0);
        phase_.sliceCpuSeconds.assign(spec_.slices, 0.0);
        phase_.sliceWindowVectors.assign(spec_.slices, 0);
        if (spec_.window > 0 && spec_.ratePerS > 0.0) {
            // Throughput from a closed loop, latency from an open loop
            // at a fixed rate, each over half of the window.
            measure(seconds / 2.0, true, true, false);
            measure(seconds / 2.0, false, false, true);
        } else {
            measure(seconds, spec_.window > 0, true, true);
        }
        return std::move(phase_);
    }

  private:
    /**
     * One warmed-up window of `seconds`, closed or open loop, counting
     * verified vectors, latencies or both.
     */
    void measure(double seconds, bool closed, bool vectors, bool latency)
    {
        const Clock::time_point begin = Clock::now();
        windowStart_ = begin + toDuration(kWarmupSeconds);
        windowEnd_ = windowStart_ + toDuration(seconds);
        countVectors_ = vectors;
        recordLatency_ = latency;
        if (vectors)
            phase_.vectorSeconds = seconds;
        if (latency)
            phase_.sliceSeconds = seconds / static_cast<double>(spec_.slices);
        if (closed)
            closedLoop();
        else
            openLoop(begin);
        while (!queue_.empty())
            complete();
    }

    static Clock::duration toDuration(double s)
    {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    }

    std::size_t sliceOf(Clock::time_point t) const
    {
        const double s = std::chrono::duration<double>(t - windowStart_).count();
        return std::min(spec_.slices - 1,
                        static_cast<std::size_t>(s / phase_.sliceSeconds));
    }

    std::size_t pickDesign()
    {
        if (cdf_.empty())
            return static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<std::int64_t>(spec_.designs) - 1));
        const double u = rng_.uniformReal();
        return static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) -
            cdf_.begin());
    }

    void send(Clock::time_point start)
    {
        Pending p;
        p.design = pickDesign();
        p.entry = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(pools_[p.design].size()) - 1));
        p.start = start;
        p.inWindow =
            recordLatency_ && start >= windowStart_ && start < windowEnd_;
        const serve::Request &request = pools_[p.design][p.entry].request;
        if (rig_.server)
            p.future = rig_.server->submit(rig_.ids[p.design], request);
        else
            p.future =
                rig_.client->submit(rig_.remoteIds[p.design], request);
        ++phase_.attempted;
        if (p.inWindow)
            ++phase_.windowAttempted;
        queue_.push_back(std::move(p));
    }

    void complete()
    {
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        const Reply r = take(p);
        const PoolEntry &e = pools_[p.design][p.entry];
        if (!r.ok) {
            ++phase_.failed;
            if (r.status == wire::Status::Busy)
                ++phase_.busy;
            return;
        }
        if (!(r.output == e.expected)) {
            ++phase_.mismatched;
            return;
        }
        if (countVectors_ && r.doneAt >= windowStart_ &&
            r.doneAt < windowEnd_) {
            phase_.vectors += e.vectors;
            const double s =
                std::chrono::duration<double>(r.doneAt - windowStart_).count();
            phase_.sliceVectors[std::min(
                spec_.slices - 1, static_cast<std::size_t>(
                                      s * static_cast<double>(spec_.slices) /
                                      phase_.vectorSeconds))] += e.vectors;
        }
        if (!p.inWindow)
            return;
        const double ms = msBetween(p.start, r.doneAt);
        phase_.sliceWindowVectors[sliceOf(p.start)] += e.vectors;
        phase_.sliceLatencyMs[sliceOf(p.start)].add(ms);
        if (ms <= spec_.sloMs)
            ++phase_.withinSlo;
        if (!traced_)
            return;
        if (r.serverTimes) {
            phase_.queueWaitMs.add(msBetween(r.submitAt, r.flushAt));
            phase_.execMs.add(msBetween(r.flushAt, r.doneAt));
            phase_.groupLanes.add(r.groupLanes);
        }
        if (++completedInWindow_ % kWireEvery == 0)
            timeWire(phase_, static_cast<std::uint32_t>(p.design), e.request,
                     r.output);
    }

    void closedLoop()
    {
        closedLoopUntil(windowStart_);
        using Rep = Clock::duration::rep;
        const Clock::duration slice =
            (windowEnd_ - windowStart_) / static_cast<Rep>(spec_.slices);
        for (std::size_t k = 0; k < spec_.slices; ++k) {
            const double cpu = processCpuSeconds();
            closedLoopUntil(k + 1 < spec_.slices
                                ? windowStart_ + slice * static_cast<Rep>(k + 1)
                                : windowEnd_);
            if (recordLatency_)
                phase_.sliceCpuSeconds[k] = processCpuSeconds() - cpu;
        }
    }

    void closedLoopUntil(Clock::time_point end)
    {
        while (Clock::now() < end) {
            if (queue_.size() < spec_.window)
                send(Clock::now());
            else
                complete();
        }
    }

    void openLoop(Clock::time_point begin)
    {
        Rng arrivals(rng_.next());
        const auto send_due = [&](std::size_t, Clock::time_point due) {
            if (recordLatency_ && due >= windowStart_)
                phase_.lateMs.add(msBetween(due, Clock::now()));
            send(due);
        };
        const auto reap = [&] {
            while (!queue_.empty() && isReady(queue_.front()))
                complete();
        };
        // Warm-up and each slice are scheduled separately so every
        // slice's offered load is exactly rate * slice length.
        runOpenLoop(spec_.ratePerS, arrivals, begin, windowStart_, send_due,
                    reap);
        for (std::size_t k = 0; k < spec_.slices; ++k) {
            const double cpu = processCpuSeconds();
            runOpenLoop(spec_.ratePerS, arrivals,
                        windowStart_ + toDuration(k * phase_.sliceSeconds),
                        windowStart_ +
                            toDuration((k + 1) * phase_.sliceSeconds),
                        send_due, reap);
            if (recordLatency_)
                phase_.sliceCpuSeconds[k] = processCpuSeconds() - cpu;
        }
    }

    const WorkloadSpec &spec_;
    Rig &rig_;
    const std::vector<std::vector<PoolEntry>> &pools_;
    Rng rng_;
    bool traced_;
    std::vector<double> cdf_;
    Clock::time_point windowStart_, windowEnd_;
    std::deque<Pending> queue_;
    Phase phase_;
    std::size_t completedInWindow_ = 0;
    bool countVectors_ = true;  //!< this window counts verified vectors
    bool recordLatency_ = true; //!< this window records latencies
};

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    bool bounded = true; //!< in BENCHMARK.json and the JSON line
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Verified latencies of the window, kept or not. */
std::size_t
latencyCount(const Phase &phase)
{
    std::size_t n = 0;
    for (const Reservoir &r : phase.sliceLatencyMs)
        n += r.seen();
    return n;
}

/**
 * The end-to-end metrics of one phase.  Throughput and p90 are printed
 * but not bounded: they follow the host's speed at full size (see
 * README.md).
 */
std::vector<Metric>
endToEnd(const WorkloadSpec &spec, const Phase &phase, double setup_s)
{
    std::vector<double> vps, p50, tail, cpu;
    for (std::size_t k = 0; k < spec.slices; ++k) {
        cpu.push_back(1e6 * phase.sliceCpuSeconds[k] /
                      static_cast<double>(phase.sliceWindowVectors[k]));
        vps.push_back(static_cast<double>(phase.sliceVectors[k]) *
                      static_cast<double>(spec.slices) / phase.vectorSeconds);
        const auto &lat = phase.sliceLatencyMs[k].samples();
        p50.push_back(median(lat));
        if (const auto t = tailPercentile(lat, kTailPercent))
            tail.push_back(*t);
    }
    const std::size_t n = latencyCount(phase);
    std::vector<Metric> out = {
        {"setup_s", setup_s, "s", static_cast<std::size_t>(kSetups)},
        {"p50_ms", median(p50), "ms", n},
        {"cpu_us_per_vector", median(cpu), "us", n},
        {"slo_frac", sloFrac(phase.withinSlo, phase.windowAttempted),
         "fraction", static_cast<std::size_t>(phase.windowAttempted)},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"throughput_vps", median(vps), "1/s",
         static_cast<std::size_t>(phase.vectors), false},
    };
    // A slice with fewer than kMinBeyond samples beyond p90 refuses it.
    if (tail.size() == spec.slices)
        out.push_back({"p90_ms", median(tail), "ms", n, false});
    else
        std::printf("  p90_ms refused: a slice has fewer than %zu samples "
                    "beyond it\n",
                    kMinBeyond);
    return out;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const auto &m : metrics)
        std::printf("  %-32s %14.6g %-9s (n=%zu)%s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.bounded ? "" : " not bounded");
}

void
printPhaseSummary(const WorkloadSpec &spec, const Phase &phase)
{
    std::printf("  cpu_us_per_vector by slice:");
    for (std::size_t k = 0; k < spec.slices; ++k)
        std::printf(" %.6g", 1e6 * phase.sliceCpuSeconds[k] /
                                 static_cast<double>(
                                     phase.sliceWindowVectors[k]));
    std::printf("\n");
    std::printf("  throughput %.6g/s over the whole window; by slice:",
                static_cast<double>(phase.vectors) / phase.vectorSeconds);
    for (const std::uint64_t v : phase.sliceVectors)
        std::printf(" %.6g", static_cast<double>(v) *
                                 static_cast<double>(spec.slices) /
                                 phase.vectorSeconds);
    std::printf("\n");
    std::printf("  latency samples %zu in %zu slice(s); slo limit %.1f ms\n",
                latencyCount(phase), spec.slices, spec.sloMs);
    std::vector<double> kept;
    for (std::size_t k = 0; k < spec.slices; ++k) {
        const Reservoir &r = phase.sliceLatencyMs[k];
        const auto &lat = r.samples();
        std::printf("    slice %zu: %llu samples, %zu kept (%zu beyond p%u), "
                    "p50 %.6g ms\n",
                    k, static_cast<unsigned long long>(r.seen()), lat.size(),
                    samplesBeyond(lat.size(), kTailPercent), kTailPercent,
                    median(lat));
        kept.insert(kept.end(), lat.begin(), lat.end());
    }
    if (const auto p99 = tailPercentile(kept, 99))
        std::printf("  p99_ms %.6g over the kept samples of the window (%zu "
                    "beyond; not bounded)\n",
                    *p99, samplesBeyond(kept.size(), 99));
    else
        std::printf("  p99_ms refused: %zu samples beyond it, need %zu\n",
                    samplesBeyond(kept.size(), 99), kMinBeyond);
    std::printf("  attempted %llu, failed %llu (busy %llu), mismatched %llu, "
                "failed_frac %.6g (base: attempted)\n",
                static_cast<unsigned long long>(phase.attempted),
                static_cast<unsigned long long>(phase.failed),
                static_cast<unsigned long long>(phase.busy),
                static_cast<unsigned long long>(phase.mismatched),
                failedFrac(phase.failed + phase.mismatched, phase.attempted));
    if (spec.traffic == Traffic::EsnSequence)
        std::printf("  esn_step_us %.6g (median trajectory latency / %zu "
                    "steps)\n",
                    median(kept) * 1000.0 /
                        static_cast<double>(spec.steps),
                    spec.steps);
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    const char *sep = "\"";
    for (const Metric &m : metrics) {
        if (!m.bounded)
            continue;
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += sep + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
                m.unit + "\"}";
        sep = ", \"";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Per-layer probes (traced run, server idle).
// ---------------------------------------------------------------------

/** Median microseconds of `fn` over `iters` calls. */
std::vector<double>
timeCalls(std::size_t iters, const std::function<void()> &fn)
{
    std::vector<double> us;
    for (std::size_t i = 0; i < iters; ++i) {
        const auto t = Clock::now();
        fn();
        us.push_back(usSince(t));
    }
    return us;
}

/** Ungated full-sweep bytes one netlist pass streams, per tile. */
double
passBytes(const core::CompiledMatrix &tile, unsigned lane_words)
{
    const circuit::ExecPlan &plan = tile.plan();
    const double w = lane_words;
    const double tape =
        static_cast<double>(plan.comb().size() * sizeof(circuit::ExecPlan::CombOp) +
                            plan.regs().size() * sizeof(circuit::ExecPlan::RegOp));
    // Value array written by settle + carries read and written by commit.
    const double state = (static_cast<double>(plan.numSlots()) +
                          2.0 * static_cast<double>(plan.regs().size())) *
                         w * 8.0;
    return (tape + state) * tile.drainCycles();
}

void
probeLayers(const WorkloadSpec &spec, Rig &rig, const Phase &traced,
            const ServerCounters &delta,
            std::uint64_t seed, const std::string &scratch,
            std::vector<Metric> *out)
{
    auto add = [&](const char *name, double value, const char *unit,
                   std::size_t samples) {
        out->push_back({name, value, unit, samples});
    };
    // A traced-window timing: its median, in the unit its name ends in.
    auto addTimed = [&](const char *name, const Reservoir &r) {
        const std::string n = name;
        add(name, median(r.samples()), n.substr(n.rfind('_') + 1).c_str(),
            r.seen());
    };
    const auto compile = compileOptions();

    // core: compile every design; the counts describe the modelled
    // hardware and repeat exactly for a seed.
    std::vector<double> compile_ms;
    std::vector<core::TiledDesign> designs;
    DesignCounts counts;
    for (const auto &w : rig.weights) {
        const auto t = Clock::now();
        designs.push_back(core::TiledDesign::compile(w, compile));
        compile_ms.push_back(secondsSince(t) * 1e3);
        addCounts(counts, designs.back());
    }
    const std::size_t nd = designs.size();
    add("core.compile_ms", median(compile_ms), "ms", nd);
    add("core.netlist_nodes", static_cast<double>(counts.netlistNodes),
        "count", nd);
    add("core.weight_ones", static_cast<double>(counts.weightOnes), "count",
        nd);
    add("core.drain_cycles", static_cast<double>(counts.drainCycles), "count",
        nd);
    add("core.tiles", static_cast<double>(counts.tiles), "count", nd);

    // core/circuit engine: one group shaped like the workload's groups
    // (the median executed group, or lanes/groups over the wire).
    const core::TiledDesign &d0 = designs.front();
    std::size_t rows = 1;
    if (traced.groupLanes.seen() > 0)
        rows = static_cast<std::size_t>(median(traced.groupLanes.samples()));
    else if (delta.groups > 0)
        rows = static_cast<std::size_t>(
            std::max<std::uint64_t>(1, delta.lanes / delta.groups));
    Rng rng(seed);
    const IntMatrix batch = spatial::makeSignedBatch(rows, spec.dim, kBits, rng);
    core::SimOptions sim;
    sim.threads = 1; // the Server runs each group on one worker
    const IntMatrix want = referenceAnswer(
        serve::Request::gemvBatch(batch), rig.weights.front());
    bool engine_ok = d0.multiplyBatchWide(batch, sim) == want;
    const auto pass_us = timeCalls(200, [&] { d0.multiplyBatchWide(batch, sim); });
    const double pass = median(pass_us);
    add("core.pass_us", pass, "us", pass_us.size());

    std::vector<std::int64_t> x(batch.cols()), o;
    for (std::size_t c = 0; c < x.size(); ++c)
        x[c] = batch.at(0, c);
    core::TiledGemv gemv(d0);
    gemv.multiplyInto(x, o);
    for (std::size_t c = 0; c < o.size(); ++c)
        engine_ok = engine_ok && o[c] == want.at(0, c);
    const auto step_us = timeCalls(300, [&] { gemv.multiplyInto(x, o); });
    add("core.step_us", median(step_us), "us", step_us.size());

    add("circuit.segments_skipped_frac",
        skippedFrac(delta.segExecuted, delta.segSkipped), "fraction",
        static_cast<std::size_t>(delta.segExecuted + delta.segSkipped));
    double bytes_per_pass = 0.0, bytes_per_vector = 0.0;
    for (std::size_t t = 0; t < d0.tileCount(); ++t) {
        const unsigned lw = core::resolvedLaneWords(d0.tile(t), sim, rows);
        const double b = passBytes(d0.tile(t), lw);
        bytes_per_vector += b / (64.0 * lw);
        bytes_per_pass +=
            b * static_cast<double>((rows + 64 * lw - 1) / (64 * lw));
    }
    add("circuit.tape_bytes_per_vector", bytes_per_vector, "B/computed", 1);
    add("circuit.achieved_gbps", bytes_per_pass / (pass * 1e3), "GB/s",
        pass_us.size());

    // serve: the traced phase's Response timestamps and Server::stats().
    addTimed("serve.queue_wait_ms", traced.queueWaitMs);
    addTimed("serve.exec_ms", traced.execMs);
    add("serve.occupancy", occupancy(delta.lanes, delta.paddedLanes),
        "fraction", static_cast<std::size_t>(delta.paddedLanes));
    add("serve.flush_deadline_frac", ratio(delta.flushDeadline, delta.groups),
        "fraction", delta.full ? static_cast<std::size_t>(delta.groups) : 0);
    add("serve.groups", static_cast<double>(delta.groups), "count", 1);
    add("serve.engine_passes", static_cast<double>(delta.enginePasses),
        "count", delta.full ? 1 : 0);

    // store: hot-tier accounting from the run, codec and cold tier timed
    // here on every design.
    add("store.hit_ratio", hitRatio(delta.hits, delta.misses), "fraction",
        static_cast<std::size_t>(delta.hits + delta.misses));
    std::vector<double> ser_ms, deser_ms, bytes, put_ms, get_ms;
    const std::string cold_dir =
        scratch + "/probe-cold-" + std::to_string(::getpid());
    fs::remove_all(cold_dir);
    fs::create_directories(cold_dir);
    {
        spatial::store::ColdTier cold(cold_dir);
        for (std::size_t i = 0; i < nd; ++i) {
            const auto key =
                spatial::experiments::makeDesignKey(rig.weights[i], compile);
            auto t = Clock::now();
            const auto blob = spatial::store::serializeDesign(key, designs[i]);
            ser_ms.push_back(secondsSince(t) * 1e3);
            bytes.push_back(static_cast<double>(blob.size()));
            std::shared_ptr<const core::TiledDesign> back;
            t = Clock::now();
            const auto st = spatial::store::deserializeDesign(
                blob.data(), blob.size(), &back);
            deser_ms.push_back(secondsSince(t) * 1e3);
            t = Clock::now();
            const bool put_ok = cold.put(key, designs[i]);
            put_ms.push_back(secondsSince(t) * 1e3);
            std::shared_ptr<const core::TiledDesign> loaded;
            t = Clock::now();
            const auto got = cold.get(key, &loaded);
            get_ms.push_back(secondsSince(t) * 1e3);
            engine_ok = engine_ok && st == spatial::store::LoadStatus::Ok &&
                        put_ok && got == spatial::store::LoadStatus::Ok &&
                        loaded->multiplyBatchWide(batch, sim) ==
                            designs[i].multiplyBatchWide(batch, sim);
        }
    }
    fs::remove_all(cold_dir);
    add("store.load_ms", median(get_ms), "ms", nd);
    add("store.spill_ms", median(put_ms), "ms", nd);
    add("store.serialize_ms", median(ser_ms), "ms", nd);
    add("store.deserialize_ms", median(deser_ms), "ms", nd);
    add("store.bytes_per_design", median(bytes), "B", nd);
    add("store.promotions", static_cast<double>(delta.promotions), "count", 1);
    add("store.demotions", static_cast<double>(delta.demotions), "count", 1);
    add("store.cold_fallbacks", static_cast<double>(delta.coldFallbacks),
        "count", delta.full ? 1 : 0);

    // serve.wire: the codec on the workload's own requests and replies.
    addTimed("wire.encode_req_us", traced.encReqUs);
    addTimed("wire.decode_req_us", traced.decReqUs);
    addTimed("wire.encode_resp_us", traced.encRespUs);
    addTimed("wire.decode_resp_us", traced.decRespUs);
    add("wire.bytes_per_request", median(traced.requestBytes.samples()), "B",
        traced.requestBytes.seen());

    // serve.net: idle loopback round trips.  Over TCP on the run's own
    // connection; in process on a throwaway one-worker NetServer.
    std::unique_ptr<serve::NetServer> probe_server;
    std::unique_ptr<serve::NetClient> probe_client;
    serve::NetClient *client = rig.client.get();
    if (!client) {
        serve::NetServerOptions net;
        net.serve.workers = 1;
        probe_server = std::make_unique<serve::NetServer>(net);
        probe_client = std::make_unique<serve::NetClient>(
            "127.0.0.1", probe_server->port());
        client = probe_client.get();
    }
    bool ping_ok = true;
    const auto ping_us = timeCalls(
        300, [&] { ping_ok = ping_ok && client->ping() == wire::Status::Ok; });
    probe_client.reset();
    probe_server.reset();
    add("net.ping_us", median(ping_us), "us", ping_us.size());
    add("net.shed", static_cast<double>(delta.shed), "count", 1);
    add("net.busy_retries", static_cast<double>(traced.busy), "count", 1);

    const auto late = nearestRank(traced.lateMs.samples(), 99);
    add("loadgen.late_p99_ms", late.value_or(0.0), "ms",
        traced.lateMs.seen());

    if (!engine_ok || !ping_ok) {
        std::fprintf(stderr, "perfbench: a layer probe returned a wrong "
                             "result\n");
        std::exit(1);
    }
}

int
run(const Args &args)
{
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (!spec)
        usage(("unknown workload " + args.workload).c_str());
    fs::create_directories(args.scratch);
    const std::string spill_base =
        args.scratch + "/spill-" + std::to_string(::getpid());

    // setup_s: designs generated, registered and compiled, kSetups times.
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        if (i > 0)
            std::this_thread::sleep_for(kSetupGap);
        const auto t = Clock::now();
        rig = setUp(*spec, args.seed,
                    spill_base + "-" + std::to_string(i));
        setup_s.push_back(secondsSince(t));
    }
    const double setup = median(setup_s);
    const auto [lo, hi] = std::minmax_element(setup_s.begin(), setup_s.end());

    const auto pools = makePools(*spec, rig->weights, args.seed);
    const auto kernel = core::resolvedKernel({});
    std::printf("workload %s seed %llu seconds %g trace %d kernel %s jit off\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, kernel.name);
    std::printf("setup: %d set-ups, median %.6g s, min %.6g s, max %.6g s\n",
                kSetups, setup, *lo, *hi);

    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    auto account = [&](const Phase &phase) {
        attempted += phase.attempted;
        failed += phase.failed + phase.mismatched;
        correct = correct && phase.mismatched == 0;
    };

    const Phase plain =
        Generator(*spec, *rig, pools, args.seed, false).run(args.seconds);
    account(plain);
    const std::vector<Metric> e2e = endToEnd(*spec, plain, setup);
    printMetrics(args.trace ? "end-to-end (untraced)" : "end-to-end", e2e);
    printPhaseSummary(*spec, plain);

    std::vector<Metric> result = e2e;
    if (args.trace) {
        const ServerCounters before = readCounters(*rig);
        const Phase traced =
            Generator(*spec, *rig, pools, args.seed, true).run(args.seconds);
        const ServerCounters delta = readCounters(*rig) - before;
        account(traced);
        const std::vector<Metric> e2e_traced = endToEnd(*spec, traced, setup);
        printMetrics("end-to-end (traced)", e2e_traced);
        printPhaseSummary(*spec, traced);
        std::printf("tracing overhead (traced - untraced) / untraced\n");
        for (const Metric &t : e2e_traced)
            for (const Metric &u : e2e)
                if (u.name == t.name)
                    std::printf("  %-32s %+9.2f%%\n", t.name.c_str(),
                                100.0 * (t.value - u.value) / u.value);
        result.clear();
        probeLayers(*spec, *rig, traced, delta, args.seed, args.scratch,
                    &result);
        printMetrics("per-layer", result);
    }
    rig.reset();

    printJson(correct, attempted, failed, result);
    return correct && failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
