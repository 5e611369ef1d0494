#include "serve/server.h"

#include <algorithm>
#include <chrono>

#include "common/fault.h"
#include "common/logging.h"
#include "core/batch_engine.h"
#include "matrix/bits.h"

namespace spatial::serve
{

Server::Server(ServeOptions options)
    : options_(options),
      store_(StoreOptions{options.storeCapacity, options.storeSpillDir,
                          options.tile})
{
    options_.maxBatch = std::max<std::size_t>(1, options_.maxBatch);
    // Group execution forces threads = 1 (see executeGroup), so the
    // admission W must be resolved the same way.
    core::SimOptions admit_sim = options_.sim;
    admit_sim.threads = 1;
    store_.setJitAdmission(admit_sim, options_.maxBatch);
    unsigned workers = options_.workers != 0
                           ? options_.workers
                           : std::thread::hardware_concurrency();
    workers = std::max(1u, workers);
    options_.workers = workers;

    workerBusyUs_ =
        std::make_unique<std::atomic<std::int64_t>[]>(workers);
    for (unsigned i = 0; i < workers; ++i)
        workerBusyUs_[i].store(0, std::memory_order_relaxed);

    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    timer_ = std::thread([this] { timerLoop(); });
    if (options_.maxQueueAge.count() > 0 ||
        options_.slowWorkerAfter.count() > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

Server::~Server()
{
    drain();
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    timerCv_.notify_all();
    watchdogCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    timer_.join();
    if (watchdog_.joinable())
        watchdog_.join();
}

DesignId
Server::registerDesign(const IntMatrix &weights,
                       const core::CompileOptions &options)
{
    const auto key = experiments::makeDesignKey(weights, options);
    {
        MutexLock lock(mutex_);
        const auto it = designIds_.find(key);
        if (it != designIds_.end())
            return it->second;
    }
    // Materialize outside the scheduling lock; the store dedups
    // concurrent compilations of the same design (and reuses the key
    // computed above instead of re-hashing the matrix).  The returned
    // pointer is dropped on purpose: entries do not pin designs, the
    // tiered store owns residency.
    store_.get(key, weights, options);

    MutexLock lock(mutex_);
    const auto it = designIds_.find(key);
    if (it != designIds_.end())
        return it->second;
    const DesignId id = designs_.size();
    BatchPolicy policy{options_.maxBatch, options_.maxDelay};
    designs_.push_back(std::make_unique<DesignEntry>(
        id, key, weights, options, policy));
    designIds_.emplace(key, id);
    return id;
}

std::future<Response>
Server::submit(DesignId id, Request request)
{
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    submit(id, std::move(request), [promise](Response response) {
        promise->set_value(std::move(response));
    });
    return future;
}

void
Server::submit(DesignId id, Request request, Completion done)
{
    PendingRequest pending;
    pending.request = std::move(request);
    pending.done = std::move(done);
    pending.submitAt = Clock::now();

    MutexLock lock(mutex_);
    if (id >= designs_.size())
        SPATIAL_FATAL("submit to unregistered design ", id);
    DesignEntry &entry = *designs_[id];
    const std::size_t rows = entry.weights.rows();
    const std::size_t cols = entry.weights.cols();
    const Request &req = pending.request;

    switch (req.kind) {
      case RequestKind::Gemv:
        if (req.vec.size() != rows)
            SPATIAL_FATAL("gemv input length ", req.vec.size(),
                          " != design rows ", rows);
        break;
      case RequestKind::GemvBatch:
        if (req.batch.rows() == 0 || req.batch.cols() != rows)
            SPATIAL_FATAL("gemv batch shape ", req.batch.rows(), "x",
                          req.batch.cols(), " vs design rows ", rows);
        break;
      case RequestKind::EsnStep:
        if (req.vec.size() != rows)
            SPATIAL_FATAL("esn state length ", req.vec.size(),
                          " != design rows ", rows);
        if (!req.inject.empty() && req.inject.size() != cols)
            SPATIAL_FATAL("esn inject length ", req.inject.size(),
                          " != design cols ", cols);
        break;
      case RequestKind::EsnSequence:
        if (rows != cols)
            SPATIAL_FATAL("esn sequence needs a square design, got ",
                          rows, "x", cols);
        if (req.vec.size() != rows)
            SPATIAL_FATAL("esn state length ", req.vec.size(),
                          " != design rows ", rows);
        if (req.injectSeq.rows() > 0 && req.injectSeq.cols() != cols)
            SPATIAL_FATAL("esn inject width ", req.injectSeq.cols(),
                          " != design cols ", cols);
        break;
    }
    if ((req.kind == RequestKind::EsnStep ||
         req.kind == RequestKind::EsnSequence) &&
        (req.postShift < 0 || req.postShift > 62 ||
         req.stateBits < 1 || req.stateBits > 62))
        SPATIAL_FATAL("esn postShift/stateBits out of range: ",
                      req.postShift, "/", req.stateBits);

    ++stats_.requests;

    if (req.kind == RequestKind::EsnSequence) {
        // Sequential job: no lanes to pack, straight to the scheduler.
        Group group;
        group.design = id;
        group.lanes = 0;
        group.reason = FlushReason::Direct;
        group.flushAt = pending.submitAt;
        group.requests.push_back(std::move(pending));
        std::vector<Group> direct;
        direct.push_back(std::move(group));
        pushGroupsLocked(std::move(direct));
    } else {
        auto flushed = entry.batcher.enqueue(std::move(pending),
                                             Clock::now());
        pushGroupsLocked(std::move(flushed));
        // The deadline horizon only moves when this enqueue opened a
        // fresh group (queue was empty, or an overflow flush left the
        // request alone); skip the timer wakeup otherwise.
        if (entry.batcher.pendingRequests() == 1)
            timerCv_.notify_one();
    }
}

void
Server::pushGroupsLocked(std::vector<Group> groups)
{
    for (auto &group : groups) {
        switch (group.reason) {
          case FlushReason::Full:
            ++stats_.flushFull;
            break;
          case FlushReason::Deadline:
            ++stats_.flushDeadline;
            break;
          case FlushReason::Drain:
            ++stats_.flushDrain;
            break;
          case FlushReason::Direct:
            break;
        }
        designs_[group.design]->ready.push_back(std::move(group));
        ++readyGroups_;
    }
    if (!groups.empty())
        workCv_.notify_all();
}

std::optional<Group>
Server::popGroupLocked()
{
    if (readyGroups_ == 0 || designs_.empty())
        return std::nullopt;
    // Round-robin across designs: scan from the cursor, take the first
    // non-empty queue, and advance the cursor past it, so a design with
    // a deep backlog yields to its neighbours after every group.
    const std::size_t n = designs_.size();
    for (std::size_t offset = 0; offset < n; ++offset) {
        const std::size_t d = (rrCursor_ + offset) % n;
        auto &ready = designs_[d]->ready;
        if (ready.empty())
            continue;
        Group group = std::move(ready.front());
        ready.pop_front();
        --readyGroups_;
        rrCursor_ = (d + 1) % n;
        return group;
    }
    return std::nullopt;
}

void
Server::workerLoop(unsigned index)
{
    MutexLock lock(mutex_);
    for (;;) {
        while (readyGroups_ == 0 && !stopping_)
            workCv_.wait(mutex_);
        if (stopping_ && readyGroups_ == 0)
            return;
        auto group = popGroupLocked();
        if (!group)
            continue;
        ++inFlight_;
        // Materialize the design outside the lock: a hot design is a
        // map lookup; a demoted one reloads from the cold tier (or
        // recompiles).  The shared_ptr pins it across execution even
        // if the LRU demotes it meanwhile.
        DesignEntry &entry = *designs_[group->design];
        lock.unlock();
        workerBusyUs_[index].store(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now().time_since_epoch())
                .count(),
            std::memory_order_release);
        // Injection site: a stalled/slow worker holds its group for
        // `param` ms while the queue behind it ages — exactly what
        // the queue-age watchdog and the wire front end's shed path
        // are there to absorb.
        if (const std::uint64_t stall_ms = fault::injectFaultParam(
                fault::Site::ServeWorkerStall)) {
            workerFaults_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }
        auto design =
            store_.get(entry.key, entry.weights, entry.compile);
        if (!group->requests.empty() &&
            group->requests.front().request.kind ==
                RequestKind::EsnSequence)
            executeSequence(*design, std::move(*group));
        else
            executeGroup(*design, std::move(*group));
        workerBusyUs_[index].store(0, std::memory_order_release);
        lock.lock();
        --inFlight_;
        if (readyGroups_ == 0 && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

void
Server::fulfillShed(std::vector<Group> shed)
{
    const auto done = Clock::now();
    for (auto &group : shed)
        for (auto &p : group.requests) {
            Response resp;
            resp.submitAt = p.submitAt;
            resp.flushAt = group.flushAt;
            resp.doneAt = done;
            resp.groupLanes =
                static_cast<std::uint32_t>(group.lanes);
            resp.flushReason = group.reason;
            resp.shed = true;
            p.done(std::move(resp));
        }
}

void
Server::watchdogLoop()
{
    // Scan period: fine enough to catch expiry promptly, coarse
    // enough to stay invisible — a quarter of the tightest enabled
    // threshold, floored at 1ms.
    auto period = std::chrono::milliseconds::max();
    if (options_.maxQueueAge.count() > 0)
        period = std::min(period, options_.maxQueueAge);
    if (options_.slowWorkerAfter.count() > 0)
        period = std::min(period, options_.slowWorkerAfter);
    period = std::max(std::chrono::milliseconds(1), period / 4);

    std::vector<bool> flagged(options_.workers, false);
    MutexLock lock(mutex_);
    while (!stopping_) {
        watchdogCv_.wait_for(mutex_, period);
        if (stopping_)
            return;

        std::vector<Group> expired;
        if (options_.maxQueueAge.count() > 0) {
            const auto cutoff = Clock::now() - options_.maxQueueAge;
            for (const auto &entry : designs_) {
                auto &ready = entry->ready;
                // Ready queues are FIFO per design, so the front
                // group holds the oldest submit; stop at the first
                // young one.
                while (!ready.empty() &&
                       !ready.front().requests.empty() &&
                       ready.front().requests.front().submitAt <
                           cutoff) {
                    stats_.watchdogShed +=
                        ready.front().requests.size();
                    expired.push_back(std::move(ready.front()));
                    ready.pop_front();
                    --readyGroups_;
                }
            }
            if (!expired.empty() && readyGroups_ == 0 &&
                inFlight_ == 0)
                idleCv_.notify_all();
        }

        if (options_.slowWorkerAfter.count() > 0) {
            const std::int64_t now_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now().time_since_epoch())
                    .count();
            const std::int64_t limit_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    options_.slowWorkerAfter)
                    .count();
            for (unsigned w = 0; w < options_.workers; ++w) {
                const std::int64_t busy =
                    workerBusyUs_[w].load(std::memory_order_acquire);
                if (busy != 0 && now_us - busy > limit_us) {
                    // One flag per busy episode, not per scan.
                    if (!flagged[w]) {
                        flagged[w] = true;
                        ++stats_.slowWorkerFlags;
                        SPATIAL_WARN("serve: worker ", w,
                                     " busy on one group for ",
                                     (now_us - busy) / 1000, "ms");
                    }
                } else {
                    flagged[w] = false;
                }
            }
        }

        if (!expired.empty()) {
            lock.unlock();
            fulfillShed(std::move(expired));
            lock.lock();
        }
    }
}

void
Server::executeGroup(const core::TiledDesign &design, Group group)
{
    const std::size_t rows = design.rows();
    const std::size_t cols = design.cols();

    // Pad the group to the engine's 64-lane boundary; the zero lanes
    // are valid inputs and their outputs are simply dropped.
    const std::size_t padded = (group.lanes + 63) / 64 * 64;
    IntMatrix batch(padded, rows);
    std::size_t lane = 0;
    for (const auto &p : group.requests) {
        const Request &req = p.request;
        if (req.kind == RequestKind::GemvBatch) {
            for (std::size_t b = 0; b < req.batch.rows(); ++b, ++lane)
                for (std::size_t r = 0; r < rows; ++r)
                    batch.at(lane, r) = req.batch.at(b, r);
        } else {
            for (std::size_t r = 0; r < rows; ++r)
                batch.at(lane, r) = req.vec[r];
            ++lane;
        }
    }
    SPATIAL_ASSERT(lane == group.lanes, "lane accounting");

    // One worker, one group: intra-group threading would fight the
    // pool's group-level parallelism — except across tiles, where the
    // strips are independent and a multi-tile design would otherwise
    // serialize its strips on one core.  The engine sizes its
    // lane-words to the dispatched SIMD kernel and this group's padded
    // size, so a full 256-lane group is one AVX2 pass instead of four.
    core::SimOptions sim = options_.sim;
    sim.threads = design.tiled() ? options_.workers : 1;
    core::SimOptions pass_sim = sim;
    pass_sim.threads = 1;
    std::size_t passes = 0;
    for (std::size_t i = 0; i < design.tileCount(); ++i) {
        const std::size_t pass_lanes =
            64 * core::resolvedLaneWords(design.tile(i), pass_sim,
                                         padded);
        passes += (padded + pass_lanes - 1) / pass_lanes;
    }
    core::BatchStats engine_stats;
    const IntMatrix out =
        design.multiplyBatchWide(batch, sim, &engine_stats);

    // Book the group's counters before calling any completion: a
    // client that synchronizes on its response must observe them.
    {
        MutexLock lock(mutex_);
        ++stats_.groups;
        stats_.lanes += group.lanes;
        stats_.paddedLanes += padded;
        stats_.enginePasses += passes;
        stats_.segmentsExecuted += engine_stats.segmentsExecuted;
        stats_.segmentsSkipped += engine_stats.segmentsSkipped;
        stats_.jitGroups += engine_stats.jitGroups;
        stats_.jitFallbackGroups += engine_stats.interpFallbackGroups;
    }

    const auto done = Clock::now();
    lane = 0;
    for (auto &p : group.requests) {
        const Request &req = p.request;
        Response resp;
        resp.submitAt = p.submitAt;
        resp.flushAt = group.flushAt;
        resp.doneAt = done;
        resp.groupLanes = static_cast<std::uint32_t>(group.lanes);
        resp.flushReason = group.reason;
        resp.segmentsExecuted = engine_stats.segmentsExecuted;
        resp.segmentsSkipped = engine_stats.segmentsSkipped;
        if (req.kind == RequestKind::GemvBatch) {
            resp.output = IntMatrix(req.batch.rows(), cols);
            for (std::size_t b = 0; b < req.batch.rows(); ++b, ++lane)
                for (std::size_t c = 0; c < cols; ++c)
                    resp.output.at(b, c) = out.at(lane, c);
        } else if (req.kind == RequestKind::EsnStep) {
            resp.output = IntMatrix(1, cols);
            for (std::size_t c = 0; c < cols; ++c) {
                const std::int64_t inj =
                    req.inject.empty() ? 0 : req.inject[c];
                resp.output.at(0, c) =
                    esnClipUpdate(out.at(lane, c) + inj, req.postShift,
                                  req.stateBits);
            }
            ++lane;
        } else {
            resp.output = IntMatrix(1, cols);
            for (std::size_t c = 0; c < cols; ++c)
                resp.output.at(0, c) = out.at(lane, c);
            ++lane;
        }
        p.done(std::move(resp));
    }
}

void
Server::executeSequence(const core::TiledDesign &design, Group group)
{
    auto &p = group.requests.front();
    const Request &req = p.request;
    const std::size_t cols = design.cols();
    const std::size_t steps = req.injectSeq.rows();

    core::TiledGemv gemv(design, options_.sim);
    std::vector<std::int64_t> state = req.vec;
    std::vector<std::int64_t> product(cols);
    IntMatrix trajectory(steps, cols);
    for (std::size_t t = 0; t < steps; ++t) {
        gemv.multiplyInto(state, product);
        for (std::size_t c = 0; c < cols; ++c) {
            state[c] =
                esnClipUpdate(product[c] + req.injectSeq.at(t, c),
                              req.postShift, req.stateBits);
            trajectory.at(t, c) = state[c];
        }
    }

    const core::BatchStats seq_stats = gemv.engineStats();
    {
        MutexLock lock(mutex_);
        ++stats_.sequences;
        stats_.sequenceSteps += steps;
        stats_.segmentsExecuted += seq_stats.segmentsExecuted;
        stats_.segmentsSkipped += seq_stats.segmentsSkipped;
        stats_.jitGroups += seq_stats.jitGroups;
        stats_.jitFallbackGroups += seq_stats.interpFallbackGroups;
    }

    Response resp;
    resp.submitAt = p.submitAt;
    resp.flushAt = group.flushAt;
    resp.doneAt = Clock::now();
    resp.groupLanes = 1;
    resp.flushReason = FlushReason::Direct;
    resp.segmentsExecuted = seq_stats.segmentsExecuted;
    resp.segmentsSkipped = seq_stats.segmentsSkipped;
    resp.output = std::move(trajectory);
    p.done(std::move(resp));
}

void
Server::timerLoop()
{
    MutexLock lock(mutex_);
    while (!stopping_) {
        // Earliest pending deadline across all batchers.
        std::optional<std::chrono::time_point<Clock>> earliest;
        for (const auto &entry : designs_) {
            const auto d = entry->batcher.deadline();
            if (d && (!earliest || *d < *earliest))
                earliest = d;
        }
        if (!earliest) {
            timerCv_.wait(mutex_);
            continue;
        }
        if (timerCv_.wait_until(mutex_, *earliest) ==
            std::cv_status::no_timeout)
            continue; // new submit or stop: recompute the horizon
        const auto now = Clock::now();
        std::vector<Group> expired;
        for (const auto &entry : designs_)
            if (auto group = entry->batcher.pollDeadline(now))
                expired.push_back(std::move(*group));
        pushGroupsLocked(std::move(expired));
    }
}

void
Server::flushAllLocked()
{
    const auto now = Clock::now();
    std::vector<Group> flushed;
    for (const auto &entry : designs_)
        if (auto group = entry->batcher.flush(FlushReason::Drain, now))
            flushed.push_back(std::move(*group));
    pushGroupsLocked(std::move(flushed));
}

void
Server::drain()
{
    MutexLock lock(mutex_);
    flushAllLocked();
    while (readyGroups_ != 0 || inFlight_ != 0)
        idleCv_.wait(mutex_);
}

bool
Server::drainFor(std::chrono::milliseconds timeout)
{
    const auto deadline = Clock::now() + timeout;
    MutexLock lock(mutex_);
    flushAllLocked();
    while (readyGroups_ != 0 || inFlight_ != 0) {
        if (idleCv_.wait_until(mutex_, deadline) ==
                std::cv_status::timeout &&
            (readyGroups_ != 0 || inFlight_ != 0))
            return false;
    }
    return true;
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    {
        MutexLock lock(mutex_);
        stats = stats_;
    }
    stats.store = store_.stats();
    stats.faultsInjected =
        workerFaults_.load(std::memory_order_relaxed) +
        stats.store.faultsInjected;
    return stats;
}

std::shared_ptr<const core::TiledDesign>
Server::design(DesignId id)
{
    DesignEntry *entry = nullptr;
    {
        MutexLock lock(mutex_);
        if (id >= designs_.size())
            SPATIAL_FATAL("unknown design ", id);
        entry = designs_[id].get();
    }
    // Outside the lock: may hit the cold tier or recompile.
    return store_.get(entry->key, entry->weights, entry->compile);
}

std::size_t
Server::designCount() const
{
    MutexLock lock(mutex_);
    return designs_.size();
}

} // namespace spatial::serve
