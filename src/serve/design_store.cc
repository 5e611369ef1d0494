#include "serve/design_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "analysis/verifier.h"
#include "common/fault.h"
#include "common/logging.h"
#include "core/batch_engine.h"

namespace spatial::serve
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

DesignStore::DesignStore(std::size_t capacity)
    : DesignStore(StoreOptions{capacity, {}, {}})
{}

DesignStore::DesignStore(StoreOptions options)
    : options_(std::move(options))
{
    options_.capacity = std::max<std::size_t>(1, options_.capacity);
    if (!options_.spillDir.empty())
        cold_ = std::make_unique<store::ColdTier>(options_.spillDir);
}

void
DesignStore::evictLocked(std::vector<Demotion> *demote)
{
    // Evict least-recently-used first, but never an entry whose
    // materialization is still in flight: evicting it would let a
    // concurrent request start a duplicate compile, and would leave
    // the owner's error-cleanup erasing someone else's entry.  If
    // everything over budget is in flight, capacity is exceeded
    // transiently and the next get() retries.
    auto it = lru_.end();
    while (entries_.size() > options_.capacity && it != lru_.begin()) {
        --it;
        const auto entry = entries_.find(*it);
        if (entry->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            continue;
        if (cold_ != nullptr)
            demote->emplace_back(entry->first,
                                 entry->second.future.get());
        entries_.erase(entry);
        it = lru_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
DesignStore::demote(std::vector<Demotion> demotions)
{
    // Serialization is file I/O over potentially tens of megabytes;
    // it must not run under the store mutex.  A design that went
    // through the cold tier before (spilled, or promoted from a file
    // that passed every check) is already on disk byte for byte, and
    // the write-once tier returns without rewriting it; either way
    // the eviction counts as a demotion.
    for (const auto &[key, design] : demotions)
        if (cold_->put(key, *design))
            demotions_.fetch_add(1, std::memory_order_relaxed);
}

void
DesignStore::setJitAdmission(const core::SimOptions &sim,
                             std::size_t max_batch_lanes)
{
    MutexLock lock(mutex_);
    jitAdmission_ = sim.jit;
    jitSim_ = sim;
    jitMaxBatchLanes_ = std::max<std::size_t>(1, max_batch_lanes);
}

void
DesignStore::admitJit(const core::TiledDesign &design)
{
    core::SimOptions sim;
    std::size_t max_batch_lanes = 0;
    {
        MutexLock lock(mutex_);
        if (!jitAdmission_)
            return;
        sim = jitSim_;
        max_batch_lanes = jitMaxBatchLanes_;
    }

    // The serving hot paths per tile: W = 1 (TiledGemv sequences,
    // small groups) and whatever W the engine resolves for a full
    // group.  Groups in between fall back to the interpreted tape,
    // which the engine's interpFallbackGroups counter makes visible.
    std::size_t attached = 0;
    std::size_t wanted = 0;
    for (std::size_t i = 0; i < design.tileCount(); ++i) {
        const core::CompiledMatrix &tile = design.tile(i);
        std::vector<unsigned> lane_words{1};
        const unsigned wide =
            core::resolvedLaneWords(tile, sim, max_batch_lanes);
        if (wide != 1)
            lane_words.push_back(wide);
        wanted += lane_words.size();
        for (const unsigned w : lane_words)
            if (tile.ensureJit(sim, w) != nullptr)
                ++attached;
    }
    if (attached == wanted)
        jitAdmitted_.fetch_add(1, std::memory_order_relaxed);
    else
        jitFailed_.fetch_add(1, std::memory_order_relaxed);
    jitCompileMicros_.fetch_add(
        static_cast<std::uint64_t>(design.jitCompileSeconds() * 1e6),
        std::memory_order_relaxed);
}

std::shared_ptr<const core::TiledDesign>
DesignStore::get(const IntMatrix &weights,
                 const core::CompileOptions &options)
{
    return get(experiments::makeDesignKey(weights, options), weights,
               options);
}

std::shared_ptr<const core::TiledDesign>
DesignStore::get(const experiments::DesignKey &key,
                 const IntMatrix &weights,
                 const core::CompileOptions &options)
{
    Future future;
    std::promise<std::shared_ptr<const core::TiledDesign>> promise;
    bool owner = false;
    std::vector<Demotion> pending_demotions;
    {
        MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            future = it->second.future;
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            owner = true;
            future = promise.get_future().share();
            lru_.push_front(key);
            entries_.emplace(key, Entry{future, lru_.begin()});
            evictLocked(&pending_demotions);
        }
    }
    if (!pending_demotions.empty())
        demote(std::move(pending_demotions));
    if (owner) {
        try {
            std::shared_ptr<const core::TiledDesign> design;

            // Cold tier first: a demoted design rematerializes from
            // its spill file — netlist replay plus plan rebuild, not
            // a recompile.  Any validation failure falls back.
            if (cold_ != nullptr) {
                const auto start = std::chrono::steady_clock::now();
                const auto status = cold_->get(key, &design);
                if (status == store::LoadStatus::Ok) {
                    promotions_.fetch_add(1,
                                          std::memory_order_relaxed);
                    loadMicros_.fetch_add(
                        static_cast<std::uint64_t>(
                            secondsSince(start) * 1e6),
                        std::memory_order_relaxed);
                } else if (status != store::LoadStatus::NotFound) {
                    coldFallbacks_.fetch_add(
                        1, std::memory_order_relaxed);
                    SPATIAL_WARN(
                        "store: cold design ", cold_->pathFor(key),
                        " unusable (",
                        store::loadStatusName(status),
                        "); recompiling");
                }
#ifndef NDEBUG
                // Debug builds statically verify every rematerialized
                // design; a checksum-valid file whose artifacts break
                // an invariant falls back to a recompile exactly like
                // a Corrupt load status.
                if (design != nullptr) {
                    const analysis::Report report =
                        analysis::verifyDesign(*design);
                    if (!report.ok()) {
                        design = nullptr;
                        // The tier vouched for this file; drop it so
                        // the next demotion writes a good one.
                        cold_->erase(key);
                        coldFallbacks_.fetch_add(
                            1, std::memory_order_relaxed);
                        SPATIAL_WARN(
                            "store: cold design ",
                            cold_->pathFor(key),
                            " failed verification (",
                            report.diagnostics.front().rule,
                            "); recompiling");
                    }
                }
#endif
            }
            if (design == nullptr) {
                // Injection sites: an admission latency spike, and a
                // transient compile failure.  Real compile errors
                // propagate to every waiter as an exception; an
                // injected failure models a transient toolchain
                // hiccup on a compilable design, which admission
                // rides out with a bounded backoff-retry loop — the
                // request is delayed, never failed, and never
                // escapes as an exception into the worker pool.
                if (const std::uint64_t spike_ms =
                        fault::injectFaultParam(
                            fault::Site::StoreCompileDelay)) {
                    faultsInjected_.fetch_add(
                        1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(spike_ms));
                }
                for (int attempt = 0;
                     attempt < 4 &&
                     fault::injectFault(
                         fault::Site::StoreCompileFail);
                     ++attempt) {
                    faultsInjected_.fetch_add(
                        1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1LL << attempt));
                }
                const auto start = std::chrono::steady_clock::now();
                design = std::make_shared<const core::TiledDesign>(
                    core::TiledDesign::compile(weights, options,
                                               options_.tile));
                compileMicros_.fetch_add(
                    static_cast<std::uint64_t>(secondsSince(start) *
                                               1e6),
                    std::memory_order_relaxed);
#ifndef NDEBUG
                // A freshly compiled design failing static
                // verification is a compiler bug, not bad input —
                // surface it at the source instead of as a downstream
                // miscompare.
                if (const analysis::Report report =
                        analysis::verifyDesign(*design);
                    !report.ok())
                    SPATIAL_PANIC(
                        "store: compiled design failed verification: ",
                        report.diagnostics.front().str());
#endif
            }
            // JIT admission happens before the future resolves, so
            // waiters blocked on this entry also cover the native
            // compile: one admission per design, storm or not.
            admitJit(*design);
            promise.set_value(std::move(design));
        } catch (...) {
            promise.set_exception(std::current_exception());
            MutexLock lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                lru_.erase(it->second.lruIt);
                entries_.erase(it);
            }
            throw;
        }
    }
    return future.get();
}

DesignStore::Stats
DesignStore::stats() const
{
    Stats stats;
    stats.cache.hits = hits_.load(std::memory_order_relaxed);
    stats.cache.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.demotions = demotions_.load(std::memory_order_relaxed);
    stats.promotions = promotions_.load(std::memory_order_relaxed);
    stats.coldFallbacks =
        coldFallbacks_.load(std::memory_order_relaxed);
    stats.compileSeconds =
        static_cast<double>(
            compileMicros_.load(std::memory_order_relaxed)) /
        1e6;
    stats.loadSeconds =
        static_cast<double>(
            loadMicros_.load(std::memory_order_relaxed)) /
        1e6;
    stats.jitAdmitted = jitAdmitted_.load(std::memory_order_relaxed);
    stats.jitFailed = jitFailed_.load(std::memory_order_relaxed);
    stats.jitCompileSeconds =
        static_cast<double>(
            jitCompileMicros_.load(std::memory_order_relaxed)) /
        1e6;
    stats.faultsInjected =
        faultsInjected_.load(std::memory_order_relaxed);
    if (cold_ != nullptr)
        stats.cold = cold_->stats();
    {
        MutexLock lock(mutex_);
        stats.resident = entries_.size();
    }
    return stats;
}

} // namespace spatial::serve
