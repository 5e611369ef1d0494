/**
 * @file
 * Deadline-aware lane batching for one design.
 *
 * The wide engine wants 64*W-lane planes; clients send one-or-few-lane
 * requests.  The Batcher accumulates lane-shaped requests for a single
 * design and cuts flush groups under a pluggable policy:
 *
 *  - **full**: pending lanes reached BatchPolicy::maxBatch (or an
 *    incoming request would overflow the open group);
 *  - **deadline**: the oldest queued request has waited maxDelay;
 *  - **drain**: the owner flushes explicitly (shutdown, drain()).
 *
 * The class is deliberately not synchronized: the Server drives every
 * batcher under its scheduling lock, and the unit tests drive one
 * directly to pin the policy boundaries.  Timestamps are passed in so
 * tests can step a virtual clock.
 */

#ifndef SPATIAL_SERVE_BATCHER_H
#define SPATIAL_SERVE_BATCHER_H

#include <chrono>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace spatial::serve
{

/** Flush-policy knobs of one Batcher. */
struct BatchPolicy
{
    /** Lane budget per group; a full group flushes immediately. */
    std::size_t maxBatch = 256;

    /** Longest a queued request may wait before a forced flush. */
    std::chrono::microseconds maxDelay{2000};
};

/** One queued request awaiting execution. */
struct PendingRequest
{
    Request request;                        //!< the client's work
    Completion done;                        //!< called at scatter
    std::chrono::time_point<Clock> submitAt{}; //!< enqueue timestamp
};

/** A flushed set of requests, ready for the scheduler. */
struct Group
{
    DesignId design = 0;                  //!< owning design
    std::vector<PendingRequest> requests; //!< members, submit order
    std::size_t lanes = 0;                //!< total engine lanes
    FlushReason reason = FlushReason::Drain; //!< why it flushed
    std::chrono::time_point<Clock> flushAt{}; //!< flush timestamp
};

/** Per-design accumulator cutting groups under the flush policy. */
class Batcher
{
  public:
    /** Batcher for `design` under `policy` (maxBatch clamps to >=1). */
    Batcher(DesignId design, BatchPolicy policy);

    /**
     * Queue one lane-shaped request (not EsnSequence).  Returns the
     * groups this enqueue completed: the previously open group when the
     * request would have overflowed it, and/or the now-full group.  A
     * request that opens a group sets its deadline to
     * max(submitAt, now) + maxDelay, so queueing time spent upstream of
     * the batcher never produces an already-expired group.
     */
    std::vector<Group> enqueue(PendingRequest pending,
                               std::chrono::time_point<Clock> now);

    /**
     * Cut the open group if the oldest request's deadline has passed.
     */
    std::optional<Group> pollDeadline(std::chrono::time_point<Clock> now);

    /** Cut the open group unconditionally (empty => nullopt). */
    std::optional<Group> flush(FlushReason reason,
                               std::chrono::time_point<Clock> now);

    /**
     * When a request is queued, the instant the open group must flush;
     * nullopt when the queue is empty.
     */
    std::optional<std::chrono::time_point<Clock>> deadline() const;

    /** Lanes currently queued. */
    std::size_t pendingLanes() const { return pendingLanes_; }

    /** Requests currently queued. */
    std::size_t pendingRequests() const { return pending_.size(); }

    /** The flush policy. */
    const BatchPolicy &policy() const { return policy_; }

  private:
    Group cut(FlushReason reason, std::chrono::time_point<Clock> now);

    DesignId design_;
    BatchPolicy policy_;
    std::vector<PendingRequest> pending_;
    std::size_t pendingLanes_ = 0;
    std::chrono::time_point<Clock> deadline_{};
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_BATCHER_H
