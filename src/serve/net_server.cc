#include "serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "analysis/verifier.h"
#include "common/fault.h"
#include "common/logging.h"
#include "core/compiler.h"

namespace spatial::serve
{

namespace
{

/** Read chunk size of the event loop. */
constexpr std::size_t kReadChunk = 64 * 1024;

/** Per-connection outbound buffer cap; beyond it the peer is dropped
 * as an unrecoverable slow reader. */
constexpr std::size_t kMaxConnBuf = 256u << 20;

/** How long the drain waits for write buffers to flush. */
constexpr auto kFlushDeadline = std::chrono::seconds(10);

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

NetServer::NetServer(NetServerOptions options) : options_(options)
{
    options_.shards = std::max<std::size_t>(1, options_.shards);
    options_.maxFrameBytes = std::min(
        std::max(options_.maxFrameBytes,
                 static_cast<std::uint32_t>(wire::kHeaderBytes)),
        wire::kMaxFrameBytes);

    // Shards first: each is a full in-process Server with its own
    // DesignStore and worker pool.
    shards_.reserve(options_.shards);
    for (std::size_t s = 0; s < options_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->server = std::make_unique<Server>(options_.serve);
        shards_.push_back(std::move(shard));
    }

    // Listen socket: SO_REUSEADDR + port 0 (ephemeral by default) keep
    // test suites parallel-safe; the resolved port is exported via
    // port().
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        SPATIAL_FATAL("socket(): ", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
        1)
        SPATIAL_FATAL("bad listen address '", options_.host, "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        SPATIAL_FATAL("bind(", options_.host, ":", options_.port,
                      "): ", std::strerror(errno));
    if (::listen(listenFd_, 128) != 0)
        SPATIAL_FATAL("listen(): ", std::strerror(errno));
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        SPATIAL_FATAL("getsockname(): ", std::strerror(errno));
    port_ = ntohs(addr.sin_port);
    setNonBlocking(listenFd_);

    if (::pipe(wakePipe_) != 0)
        SPATIAL_FATAL("pipe(): ", std::strerror(errno));
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    for (std::size_t s = 0; s < shards_.size(); ++s)
        shards_[s]->replier =
            std::thread([this, s] { replyLoop(s); });
    registrar_ = std::thread([this] { registrarLoop(); });
    loop_ = std::thread([this] { eventLoop(); });
}

NetServer::~NetServer()
{
    shutdown();
}

void
NetServer::wake()
{
    if (wakeArmed_.exchange(true))
        return; // a byte is already on its way to the loop
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void
NetServer::requestShutdown()
{
    shutdownRequested_.store(true, std::memory_order_release);
    wake(); // write() is async-signal-safe; the loop does the rest
}

void
NetServer::waitUntilStopped()
{
    {
        MutexLock lock(shutdownMutex_);
        while (!rejecting_.load() && !shutdownDone_)
            shutdownCv_.wait(shutdownMutex_);
    }
    shutdown();
}

void
NetServer::shutdown()
{
    {
        MutexLock lock(shutdownMutex_);
        if (shutdownDone_)
            return;
        if (shutdownRunning_) {
            while (!shutdownDone_)
                shutdownCv_.wait(shutdownMutex_);
            return;
        }
        shutdownRunning_ = true;
    }

    // 1. Stop admitting: the event loop (the only thread that
    //    dispatches) flips rejecting_ when it sees the request, so
    //    once we observe it no further work can enter a shard.
    requestShutdown();
    {
        MutexLock lock(shutdownMutex_);
        while (!rejecting_.load())
            shutdownCv_.wait(shutdownMutex_);
    }

    // 2. Registrar: finish queued compiles, then stop.
    {
        MutexLock lock(registrarMutex_);
        registrarStop_ = true;
    }
    registrarCv_.notify_all();
    registrar_.join();

    // 3. Shards: flush open batch groups, wait for every admitted
    //    request to be answered, then stop the reply threads.  With a
    //    drain deadline configured the wait is bounded: once it
    //    expires, the still-outstanding requests are answered
    //    ShuttingDown, so a wedged or fault-stalled worker cannot pin
    //    the shutdown forever.
    const bool bounded = options_.drainTimeout.count() > 0;
    const auto deadline =
        std::chrono::steady_clock::now() + options_.drainTimeout;
    for (auto &shard : shards_) {
        if (bounded) {
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            if (!shard->server->drainFor(
                    std::max(std::chrono::milliseconds(0), left)))
                SPATIAL_WARN("drain deadline expired with shard work ",
                             "still queued; abandoning it");
        } else {
            shard->server->drain();
        }
        MutexLock lock(shard->mutex);
        bool abandoned = false;
        while (shard->inFlight.load() != 0) {
            if (!bounded || abandoned) {
                shard->idleCv.wait(shard->mutex);
                continue;
            }
            if (shard->idleCv.wait_until(shard->mutex, deadline) ==
                    std::cv_status::timeout &&
                shard->inFlight.load() != 0) {
                SPATIAL_WARN("drain deadline expired; answering ",
                             shard->outstanding.size(),
                             " in-flight request(s) ShuttingDown");
                for (const auto &[seq, to] : shard->outstanding)
                    shard->ready.push_back(
                        ReadyReply{to, wire::Status::ShuttingDown, {}});
                shard->outstanding.clear();
                shard->replierWaiting = false;
                shard->cv.notify_one();
                abandoned = true;
            }
        }
        shard->stop = true;
        shard->cv.notify_all();
    }
    for (auto &shard : shards_)
        shard->replier.join();

    // 4. Event loop: flush outbound buffers, close connections, exit.
    loopExit_.store(true, std::memory_order_release);
    wake();
    loop_.join();

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::close(wakePipe_[0]);
    ::close(wakePipe_[1]);

    {
        MutexLock lock(shutdownMutex_);
        shutdownDone_ = true;
    }
    shutdownCv_.notify_all();
}

NetServerStats
NetServer::stats() const
{
    NetServerStats stats;
    stats.accepted = accepted_.load();
    stats.badFrames = badFrames_.load();
    {
        MutexLock lock(connMutex_);
        stats.active = conns_.size();
    }
    {
        MutexLock lock(designMutex_);
        stats.registered = designs_.size();
    }
    stats.shards.reserve(shards_.size());
    for (const auto &shard : shards_) {
        ShardStats s;
        s.submitted = shard->submitted.load();
        s.answered = shard->answered.load();
        s.shed = shard->shed.load();
        s.inFlight = shard->inFlight.load();
        s.server = shard->server->stats();
        stats.shards.push_back(std::move(s));
    }
    return stats;
}

IntMatrix
NetServer::statsMatrix() const
{
    IntMatrix m(shards_.size(), wire::kShardStatsCols);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const ServerStats server = shards_[s]->server->stats();
        m.at(s, wire::kStatRequests) =
            static_cast<std::int64_t>(server.requests);
        m.at(s, wire::kStatLanes) =
            static_cast<std::int64_t>(server.lanes);
        m.at(s, wire::kStatPaddedLanes) =
            static_cast<std::int64_t>(server.paddedLanes);
        m.at(s, wire::kStatGroups) =
            static_cast<std::int64_t>(server.groups);
        m.at(s, wire::kStatSequences) =
            static_cast<std::int64_t>(server.sequences);
        m.at(s, wire::kStatSubmitted) =
            static_cast<std::int64_t>(shards_[s]->submitted.load());
        m.at(s, wire::kStatShed) =
            static_cast<std::int64_t>(shards_[s]->shed.load());
        m.at(s, wire::kStatInFlight) =
            static_cast<std::int64_t>(shards_[s]->inFlight.load());
        m.at(s, wire::kStatStoreHits) =
            static_cast<std::int64_t>(server.store.cache.hits);
        m.at(s, wire::kStatStoreMisses) =
            static_cast<std::int64_t>(server.store.cache.misses);
        m.at(s, wire::kStatStorePromotions) =
            static_cast<std::int64_t>(server.store.promotions);
        m.at(s, wire::kStatStoreDemotions) =
            static_cast<std::int64_t>(server.store.demotions);
        m.at(s, wire::kStatWatchdogShed) =
            static_cast<std::int64_t>(server.watchdogShed);
        m.at(s, wire::kStatFaultsInjected) =
            static_cast<std::int64_t>(server.faultsInjected);
    }
    return m;
}

void
NetServer::appendReplyLocked(Connection &c, const wire::ResponseFrame &f)
{
    if (c.closing)
        return; // already being torn down; drop the response
    if (c.out.size() - c.outSent > kMaxConnBuf) {
        // Unrecoverable slow reader: free its backlog right away and
        // let the event loop's close sweep drop the socket on its next
        // pass — waiting for a flush the peer may never perform would
        // pin the whole buffer indefinitely.
        c.closing = true;
        c.out.clear();
        c.outSent = 0;
        return;
    }
    wire::appendResponseFrame(c.out, f);
}

void
NetServer::replyFrame(std::uint64_t conn, const wire::ResponseFrame &f)
{
    {
        MutexLock lock(connMutex_);
        const auto it = conns_.find(conn);
        if (it == conns_.end())
            return; // peer went away; drop the response
        appendReplyLocked(it->second, f);
    }
    wake();
}

void
NetServer::sendReplies(std::vector<ReadyReply> &batch)
{
    wire::ResponseFrame f;
    {
        MutexLock lock(connMutex_);
        for (ReadyReply &reply : batch) {
            const auto it = conns_.find(reply.to.conn);
            if (it == conns_.end())
                continue; // peer went away; drop the response
            Connection &c = it->second;
            f.status = reply.status;
            f.kind = reply.to.kind;
            f.requestId = reply.to.requestId;
            f.designId = reply.to.designId;
            f.output = std::move(reply.output);
            appendReplyLocked(c, f);
            if (c.pendingReplies > 0)
                --c.pendingReplies;
        }
    }
    wake(); // new bytes to write; a half-closed peer may be closable
}

void
NetServer::asyncBegin(std::uint64_t conn)
{
    MutexLock lock(connMutex_);
    const auto it = conns_.find(conn);
    if (it != conns_.end())
        ++it->second.pendingReplies;
}

void
NetServer::asyncDone(std::uint64_t conn)
{
    {
        MutexLock lock(connMutex_);
        const auto it = conns_.find(conn);
        if (it == conns_.end())
            return;
        if (it->second.pendingReplies > 0)
            --it->second.pendingReplies;
    }
    wake(); // a half-closed peer may now be closable
}

void
NetServer::replyStatus(std::uint64_t conn, wire::Status status,
                       wire::MessageKind kind,
                       std::uint64_t request_id,
                       std::uint32_t design_id)
{
    wire::ResponseFrame f;
    f.status = status;
    f.kind = kind;
    f.requestId = request_id;
    f.designId = design_id;
    replyFrame(conn, f);
}

void
NetServer::dispatch(std::uint64_t conn, wire::RequestFrame frame)
{
    using wire::MessageKind;
    using wire::Status;

    // Injection site: the connection dies mid-request (peer crash /
    // network partition model).  The frame is swallowed and the
    // socket torn down exactly as the slow-reader path does it; the
    // client sees a dropped connection and its outstanding requests
    // resolve Disconnected (or replay, with reconnect enabled).
    if (fault::injectFault(fault::Site::NetConnDrop)) {
        MutexLock lock(connMutex_);
        const auto it = conns_.find(conn);
        if (it != conns_.end()) {
            it->second.closing = true;
            it->second.out.clear();
            it->second.outSent = 0;
        }
        wake();
        return;
    }

    // Liveness and observability stay answerable during a drain.
    if (frame.kind == MessageKind::Ping) {
        wire::ResponseFrame f;
        f.status = Status::Ok;
        f.kind = frame.kind;
        f.requestId = frame.requestId;
        f.designId = frame.designId;
        replyFrame(conn, f);
        return;
    }
    if (frame.kind == MessageKind::Stats) {
        wire::ResponseFrame f;
        f.status = Status::Ok;
        f.kind = frame.kind;
        f.requestId = frame.requestId;
        f.designId = frame.designId;
        f.output = statsMatrix();
        replyFrame(conn, f);
        return;
    }

    if (rejecting_.load(std::memory_order_acquire)) {
        replyStatus(conn, Status::ShuttingDown, frame.kind,
                    frame.requestId, frame.designId);
        return;
    }

    if (frame.kind == MessageKind::RegisterDesign) {
        // Admission budget: an over-dim design is rejected before its
        // (potentially enormous) compile can be queued; the client
        // gets a clean BadRequest instead of a dropped connection.
        if (options_.maxRegisterDim != 0 &&
            (frame.weights.rows() > options_.maxRegisterDim ||
             frame.weights.cols() > options_.maxRegisterDim)) {
            replyStatus(conn, Status::BadRequest, frame.kind,
                        frame.requestId, frame.designId);
            return;
        }
        RegisterJob job;
        job.conn = conn;
        job.requestId = frame.requestId;
        job.weights = std::move(frame.weights);
        job.compile = frame.compile;
        {
            MutexLock lock(designMutex_);
            const auto key = experiments::makeDesignKey(job.weights,
                                                        job.compile);
            const auto it = designIds_.find(key);
            if (it != designIds_.end() && designs_[it->second].ready) {
                // Identical design already admitted: answer directly.
                wire::ResponseFrame f;
                f.status = Status::Ok;
                f.kind = frame.kind;
                f.requestId = frame.requestId;
                f.designId = it->second;
                f.output = IntMatrix(1, 1);
                f.output.at(0, 0) = static_cast<std::int64_t>(
                    designs_[it->second].shard);
                replyFrame(conn, f);
                return;
            }
            if (it != designIds_.end()) {
                job.designId = it->second;
            } else {
                job.designId =
                    static_cast<std::uint32_t>(designs_.size());
                DesignRoute route;
                route.shard = designs_.size() % shards_.size();
                route.rows = job.weights.rows();
                route.cols = job.weights.cols();
                designs_.push_back(route);
                designIds_.emplace(key, job.designId);
            }
        }
        asyncBegin(conn);
        {
            MutexLock lock(registrarMutex_);
            registerQueue_.push_back(std::move(job));
        }
        registrarCv_.notify_one();
        return;
    }

    // Compute kinds: validate against the routing table, admit or
    // shed, and submit into the owning shard's Server.
    DesignRoute route;
    bool known = false;
    {
        MutexLock lock(designMutex_);
        // Rejected registrations keep their table slot (ids are dense)
        // but never become routable.
        if (frame.designId < designs_.size() &&
            !designs_[frame.designId].failed) {
            route = designs_[frame.designId];
            known = true;
        }
    }
    if (!known) {
        replyStatus(conn, Status::UnknownDesign, frame.kind,
                    frame.requestId, frame.designId);
        return;
    }
    if (!route.ready) {
        // Registration still compiling; the client is expected to wait
        // for its RegisterDesign response, so this is load it can
        // safely retry.
        replyStatus(conn, Status::Busy, frame.kind, frame.requestId,
                    frame.designId);
        return;
    }
    const wire::Status valid =
        wire::validateRequest(frame.request, route.rows, route.cols);
    if (valid != Status::Ok) {
        replyStatus(conn, valid, frame.kind, frame.requestId,
                    frame.designId);
        return;
    }

    Shard &shard = *shards_[route.shard];
    if (options_.maxQueue != 0 &&
        shard.inFlight.load(std::memory_order_relaxed) >=
            options_.maxQueue) {
        shard.shed.fetch_add(1, std::memory_order_relaxed);
        replyStatus(conn, Status::Busy, frame.kind, frame.requestId,
                    frame.designId);
        return;
    }
    shard.inFlight.fetch_add(1, std::memory_order_relaxed);
    shard.submitted.fetch_add(1, std::memory_order_relaxed);
    asyncBegin(conn);

    std::uint64_t seq;
    {
        MutexLock lock(shard.mutex);
        seq = shard.nextSeq++;
        shard.outstanding.emplace(
            seq, ReplyTo{conn, frame.requestId, frame.designId,
                         frame.kind});
    }
    shard.server->submit(route.localId, std::move(frame.request),
                         [&shard, seq](Response response) {
                             shard.complete(seq, std::move(response));
                         });
}

void
NetServer::Shard::complete(std::uint64_t seq, Response response)
{
    bool notify;
    {
        MutexLock lock(mutex);
        auto entry = outstanding.extract(seq);
        if (entry.empty())
            return; // answered ShuttingDown at the drain deadline
        // Watchdog sheds travel in-process as Response::shed; on the
        // wire they are ordinary Busy answers the client may retry.
        ready.push_back(ReadyReply{
            entry.mapped(),
            response.shed ? wire::Status::Busy : wire::Status::Ok,
            std::move(response.output)});
        notify = replierWaiting;
        replierWaiting = false;
    }
    if (notify)
        cv.notify_one();
}

void
NetServer::replyLoop(std::size_t shard_index)
{
    Shard &shard = *shards_[shard_index];
    std::vector<ReadyReply> batch;
    for (;;) {
        {
            MutexLock lock(shard.mutex);
            while (shard.ready.empty() && !shard.stop) {
                shard.replierWaiting = true;
                shard.cv.wait(shard.mutex);
            }
            if (shard.ready.empty())
                return; // stopped with nothing left to send
            // Take every ready reply at once; the swap hands the
            // drained vector's capacity back to the queue.
            batch.swap(shard.ready);
        }
        sendReplies(batch);
        const std::size_t n = batch.size();
        batch.clear();
        shard.answered.fetch_add(n, std::memory_order_relaxed);
        if (shard.inFlight.fetch_sub(n, std::memory_order_acq_rel) == n) {
            // Lock-then-notify so a shutdown() that just checked
            // inFlight cannot miss the wakeup.
            { MutexLock lock(shard.mutex); }
            shard.idleCv.notify_all();
        }
    }
}

void
NetServer::registrarLoop()
{
    for (;;) {
        RegisterJob job;
        {
            MutexLock lock(registrarMutex_);
            while (registerQueue_.empty() && !registrarStop_)
                registrarCv_.wait(registrarMutex_);
            if (registerQueue_.empty()) {
                if (registrarStop_)
                    return;
                continue;
            }
            job = std::move(registerQueue_.front());
            registerQueue_.pop_front();
        }
        std::size_t shard_index;
        {
            MutexLock lock(designMutex_);
            shard_index = designs_[job.designId].shard;
        }
        // The compiler enforces its preconditions with SPATIAL_FATAL —
        // acceptable for a local misconfiguration, not for bytes off
        // the wire.  Re-check them non-fatally through the static
        // verifier and answer BadRequest with the named diagnostic,
        // so no remote registration can terminate the server.
        const analysis::Report rejected =
            analysis::verifyCompileRequest(job.compile, job.weights);
        if (!rejected.ok()) {
            {
                MutexLock lock(designMutex_);
                designs_[job.designId].failed = true;
            }
            SPATIAL_WARN("rejecting design registration ", job.designId,
                         ": ", rejected.diagnostics.front().str());
            replyStatus(job.conn, wire::Status::BadRequest,
                        wire::MessageKind::RegisterDesign,
                        job.requestId, job.designId);
            asyncDone(job.conn);
            continue;
        }
        // The compile (potentially seconds at large dims) runs here,
        // never on the event loop.
        const DesignId local =
            shards_[shard_index]->server->registerDesign(job.weights,
                                                         job.compile);
        {
            MutexLock lock(designMutex_);
            designs_[job.designId].localId = local;
            designs_[job.designId].ready = true;
        }
        wire::ResponseFrame f;
        f.status = wire::Status::Ok;
        f.kind = wire::MessageKind::RegisterDesign;
        f.requestId = job.requestId;
        f.designId = job.designId;
        f.output = IntMatrix(1, 1);
        f.output.at(0, 0) = static_cast<std::int64_t>(shard_index);
        replyFrame(job.conn, f);
        asyncDone(job.conn);
    }
}

void
NetServer::processInbound(std::uint64_t id, Connection &conn)
{
    std::size_t consumed = 0;
    for (;;) {
        std::size_t payload_off = 0, payload_size = 0, frame_size = 0;
        const wire::FrameResult r = wire::peekFrame(
            conn.in.data() + consumed, conn.in.size() - consumed,
            &payload_off, &payload_size, &frame_size,
            options_.maxFrameBytes);
        if (r == wire::FrameResult::NeedMore)
            break;
        if (r == wire::FrameResult::Malformed) {
            // Framing is lost: answer once, then drop the peer.  The
            // flag is shared with the reply paths, so flip it under
            // connMutex_ (and after the reply — replyFrame drops
            // frames for closing connections).
            badFrames_.fetch_add(1, std::memory_order_relaxed);
            replyStatus(id, wire::Status::BadFrame,
                        wire::MessageKind::Ping, 0, 0);
            {
                MutexLock lock(connMutex_);
                conn.closing = true;
            }
            conn.in.clear();
            return;
        }
        wire::RequestFrame frame;
        const wire::Status decoded = wire::decodeRequest(
            conn.in.data() + consumed + payload_off, payload_size,
            &frame);
        if (decoded == wire::Status::Ok) {
            dispatch(id, std::move(frame));
        } else {
            replyStatus(id, decoded, frame.kind, frame.requestId,
                        frame.designId);
            if (decoded == wire::Status::BadFrame ||
                decoded == wire::Status::BadVersion) {
                // The payload contradicted its own layout; stop
                // trusting the stream.
                badFrames_.fetch_add(1, std::memory_order_relaxed);
                {
                    MutexLock lock(connMutex_);
                    conn.closing = true;
                }
                conn.in.clear();
                return;
            }
        }
        consumed += frame_size;
    }
    if (consumed > 0)
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() +
                          static_cast<std::ptrdiff_t>(consumed));
}

void
NetServer::eventLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids; // conn id per pollfd (0 = control)
    bool listen_open = true;
    bool flushing = false;
    std::chrono::steady_clock::time_point flush_start{};

    for (;;) {
        fds.clear();
        ids.clear();
        if (listen_open) {
            fds.push_back({listenFd_, POLLIN, 0});
            ids.push_back(0);
        }
        fds.push_back({wakePipe_[0], POLLIN, 0});
        ids.push_back(0);
        bool all_flushed = true;
        {
            MutexLock lock(connMutex_);
            // Close sweep: a connection leaves once its outbound bytes
            // are flushed and either the protocol broke (closing) or
            // the peer half-closed and every owed reply was delivered
            // (peerEof, the NetClient::close() drain contract).  The
            // reply paths wake() the loop, so this runs promptly after
            // the last owed reply or pendingReplies decrement.
            std::vector<std::uint64_t> closable;
            for (auto &[id, conn] : conns_) {
                const bool flushed = conn.outSent == conn.out.size();
                if (flushed &&
                    (conn.closing ||
                     (conn.peerEof && conn.pendingReplies == 0))) {
                    closable.push_back(id);
                    continue;
                }
                // No POLLIN once the stream is done (EOF would fire
                // forever) or distrusted; POLLERR/POLLHUP still
                // surface a fully-gone peer even with no event bits.
                short events = 0;
                if (!conn.closing && !conn.peerEof)
                    events |= POLLIN;
                if (!flushed) {
                    events |= POLLOUT;
                    all_flushed = false;
                }
                fds.push_back({conn.fd, events, 0});
                ids.push_back(id);
            }
            for (const std::uint64_t id : closable) {
                const auto it = conns_.find(id);
                ::close(it->second.fd);
                conns_.erase(it);
            }
        }

        if (loopExit_.load(std::memory_order_acquire)) {
            if (!flushing) {
                flushing = true;
                flush_start = std::chrono::steady_clock::now();
            }
            if (all_flushed ||
                std::chrono::steady_clock::now() - flush_start >
                    kFlushDeadline) {
                MutexLock lock(connMutex_);
                for (auto &[id, conn] : conns_)
                    ::close(conn.fd);
                conns_.clear();
                return;
            }
        }

        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            SPATIAL_FATAL("poll(): ", std::strerror(errno));
        }

        std::vector<std::uint64_t> dead;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            const pollfd &p = fds[i];
            if (p.revents == 0)
                continue;
            if (p.fd == wakePipe_[0]) {
                char buf[64];
                while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
                }
                // Disarm only after the drain: a wake() in between
                // skipped its write, but what it announced is already
                // visible to the next pass's poll-set rebuild.
                // Disarming before the drain could swallow the byte
                // of a wake() that armed in between, and later wakes
                // would then never write.
                wakeArmed_.store(false);
                if (shutdownRequested_.load(
                        std::memory_order_acquire) &&
                    !rejecting_.load()) {
                    // Stop accepting; existing traffic now gets
                    // ShuttingDown from dispatch().
                    rejecting_.store(true, std::memory_order_release);
                    if (listen_open) {
                        ::close(listenFd_);
                        listenFd_ = -1;
                        listen_open = false;
                    }
                    // Lock-then-notify so a waiter that just checked
                    // the predicate cannot miss the wakeup.
                    { MutexLock lk(shutdownMutex_); }
                    shutdownCv_.notify_all();
                }
                continue;
            }
            if (listen_open && p.fd == listenFd_) {
                // Injection site: a stalled accept path (overloaded
                // kernel / SYN backlog model).  The sleep happens on
                // the event loop on purpose — that is exactly what a
                // slow accept costs a single-threaded front end.
                if (const std::uint64_t delay_ms = fault::injectFaultParam(
                        fault::Site::NetAcceptDelay))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(delay_ms));
                for (;;) {
                    const int fd = ::accept(listenFd_, nullptr, nullptr);
                    if (fd < 0)
                        break;
                    setNonBlocking(fd);
                    setNoDelay(fd);
                    accepted_.fetch_add(1, std::memory_order_relaxed);
                    MutexLock lock(connMutex_);
                    Connection conn;
                    conn.fd = fd;
                    conns_.emplace(nextConn_++, std::move(conn));
                }
                continue;
            }

            const std::uint64_t id = ids[i];
            // Only this thread inserts or erases connections, so the
            // pointer stays valid after the lookup; `in` and `fd` are
            // touched by this thread alone, while `out`/`outSent`/
            // `closing` are shared with the reply paths and accessed
            // under connMutex_.
            Connection *conn = nullptr;
            {
                MutexLock lock(connMutex_);
                const auto it = conns_.find(id);
                if (it == conns_.end())
                    continue;
                conn = &it->second;
            }
            bool drop = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) &&
                        !(p.revents & POLLIN);
            bool eof = false;
            if (p.revents & POLLIN) {
                std::uint8_t chunk[kReadChunk];
                for (;;) {
                    const ssize_t n =
                        ::read(conn->fd, chunk, sizeof(chunk));
                    if (n > 0) {
                        conn->in.insert(conn->in.end(), chunk,
                                        chunk + n);
                        if (n < static_cast<ssize_t>(sizeof(chunk)))
                            break;
                        continue;
                    }
                    if (n == 0) {
                        eof = true; // peer finished sending
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    drop = true;
                    break;
                }
                // Parse whatever arrived before a pending EOF too: a
                // half-closing peer is owed responses for everything
                // it sent (NetClient::close() drains them), so those
                // requests dispatch normally and the close sweep holds
                // the connection until their replies flush.
                if (!flushing)
                    processInbound(id, *conn);
                if (eof) {
                    MutexLock lock(connMutex_);
                    conn->peerEof = true;
                }
            }
            {
                MutexLock lock(connMutex_);
                if ((p.revents & POLLOUT) &&
                    conn->outSent < conn->out.size()) {
                    std::size_t chunk = conn->out.size() - conn->outSent;
                    // Injection site: the kernel accepts only a few
                    // bytes per send (tiny socket buffer model), so
                    // responses trickle out across many poll rounds
                    // and clients exercise their partial-frame
                    // reassembly.
                    if (const std::uint64_t cap = fault::injectFaultParam(
                            fault::Site::NetWritePartial))
                        chunk = std::min<std::size_t>(chunk, cap);
                    const ssize_t n = ::send(
                        conn->fd, conn->out.data() + conn->outSent,
                        chunk, MSG_NOSIGNAL);
                    if (n > 0) {
                        conn->outSent += static_cast<std::size_t>(n);
                        if (conn->outSent == conn->out.size()) {
                            conn->out.clear();
                            conn->outSent = 0;
                        }
                    } else if (n < 0 && errno != EAGAIN &&
                               errno != EWOULDBLOCK) {
                        drop = true;
                    }
                }
            }
            // Flushed closing/peerEof connections are reaped by the
            // close sweep at the top of the next iteration.
            if (drop)
                dead.push_back(id);
        }
        if (!dead.empty()) {
            MutexLock lock(connMutex_);
            for (const std::uint64_t id : dead) {
                const auto it = conns_.find(id);
                if (it == conns_.end())
                    continue;
                ::close(it->second.fd);
                conns_.erase(it);
            }
        }
    }
}

} // namespace spatial::serve
