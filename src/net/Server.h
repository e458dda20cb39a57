//===- net/Server.h - multi-reactor DVS scheduling server -------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cdvs-wire connection layer: N reactor threads
/// (ConnectionOptions::Reactors) each own a full event-loop stack —
/// their own Poller, timer wheel, wakeup fd, and listening socket bound
/// with SO_REUSEPORT — so accept/read/write and all per-connection state
/// stay reactor-local and lock-free on the hot path. The kernel's
/// reuseport hash spreads incoming connections across the reactors; on
/// stacks without SO_REUSEPORT (or under ForceAcceptHandoff) reactor 0
/// owns the one listener and round-robins accepted fds to its peers
/// through per-reactor handoff queues and a wakeup-fd nudge.
///
/// What answers a request is a per-reactor RequestHandler, called only
/// after the shared checks below have passed. Built from ServerOptions,
/// the server embeds a SchedulerService and installs the local handler:
/// jobs run on the service's TaskPool and completions come back through
/// a *per-reactor* lock-free MPSC queue (worker threads push, the owning
/// reactor drains on wakeup), so response routing never takes a lock
/// shared between reactors. cluster::Router installs its upstream pool
/// instead. Responses stream out of order per connection, matched by
/// the correlation id the client chose.
///
/// Robustness edges, all enforced per connection on its owning reactor:
///
///  * framing errors (bad magic/version/type/reserved, oversized
///    payloads, a peer that hangs up mid-frame) answer with one
///    structured Reject frame, then close — the stream cannot be
///    resynchronized;
///  * write backpressure: when a connection's queued response bytes
///    exceed WriteQueueHighWater the reactor stops reading it (the
///    kernel socket buffer then pushes back on the client) and resumes
///    below WriteQueueLowWater;
///  * idle, request, and slow-frame timeouts ride each reactor's hashed
///    timer wheel: a silent connection is closed after IdleTimeoutMs, a
///    request older than RequestTimeoutMs answers Reject{"timeout"} (the
///    late result is dropped when it eventually lands), and a connection
///    that dribbles bytes without completing a frame within
///    SlowFrameTimeoutMs (slowloris) draws Reject{"slow_frame"} and
///    closes;
///  * overload shedding: when a reactor's count of admitted-but-
///    unanswered jobs crosses ShedHighWater, lax requests (deadline
///    tightness at or above ShedLaxTightness, peeked from the payload
///    without a full JSON parse) answer Reject{"shed"}; past
///    ShedHardWater every request sheds, regardless of class — so a
///    stampede costs the reactor one cheap scan per frame instead of a
///    parse, an admission, and a solve;
///  * MaxConnections (server-wide): surplus accepts get
///    Reject{"overloaded"} and an immediate close; admission-queue
///    backpressure inside the service surfaces as an ordinary rejected
///    Response, exactly like dvsd;
///  * graceful drain (beginDrain(), wired to SIGTERM in dvs-server and
///    dvs-router):
///    every reactor closes its listener, stops reading, lets every
///    already-admitted job complete and flush, then closes its
///    connections; waitDrained() observers wake once the last reactor
///    quiesces.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_NET_SERVER_H
#define CDVS_NET_SERVER_H

#include "net/EventLoop.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Service.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace cdvs {

class ArgParser;

namespace net {

/// Connection-layer knobs of every net::Server, whatever answers its
/// requests: the local scheduling service (ServerOptions) or the
/// cluster router's upstream pool (cluster::RouterOptions).
struct ConnectionOptions {
  std::string BindAddress = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  uint16_t Port = 0;
  int Backlog = 128;
  /// Reactor (event-loop) threads; 0 means one per hardware core.
  int Reactors = 1;
  /// Use the single-acceptor round-robin handoff path even where
  /// SO_REUSEPORT exists (tests; kernels without reusable ports fall
  /// back to this automatically).
  bool ForceAcceptHandoff = false;
  /// Accepted connections beyond this (server-wide) answer
  /// Reject{"overloaded"}.
  size_t MaxConnections = 256;
  /// Per-frame payload cap; longer headers answer Reject{"too_large"}.
  size_t MaxFrameBytes = kDefaultMaxPayloadBytes;
  /// Stop reading a connection once its queued response bytes pass
  /// this...
  size_t WriteQueueHighWater = 4u << 20;
  /// ...and resume once they fall below this.
  size_t WriteQueueLowWater = 1u << 20;
  /// Close connections silent for this long; 0 disables.
  uint64_t IdleTimeoutMs = 60'000;
  /// Reject{"timeout"} requests in flight longer than this; 0 disables.
  uint64_t RequestTimeoutMs = 0;
  /// Reject{"slow_frame"} connections that sit on a partial frame this
  /// long without completing it (slowloris guard); 0 disables. The
  /// clock restarts whenever a complete frame is extracted, so slow but
  /// steady pipelines never trip it.
  uint64_t SlowFrameTimeoutMs = 10'000;
  /// Overload shedding: once a reactor's admitted-but-unanswered job
  /// count reaches this, lax-class requests answer Reject{"shed"}
  /// before the payload is parsed. 0 disables shedding.
  size_t ShedHighWater = 0;
  /// Past this pending count every request sheds regardless of class;
  /// 0 defaults to 2 * ShedHighWater.
  size_t ShedHardWater = 0;
  /// Deadline-class boundary: requests whose peeked tightness is at or
  /// above this are "lax" (sheddable at ShedHighWater); tighter
  /// deadlines stay admitted until ShedHardWater.
  double ShedLaxTightness = 0.5;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it so write backpressure triggers with small payloads.
  int SocketSendBufferBytes = 0;
  /// Use the portable poll(2) backend even where epoll exists.
  bool ForcePoll = false;
};

/// Registers the connection-layer flags that every cdvs-wire front end
/// (dvs-server, dvs-router) shares on \p P. \returns the function that
/// copies the parsed values into a ConnectionOptions.
std::function<void(ConnectionOptions &)> addConnectionFlags(ArgParser &P);

/// A net::Server whose requests run on an embedded SchedulerService.
struct ServerOptions : ConnectionOptions {
  /// Configuration of the embedded SchedulerService.
  ServiceOptions Service;
};

/// Reactor-side counters, aggregated across reactors by Server::stats().
struct ServerStats {
  long ConnectionsAccepted = 0;
  long ConnectionsRejected = 0; ///< over MaxConnections
  long ConnectionsClosed = 0;
  long FramesIn = 0;
  long FramesOut = 0;
  long long BytesIn = 0;
  long long BytesOut = 0;
  long RejectsSent = 0;    ///< Reject frames this server originated
  long ProtocolErrors = 0; ///< framing errors (reject-then-close)
  long IdleCloses = 0;
  long RequestTimeouts = 0;
  long SlowFrameCloses = 0;    ///< slowloris guard firings
  long LoadSheds = 0;          ///< Reject{"shed"} answers (any class)
  long PeerFetches = 0;        ///< PeerFetch cache probes served
  long PeerFetchHits = 0;      ///< ...that found a cached schedule
  long HandoffAccepts = 0;     ///< connections adopted via fd handoff
  long ReadPauses = 0;         ///< backpressure engagements
  long OrphanCompletions = 0;  ///< job finished after its conn closed
  size_t OpenConnections = 0;  ///< currently open
};

/// \p S as the comma-separated `"key":value` pairs that open the final
/// `{"type":"stats",...}` line of dvs-server and dvs-router.
std::string renderServerStats(const ServerStats &S);

/// An admitted request as its handler sees it: the connection and
/// correlation id its one answer goes back to.
struct RequestRef {
  uint64_t ConnId = 0;
  uint64_t Correlation = 0;
};

class Server;

/// One reactor, as the RequestHandler it owns sees it: the poller and
/// timer wheel the handler may register its own descriptors and timers
/// on, and the way back to the connections its requests came from.
/// Every member is reactor-thread only, except wake().
class ReactorContext {
public:
  int index() const { return Index; }
  Poller &io() { return *Io; }
  TimerWheel &wheel() { return Wheel; }
  /// Any thread: makes the reactor run its handler's poll() soon.
  void wake() { Wakeup.notify(); }
  /// Stops polling \p Fd and closes it before the next poll, so no
  /// later event of the current wave can name a reused descriptor.
  void retire(int Fd);
  /// True while \p Ref still waits for its answer: its connection is
  /// open and it has not timed out.
  bool waiting(const RequestRef &Ref) const;
  /// Retires \p Ref with one frame of \p Type; an orphan (nobody waits
  /// any more) is only counted. Every admitted request must be retired
  /// exactly once, by answer(), reject() or drop().
  void answer(const RequestRef &Ref, FrameType Type,
              const std::string &Payload);
  /// Retires \p Ref with Reject{\p Code} (counted in RejectsSent).
  void reject(const RequestRef &Ref, const std::string &Code,
              const std::string &Reason);
  /// Retires \p Ref unanswered; for requests whose client is gone.
  void drop(const RequestRef &Ref);

protected:
  friend class Server;
  explicit ReactorContext(Server &S, int I) : Owner(&S), Index(I) {}
  void closeRetired();

  Server *Owner;
  int Index;
  std::unique_ptr<Poller> Io;
  TimerWheel Wheel;
  WakeupFd Wakeup;
  std::vector<int> Retired; ///< closed by closeRetired()
};

/// What answers a server's requests, one instance per reactor, every
/// call on that reactor's thread. The server runs the shared checks
/// first (framing, duplicate correlation ids, drain, shedding, the JSON
/// parse, frame kind against payload kind), so a handler only ever sees
/// well-formed, admitted requests.
class RequestHandler {
public:
  virtual ~RequestHandler() = default;
  /// Before the reactor's first poll: register descriptors and timers.
  virtual void start(uint64_t /*NowNs*/) {}
  /// After the reactor's last poll: release what start() registered.
  virtual void stop() {}
  /// Every loop turn, before polling (and after each wake()).
  virtual void poll(uint64_t /*NowNs*/) {}
  /// A poller event on a descriptor the handler registered.
  virtual void event(const PollEvent & /*E*/, uint64_t /*NowNs*/) {}
  /// One admitted Request or GraphRequest frame, its payload parsed
  /// into \p Req. The answer goes back through ReactorContext::answer
  /// or reject, now or later.
  virtual void request(const RequestRef &Ref, Frame &F, JobRequest &Req,
                       uint64_t NowNs) = 0;
  /// The result cache PeerFetch probes read, or nullptr when this
  /// handler keeps none; PeerFetch is then refused like any frame type
  /// a client must not send.
  virtual const SchedulerService *cache() const { return nullptr; }
  /// The payload of a StatsData answer to a StatsFetch scrape (see
  /// renderStatsData).
  virtual std::string statsData() = 0;
};

/// Builds the handler one reactor owns; called once per reactor from
/// Server::start(), before any reactor thread runs.
using HandlerFactory =
    std::function<std::unique_ptr<RequestHandler>(ReactorContext &)>;

/// A StatsData payload: process role, pid, clock stamp, trace drops,
/// \p ExtraFields (`"key":value,` pairs, each ending in a comma), the
/// metrics exposition, and the trace ring rendered under \p Process.
std::string renderStatsData(const std::string &Role,
                            const std::string &Process,
                            const std::string &ExtraFields = "");

/// The cdvs-wire server; see the file comment.
class Server {
public:
  /// Serves requests on an embedded SchedulerService.
  explicit Server(ServerOptions Opts = ServerOptions());
  /// Serves requests on the handlers \p Factory builds; starts no
  /// SchedulerService.
  Server(ConnectionOptions Opts, HandlerFactory Factory);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the reactor threads. Errors (port in
  /// use, bad address) are returned, not retried.
  ErrorOr<bool> start();

  /// The bound port (after start(); useful with Port = 0). All reactors
  /// share it (SO_REUSEPORT) or funnel through it (handoff fallback).
  uint16_t port() const { return BoundPort; }
  /// "epoll" or "poll" (after start()).
  const char *backendName() const { return Backend; }
  /// Reactor threads actually running (after start()).
  int reactors() const { return NumReactors; }
  /// True when the reactors share the port via SO_REUSEPORT, false on
  /// the accept-handoff fallback (after start()).
  bool usingReusePort() const { return ReusePortActive; }

  /// The embedded scheduling service (tests pause/resume it; the tool
  /// reads its stats). Only a server built from ServerOptions has one.
  SchedulerService &service() {
    assert(Service && "server was built without a SchedulerService");
    return *Service;
  }

  /// Starts a graceful drain: stop accepting, stop reading, let every
  /// admitted job complete and flush, then close. Idempotent,
  /// thread-safe, safe from signal-handler-adjacent contexts (one
  /// atomic store + N write syscalls).
  void beginDrain();

  /// Waits until the drain finished (every reactor closed every
  /// connection). \returns false on timeout. TimeoutSeconds <= 0 polls
  /// once.
  bool waitDrained(double TimeoutSeconds);

  /// Hard stop: drains nothing, closes everything, joins the reactors,
  /// and shuts the service down. The destructor calls this.
  void stop();

  ServerStats stats() const;

private:
  friend class ReactorContext;

  struct Connection {
    int Fd = -1;
    uint64_t Id = 0;
    FrameParser Parser;
    std::deque<std::string> WriteQ;
    size_t WriteQBytes = 0;
    size_t WriteOff = 0; ///< bytes of WriteQ.front() already sent
    int InFlight = 0;    ///< jobs admitted, response not yet queued
    bool ReadPaused = false;
    /// Hard close: drop the connection once WriteQ drains (framing
    /// error, idle timeout).
    bool CloseAfterFlush = false;
    /// Soft close (peer half-closed): close once WriteQ drains AND
    /// every in-flight job has answered.
    bool SawEof = false;
    unsigned Subscribed = 0; ///< EvIn/EvOut bits currently registered
    uint64_t IdleTimer = 0;  ///< wheel id, 0 = none
    uint64_t SlowTimer = 0;  ///< partial-frame (slowloris) wheel id
    /// In-flight request bookkeeping, keyed by correlation id.
    std::map<uint64_t, uint64_t> StartNs;
    std::map<uint64_t, uint64_t> RequestTimers;
    std::set<uint64_t> TimedOut;
    /// Lifetime span ("conn" on the net category); ends at close.
    std::unique_ptr<obs::TraceSpan> Span;

    explicit Connection(size_t MaxPayload) : Parser(MaxPayload) {}
  };

  /// Everything one reactor thread owns. Only Handoff(+mutex), Wakeup,
  /// and the Counters mutex are ever touched by other threads.
  struct Reactor : ReactorContext {
    Reactor(Server &S, int I) : ReactorContext(S, I) {}

    int ListenFd = -1; ///< own REUSEPORT listener, or reactor 0's only
    std::thread Thread;
    std::unique_ptr<RequestHandler> Handler;

    // Reactor-thread-only connection state.
    std::map<int, std::unique_ptr<Connection>> ByFd;
    std::map<uint64_t, Connection *> ById;
    uint64_t NextConnId = 1; ///< seeded Index+1, stepped by NumReactors
    bool DrainStarted = false;
    bool DrainedLocal = false;
    /// Jobs admitted from this reactor, not yet retired — the shedding
    /// watermark input.
    long PendingJobs = 0;

    /// Accept-handoff fallback: reactor 0 pushes accepted fds here.
    std::mutex HandoffMu;
    std::vector<int> Handoff;

    mutable std::mutex StatsMu;
    ServerStats Counters; ///< guarded by StatsMu

    // Per-reactor instruments, registered once in Server::start() so
    // the frame hot path never touches the registry lock.
    obs::Counter *AcceptsCtr = nullptr;
    obs::Counter *FramesInCtr = nullptr;
    obs::Counter *FramesOutCtr = nullptr;
    obs::Counter *BytesInCtr = nullptr;
    obs::Counter *BytesOutCtr = nullptr;
    obs::Gauge *OpenGauge = nullptr;
    obs::Gauge *DrainGauge = nullptr;
    obs::Histogram *LatencyHist = nullptr;
  };

  void loop(Reactor &R);
  void teardown(Reactor &R);
  void acceptReady(Reactor &R, uint64_t NowNs);
  void adoptHandoff(Reactor &R, uint64_t NowNs);
  void adoptConnection(Reactor &R, int Fd, uint64_t NowNs);
  void rejectAccept(Reactor &R, int Fd);
  void readReady(Reactor &R, Connection &C, uint64_t NowNs);
  void writeReady(Reactor &R, Connection &C);
  /// \returns the number of complete frames extracted (slow-frame
  /// progress tracking).
  size_t processFrames(Reactor &R, Connection &C, uint64_t NowNs);
  /// Admits one job frame (Request or GraphRequest — the frame kind
  /// must match the payload: a Request carrying a "graph" object, or a
  /// GraphRequest without one, draws Reject{"bad_request"}) and hands
  /// it to the reactor's handler.
  void handleRequest(Reactor &R, Connection &C, Frame &F, uint64_t NowNs);
  /// Answers a backend-to-backend PeerFetch cache probe with PeerData
  /// (found + serialized schedule, or a miss) from \p Cache — a peek,
  /// so peer probes never skew hit/miss counters or LRU recency.
  void handlePeerFetch(Reactor &R, Connection &C, Frame &F,
                       const SchedulerService &Cache);
  /// Answers a StatsFetch live-scrape probe with the handler's
  /// StatsData bundle (dvs-stat --scrape merges these across
  /// endpoints).
  void handleStatsFetch(Reactor &R, Connection &C, Frame &F);
  /// Refuses a frame type no client may send: Reject{"bad_frame"},
  /// then close.
  void refuseFrame(Reactor &R, Connection &C, const Frame &F);
  /// \returns the shed class ("lax"/"hard") when the reactor's pending
  /// count says this request must be refused, nullptr to admit.
  const char *shedClass(const Reactor &R, const Frame &F) const;
  /// Ends \p Ref's bookkeeping. \returns its connection when the
  /// answer is still wanted, nullptr for an orphan.
  Connection *retireRequest(Reactor &R, const RequestRef &Ref);
  void enqueueFrame(Reactor &R, Connection &C, FrameType Type,
                    uint64_t Correlation, const std::string &Payload);
  void sendReject(Reactor &R, Connection &C, uint64_t Correlation,
                  const std::string &Code, const std::string &Reason);
  void updateSubscription(Reactor &R, Connection &C);
  void armIdleTimer(Reactor &R, Connection &C, uint64_t NowNs);
  void trackFrameProgress(Reactor &R, Connection &C, size_t Extracted,
                          uint64_t NowNs);
  void closeConnection(Reactor &R, uint64_t ConnId);
  void startDrainOnLoop(Reactor &R);
  void finishDrainIfIdle(Reactor &R);
  void updateConnectionGauges(Reactor &R);

  ConnectionOptions Opts;
  /// Null unless built from ServerOptions.
  std::unique_ptr<SchedulerService> Service;
  HandlerFactory Factory;

  std::vector<std::unique_ptr<Reactor>> Reactors;
  int NumReactors = 0;
  bool ReusePortActive = false;
  uint16_t BoundPort = 0;
  const char *Backend = "";
  /// Handoff fallback: reactor 0's round-robin cursor (loop-thread
  /// only).
  size_t HandoffCursor = 0;
  /// Server-wide open-connection count for the MaxConnections limit
  /// (each reactor only sees its own ByFd).
  std::atomic<long> OpenConns{0};

  // Cross-thread lifecycle.
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> DrainRequested{false};
  std::atomic<int> DrainedReactors{0};

  mutable std::mutex StateMu;
  std::condition_variable DrainedCv;
  bool Drained = false;
};

} // namespace net
} // namespace cdvs

#endif // CDVS_NET_SERVER_H
