//===- net/Server.cpp - multi-reactor DVS scheduling server ----------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "service/JobIO.h"
#include "support/ArgParse.h"
#include "support/Clock.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cdvs;
using namespace cdvs::net;

namespace {

std::string reactorLabel(int Index) { return std::to_string(Index); }

obs::Counter &framesCounter(int Reactor, FrameType Type, const char *Dir) {
  return obs::metrics().counter(
      "cdvs_net_frames_total", "cdvs-wire frames by type and direction",
      {{"type", frameTypeName(Type)},
       {"dir", Dir},
       {"reactor", reactorLabel(Reactor)}});
}

obs::Counter &shedsCounter(int Reactor, const char *Class) {
  return obs::metrics().counter(
      "cdvs_net_sheds_total",
      "Load-shedding rejects by reactor and deadline class",
      {{"reactor", reactorLabel(Reactor)}, {"class", Class}});
}

} // namespace

//===----------------------------------------------------------------------===//
// The local handler: requests run on the embedded SchedulerService
//===----------------------------------------------------------------------===//

namespace {

/// A finished job on its way from a pipeline worker to its reactor.
struct Completion {
  RequestRef Ref;
  /// Response for single-program jobs, GraphResponse for graph jobs —
  /// the answer frame mirrors the request frame's kind.
  FrameType Type = FrameType::Response;
  std::string Payload; ///< response JSON, serialized on the worker
};

/// Lock-free MPSC handoff from pipeline workers to one reactor: push()
/// is a CAS loop on an intrusive Treiber list (any thread), drainTo()
/// exchanges the whole list and reverses it (owner reactor only).
class CompletionQueue {
public:
  ~CompletionQueue() {
    Node *N = Head.exchange(nullptr, std::memory_order_acquire);
    while (N) {
      Node *Next = N->Next;
      delete N;
      N = Next;
    }
  }

  void push(Completion C) {
    Node *N = new Node{std::move(C), nullptr};
    Node *Old = Head.load(std::memory_order_relaxed);
    do {
      N->Next = Old;
    } while (!Head.compare_exchange_weak(Old, N, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// Appends all pending completions to \p Out in rough FIFO order.
  void drainTo(std::vector<Completion> &Out) {
    Node *N = Head.exchange(nullptr, std::memory_order_acquire);
    // The Treiber list is LIFO; reverse it so completions deliver in
    // rough arrival order.
    Node *Prev = nullptr;
    while (N) {
      Node *Next = N->Next;
      N->Next = Prev;
      Prev = N;
      N = Next;
    }
    for (N = Prev; N;) {
      Out.push_back(std::move(N->C));
      Node *Next = N->Next;
      delete N;
      N = Next;
    }
  }

private:
  struct Node {
    Completion C;
    Node *Next = nullptr;
  };
  std::atomic<Node *> Head{nullptr};
};

/// Runs requests on the embedded SchedulerService; one per reactor.
class LocalHandler final : public RequestHandler {
public:
  LocalHandler(SchedulerService &Svc, ReactorContext &Ctx)
      : Svc(Svc), Ctx(Ctx),
        CqDepthGauge(&obs::metrics().gauge(
            "cdvs_net_completion_queue_depth",
            "Peak completions drained from one reactor's queue in a batch",
            {{"reactor", reactorLabel(Ctx.index())}})) {}

  void poll(uint64_t) override {
    Batch.clear();
    CQ.drainTo(Batch);
    if (Batch.empty())
      return;
    CqDepthGauge->max(static_cast<double>(Batch.size()));
    for (Completion &Cp : Batch)
      Ctx.answer(Cp.Ref, Cp.Type, Cp.Payload);
  }

  void request(const RequestRef &Ref, Frame &F, JobRequest &Req,
               uint64_t) override {
    // Hand the pipeline the thread's current context (the frame span
    // when tracing is on, else the sender's raw context): the job span
    // and everything under it, including peer fills, join the same
    // trace.
    obs::SpanContext SpanCtx = obs::currentSpanContext();
    if (SpanCtx.valid()) {
      Req.TraceHi = SpanCtx.TraceHi;
      Req.TraceLo = SpanCtx.TraceLo;
      Req.TraceParentSpan = SpanCtx.Span;
      Req.TraceSampled = SpanCtx.Sampled;
    }
    // The callback runs on a pipeline worker (or inline on this thread
    // when admission rejects): serialize there, push the bytes onto
    // this reactor's lock-free completion queue, wake the reactor.
    // Never touches connection state directly.
    FrameType AnswerType = F.Type == FrameType::GraphRequest
                               ? FrameType::GraphResponse
                               : FrameType::Response;
    Svc.submitAsync(std::move(Req), [this, Ref, AnswerType](JobResult Res) {
      CQ.push({Ref, AnswerType,
               jobResultToJson(Res, /*IncludeSchedule=*/true)});
      Ctx.wake();
    });
  }

  const SchedulerService *cache() const override { return &Svc; }

  std::string statsData() override {
    return renderStatsData("server", "dvs-server");
  }

private:
  SchedulerService &Svc;
  ReactorContext &Ctx;
  CompletionQueue CQ;
  std::vector<Completion> Batch;
  obs::Gauge *CqDepthGauge;
};

} // namespace

std::string net::renderStatsData(const std::string &Role,
                                 const std::string &Process,
                                 const std::string &ExtraFields) {
  return "{\"role\":\"" + Role + "\",\"pid\":" +
         std::to_string(static_cast<long>(getpid())) + ",\"now_ns\":" +
         std::to_string(monotonicNanos()) + ",\"trace_dropped\":" +
         std::to_string(obs::trace().dropped()) + "," + ExtraFields +
         "\"metrics\":\"" + jsonEscape(obs::metrics().renderPrometheus()) +
         "\",\"trace\":" +
         obs::trace().renderChromeTrace(static_cast<int>(getpid()),
                                        Process.c_str()) +
         "}";
}

std::string net::renderServerStats(const ServerStats &S) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"accepted\":%ld,\"conn_rejected\":%ld,\"closed\":%ld,"
      "\"frames_in\":%ld,\"frames_out\":%ld,\"bytes_in\":%lld,"
      "\"bytes_out\":%lld,\"rejects\":%ld,\"protocol_errors\":%ld,"
      "\"idle_closes\":%ld,\"request_timeouts\":%ld,"
      "\"read_pauses\":%ld,\"orphan_completions\":%ld,"
      "\"load_sheds\":%ld,\"slow_frame_closes\":%ld,"
      "\"handoff_accepts\":%ld",
      S.ConnectionsAccepted, S.ConnectionsRejected, S.ConnectionsClosed,
      S.FramesIn, S.FramesOut, S.BytesIn, S.BytesOut, S.RejectsSent,
      S.ProtocolErrors, S.IdleCloses, S.RequestTimeouts, S.ReadPauses,
      S.OrphanCompletions, S.LoadSheds, S.SlowFrameCloses,
      S.HandoffAccepts);
  return Buf;
}

std::function<void(ConnectionOptions &)> net::addConnectionFlags(ArgParser &P) {
  std::string *Bind =
      &P.addString("bind", "127.0.0.1", "address to listen on");
  int *Port = &P.addInt("port", 0, "TCP port; 0 picks an ephemeral one");
  int *Reactors = &P.addInt(
      "reactors", 1,
      "event-loop (reactor) threads, each with its own SO_REUSEPORT "
      "listener; 0 = one per core");
  bool *NoReusePort = &P.addFlag(
      "no-reuseport",
      "use the single-acceptor fd-handoff path even where SO_REUSEPORT "
      "exists");
  int *MaxConns =
      &P.addInt("max-conns", 256, "connection limit (over it: reject)");
  int *MaxFrameKb =
      &P.addInt("max-frame-kb", 1024, "per-frame payload cap in KiB");
  int *IdleMs = &P.addInt("idle-timeout-ms", 60000,
                         "close silent connections after this; 0 = off");
  int *ReqMs = &P.addInt("request-timeout-ms", 0,
                        "reject requests in flight longer than this; "
                        "0 = off");
  int *SlowMs = &P.addInt(
      "slow-frame-timeout-ms", 10000,
      "close connections that sit on a partial frame this long "
      "(slowloris guard); 0 = off");
  int *ShedHigh = &P.addInt(
      "shed-high", 0,
      "per-reactor pending-job watermark: at it, lax requests answer "
      "Reject{\"shed\"}; 0 = off");
  int *ShedHard = &P.addInt(
      "shed-hard", 0,
      "pending-job watermark past which every request sheds; 0 = "
      "2 * shed-high");
  double *ShedLax = &P.addDouble(
      "shed-lax-tightness", 0.5,
      "deadline-tightness boundary of the sheddable (lax) class");
  bool *ForcePoll =
      &P.addFlag("poll", "use the portable poll(2) backend, not epoll");
  // The flag values live in the parser; the closure reads them after
  // parsing.
  return [=](ConnectionOptions &O) {
    auto AtLeast = [](int V, int Min) { return V < Min ? Min : V; };
    O.BindAddress = *Bind;
    O.Port = static_cast<uint16_t>(*Port);
    O.Reactors = *Reactors;
    O.ForceAcceptHandoff = *NoReusePort;
    O.MaxConnections = static_cast<size_t>(AtLeast(*MaxConns, 1));
    O.MaxFrameBytes = static_cast<size_t>(AtLeast(*MaxFrameKb, 1)) * 1024;
    O.IdleTimeoutMs = static_cast<uint64_t>(AtLeast(*IdleMs, 0));
    O.RequestTimeoutMs = static_cast<uint64_t>(AtLeast(*ReqMs, 0));
    O.SlowFrameTimeoutMs = static_cast<uint64_t>(AtLeast(*SlowMs, 0));
    O.ShedHighWater = static_cast<size_t>(AtLeast(*ShedHigh, 0));
    O.ShedHardWater = static_cast<size_t>(AtLeast(*ShedHard, 0));
    O.ShedLaxTightness = *ShedLax;
    O.ForcePoll = *ForcePoll;
  };
}

//===----------------------------------------------------------------------===//
// ReactorContext
//===----------------------------------------------------------------------===//

void ReactorContext::retire(int Fd) {
  Io->remove(Fd);
  Retired.push_back(Fd);
}

void ReactorContext::closeRetired() {
  for (int Fd : Retired)
    ::close(Fd);
  Retired.clear();
}

bool ReactorContext::waiting(const RequestRef &Ref) const {
  const auto &R = static_cast<const Server::Reactor &>(*this);
  auto It = R.ById.find(Ref.ConnId);
  return It != R.ById.end() && It->second->StartNs.count(Ref.Correlation);
}

void ReactorContext::answer(const RequestRef &Ref, FrameType Type,
                            const std::string &Payload) {
  auto &R = static_cast<Server::Reactor &>(*this);
  if (Server::Connection *C = Owner->retireRequest(R, Ref))
    Owner->enqueueFrame(R, *C, Type, Ref.Correlation, Payload);
}

void ReactorContext::reject(const RequestRef &Ref, const std::string &Code,
                            const std::string &Reason) {
  auto &R = static_cast<Server::Reactor &>(*this);
  if (Server::Connection *C = Owner->retireRequest(R, Ref))
    Owner->sendReject(R, *C, Ref.Correlation, Code, Reason);
}

void ReactorContext::drop(const RequestRef &Ref) {
  Owner->retireRequest(static_cast<Server::Reactor &>(*this), Ref);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(O), Service(std::make_unique<SchedulerService>(O.Service)) {
  Factory = [this](ReactorContext &Ctx) {
    return std::make_unique<LocalHandler>(*Service, Ctx);
  };
}

Server::Server(ConnectionOptions O, HandlerFactory F)
    : Opts(std::move(O)), Factory(std::move(F)) {}

Server::~Server() { stop(); }

ErrorOr<bool> Server::start() {
  if (!Reactors.empty())
    return makeError("server already started");

  NumReactors = Opts.Reactors;
  if (NumReactors <= 0) {
    unsigned HW = std::thread::hardware_concurrency();
    NumReactors = HW == 0 ? 1 : static_cast<int>(HW);
  }
  NumReactors = std::min(NumReactors, 64);

  for (int I = 0; I < NumReactors; ++I) {
    auto R = std::make_unique<Reactor>(*this, I);
    R->NextConnId = static_cast<uint64_t>(I) + 1;
    if (!R->Wakeup.valid())
      return makeError("wakeup descriptor unavailable");
    R->Io = Poller::create(Opts.ForcePoll);
    if (!R->Io)
      return makeError("no poll backend available");
    Reactors.push_back(std::move(R));
  }
  Backend = Reactors[0]->Io->backendName();

  auto CloseListeners = [this] {
    for (auto &R : Reactors)
      if (R->ListenFd >= 0) {
        ::close(R->ListenFd);
        R->ListenFd = -1;
      }
  };

  // One REUSEPORT listener per reactor lets the kernel spread accepts;
  // any bind failure (kernel without reusable ports) falls back to a
  // single listener owned by reactor 0 plus fd handoff.
  ReusePortActive = false;
  if (NumReactors > 1 && !Opts.ForceAcceptHandoff) {
    ErrorOr<int> First =
        listenTcp(Opts.BindAddress, Opts.Port, Opts.Backlog,
                  /*ReusePort=*/true);
    if (First) {
      Reactors[0]->ListenFd = *First;
      ErrorOr<uint16_t> P = localPort(*First);
      if (!P) {
        CloseListeners();
        return makeError(P.message());
      }
      BoundPort = *P;
      ReusePortActive = true;
      for (int I = 1; I < NumReactors && ReusePortActive; ++I) {
        ErrorOr<int> LFd = listenTcp(Opts.BindAddress, BoundPort,
                                     Opts.Backlog, /*ReusePort=*/true);
        if (LFd)
          Reactors[I]->ListenFd = *LFd;
        else
          ReusePortActive = false;
      }
      if (!ReusePortActive)
        CloseListeners();
    }
  }
  if (!ReusePortActive) {
    ErrorOr<int> LFd =
        listenTcp(Opts.BindAddress, Opts.Port, Opts.Backlog);
    if (!LFd)
      return makeError(LFd.message());
    Reactors[0]->ListenFd = *LFd;
    ErrorOr<uint16_t> P = localPort(*LFd);
    if (!P) {
      CloseListeners();
      return makeError(P.message());
    }
    BoundPort = *P;
  }

  for (auto &R : Reactors) {
    if ((R->ListenFd >= 0 && !R->Io->add(R->ListenFd, EvIn)) ||
        !R->Io->add(R->Wakeup.fd(), EvIn)) {
      CloseListeners();
      return makeError("failed to register listener with poller");
    }
  }

  obs::metrics()
      .gauge("cdvs_net_reactors", "Reactor threads serving this process")
      .set(static_cast<double>(NumReactors));
  for (auto &RPtr : Reactors) {
    Reactor &R = *RPtr;
    obs::Labels L{{"reactor", reactorLabel(R.Index)}};
    R.AcceptsCtr = &obs::metrics().counter(
        "cdvs_net_accepts_total", "Connections accepted per reactor", L);
    R.FramesInCtr = &framesCounter(R.Index, FrameType::Request, "in");
    R.FramesOutCtr = &framesCounter(R.Index, FrameType::Response, "out");
    R.BytesInCtr = &obs::metrics().counter(
        "cdvs_net_bytes_total",
        "cdvs-wire payload+header bytes by direction",
        {{"dir", "in"}, {"reactor", reactorLabel(R.Index)}});
    R.BytesOutCtr = &obs::metrics().counter(
        "cdvs_net_bytes_total",
        "cdvs-wire payload+header bytes by direction",
        {{"dir", "out"}, {"reactor", reactorLabel(R.Index)}});
    R.OpenGauge = &obs::metrics().gauge(
        "cdvs_net_connections", "Open server connections by state",
        {{"state", "open"}, {"reactor", reactorLabel(R.Index)}});
    R.DrainGauge = &obs::metrics().gauge(
        "cdvs_net_connections", "Open server connections by state",
        {{"state", "draining"}, {"reactor", reactorLabel(R.Index)}});
    R.LatencyHist = &obs::metrics().histogram(
        "cdvs_net_request_latency_seconds",
        "Request receipt to response enqueue, per completed request",
        obs::latencyBucketsSeconds(), L);
    // Pre-register the shed classes so cdvs_net_sheds_total exists in
    // every snapshot (dvs-stat --check), sheds or none.
    for (const char *Cls : {"lax", "hard", "slow_frame"})
      (void)shedsCounter(R.Index, Cls);
    R.Handler = Factory(R);
  }
  // Pre-registered so the family exists (at zero) in every scrape even
  // before the trace ring first overwrites.
  obs::metrics().counter(
      "cdvs_trace_dropped_total",
      "Trace events lost to ring-buffer overwrite since process start.");

  for (auto &R : Reactors) {
    Reactor *RP = R.get();
    R->Thread = std::thread([this, RP] { loop(*RP); });
  }
  return true;
}

void Server::beginDrain() {
  DrainRequested.store(true, std::memory_order_release);
  for (auto &R : Reactors)
    R->Wakeup.notify();
}

bool Server::waitDrained(double TimeoutSeconds) {
  std::unique_lock<std::mutex> L(StateMu);
  if (TimeoutSeconds <= 0)
    return Drained;
  return DrainedCv.wait_for(L,
                            std::chrono::duration<double>(TimeoutSeconds),
                            [this] { return Drained; });
}

void Server::stop() {
  StopRequested.store(true, std::memory_order_release);
  for (auto &R : Reactors)
    R->Wakeup.notify();
  for (auto &R : Reactors)
    if (R->Thread.joinable())
      R->Thread.join();
  // The reactors are gone: late worker callbacks only push onto a
  // handler's completion queue and poke a wakeup fd, both of which stay
  // valid until the members destruct — after this shutdown() returns,
  // no callback is running.
  if (Service)
    Service->shutdown();
}

ServerStats Server::stats() const {
  ServerStats Out;
  for (const auto &R : Reactors) {
    std::lock_guard<std::mutex> L(R->StatsMu);
    const ServerStats &C = R->Counters;
    Out.ConnectionsAccepted += C.ConnectionsAccepted;
    Out.ConnectionsRejected += C.ConnectionsRejected;
    Out.ConnectionsClosed += C.ConnectionsClosed;
    Out.FramesIn += C.FramesIn;
    Out.FramesOut += C.FramesOut;
    Out.BytesIn += C.BytesIn;
    Out.BytesOut += C.BytesOut;
    Out.RejectsSent += C.RejectsSent;
    Out.ProtocolErrors += C.ProtocolErrors;
    Out.IdleCloses += C.IdleCloses;
    Out.RequestTimeouts += C.RequestTimeouts;
    Out.SlowFrameCloses += C.SlowFrameCloses;
    Out.LoadSheds += C.LoadSheds;
    Out.PeerFetches += C.PeerFetches;
    Out.PeerFetchHits += C.PeerFetchHits;
    Out.HandoffAccepts += C.HandoffAccepts;
    Out.ReadPauses += C.ReadPauses;
    Out.OrphanCompletions += C.OrphanCompletions;
    Out.OpenConnections += C.OpenConnections;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Reactor loop (everything below runs on one reactor's thread only)
//===----------------------------------------------------------------------===//

void Server::loop(Reactor &R) {
  R.Handler->start(monotonicNanos());
  std::vector<PollEvent> Events;
  while (!StopRequested.load(std::memory_order_acquire)) {
    if (DrainRequested.load(std::memory_order_acquire) && !R.DrainStarted)
      startDrainOnLoop(R);

    uint64_t Now = monotonicNanos();
    R.Wheel.advance(Now);
    adoptHandoff(R, Now);
    R.Handler->poll(Now);
    finishDrainIfIdle(R);
    if (StopRequested.load(std::memory_order_acquire))
      break;

    R.closeRetired();
    int TimeoutMs = R.Wheel.pollTimeoutMs(monotonicNanos());
    int N = R.Io->wait(Events, TimeoutMs);
    if (N < 0)
      continue;
    Now = monotonicNanos();
    for (const PollEvent &E : Events) {
      if (E.Fd == R.Wakeup.fd()) {
        R.Wakeup.drain();
        continue;
      }
      if (E.Fd == R.ListenFd && R.ListenFd >= 0) {
        acceptReady(R, Now);
        continue;
      }
      auto It = R.ByFd.find(E.Fd);
      if (It == R.ByFd.end()) {
        R.Handler->event(E, Now);
        continue;
      }
      Connection &C = *It->second;
      uint64_t Id = C.Id;
      if (E.Events & EvErr) {
        closeConnection(R, Id);
        continue;
      }
      if (E.Events & EvOut) {
        writeReady(R, C);
        if (!R.ById.count(Id))
          continue;
      }
      if (E.Events & (EvIn | EvHup))
        readReady(R, C, Now);
    }
  }
  teardown(R);
}

void Server::teardown(Reactor &R) {
  std::vector<uint64_t> Ids;
  Ids.reserve(R.ById.size());
  for (const auto &[Id, C] : R.ById)
    Ids.push_back(Id);
  for (uint64_t Id : Ids)
    closeConnection(R, Id);
  if (R.ListenFd >= 0) {
    R.Io->remove(R.ListenFd);
    ::close(R.ListenFd);
    R.ListenFd = -1;
  }
  // Handed-off fds this reactor never adopted still need closing.
  std::vector<int> Orphans;
  {
    std::lock_guard<std::mutex> L(R.HandoffMu);
    Orphans.swap(R.Handoff);
  }
  for (int Fd : Orphans)
    ::close(Fd);
  R.Handler->stop();
  R.Io->remove(R.Wakeup.fd());
  R.closeRetired();
}

void Server::acceptReady(Reactor &R, uint64_t NowNs) {
  for (;;) {
    int Fd = ::accept(R.ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN, or transient (ECONNABORTED, EMFILE): retry on
             // the next readiness edge
    }
    setNonBlocking(Fd);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (Opts.SocketSendBufferBytes > 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SocketSendBufferBytes,
                   sizeof(Opts.SocketSendBufferBytes));

    if (OpenConns.load(std::memory_order_relaxed) >=
        static_cast<long>(Opts.MaxConnections)) {
      rejectAccept(R, Fd);
      continue;
    }

    if (!ReusePortActive && NumReactors > 1) {
      // Handoff fallback: round-robin accepted fds across the peers
      // (including this reactor, so the acceptor serves its share).
      Reactor &Target = *Reactors[HandoffCursor++ % NumReactors];
      if (&Target != &R) {
        {
          std::lock_guard<std::mutex> L(Target.HandoffMu);
          Target.Handoff.push_back(Fd);
        }
        Target.Wakeup.notify();
        continue;
      }
    }
    adoptConnection(R, Fd, NowNs);
  }
}

void Server::rejectAccept(Reactor &R, int Fd) {
  // Over the limit: one structured Reject, best effort, then close.
  std::string F = encodeFrame(FrameType::Reject, 0,
                              encodeReject("overloaded",
                                           "connection limit reached"));
  (void)::send(Fd, F.data(), F.size(), MSG_NOSIGNAL);
  framesCounter(R.Index, FrameType::Reject, "out").inc();
  // Count before close: a peer that has seen EOF must also see the
  // rejection in stats().
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsRejected;
    ++R.Counters.RejectsSent;
  }
  ::close(Fd);
  obs::traceInstant("conn_reject", "net");
}

void Server::adoptHandoff(Reactor &R, uint64_t NowNs) {
  std::vector<int> Fds;
  {
    std::lock_guard<std::mutex> L(R.HandoffMu);
    Fds.swap(R.Handoff);
  }
  for (int Fd : Fds) {
    if (R.DrainStarted || StopRequested.load(std::memory_order_acquire)) {
      ::close(Fd);
      continue;
    }
    adoptConnection(R, Fd, NowNs);
    {
      std::lock_guard<std::mutex> L(R.StatsMu);
      ++R.Counters.HandoffAccepts;
    }
  }
}

void Server::adoptConnection(Reactor &R, int Fd, uint64_t NowNs) {
  auto C = std::make_unique<Connection>(Opts.MaxFrameBytes);
  C->Fd = Fd;
  C->Id = R.NextConnId;
  R.NextConnId += static_cast<uint64_t>(NumReactors);
  C->Span = std::make_unique<obs::TraceSpan>("conn", "net");
  C->Subscribed = EvIn;
  R.Io->add(Fd, EvIn);
  armIdleTimer(R, *C, NowNs);
  R.ById[C->Id] = C.get();
  R.ByFd[Fd] = std::move(C);
  OpenConns.fetch_add(1, std::memory_order_relaxed);
  R.AcceptsCtr->inc();
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsAccepted;
    R.Counters.OpenConnections = R.ByFd.size();
  }
  updateConnectionGauges(R);
}

void Server::readReady(Reactor &R, Connection &C, uint64_t NowNs) {
  if (C.ReadPaused || C.CloseAfterFlush || C.SawEof || R.DrainStarted)
    return;
  uint64_t Id = C.Id;
  char Buf[64 * 1024];
  long long Got = 0;
  bool PeerClosed = false;
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.Parser.feed(Buf, static_cast<size_t>(N));
      Got += N;
      continue;
    }
    if (N == 0) {
      PeerClosed = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    closeConnection(R, Id);
    return;
  }
  if (Got > 0) {
    R.BytesInCtr->inc(static_cast<double>(Got));
    std::lock_guard<std::mutex> L(R.StatsMu);
    R.Counters.BytesIn += Got;
  }
  armIdleTimer(R, C, NowNs);
  size_t Extracted = processFrames(R, C, NowNs);
  if (!R.ById.count(Id))
    return;
  trackFrameProgress(R, C, Extracted, NowNs);
  if (PeerClosed) {
    if (C.Parser.buffered() > 0 && C.Parser.error() == WireStatus::Ok &&
        !C.CloseAfterFlush) {
      // Peer hung up mid-frame: a truncated frame is a framing error.
      {
        std::lock_guard<std::mutex> L(R.StatsMu);
        ++R.Counters.ProtocolErrors;
      }
      sendReject(R, C, 0, "bad_frame", "connection closed mid-frame");
      if (!R.ById.count(Id))
        return;
      C.CloseAfterFlush = true;
    }
    // Half close: no more requests will arrive; answer what is in
    // flight, flush, then close.
    C.SawEof = true;
    writeReady(R, C);
  }
}

size_t Server::processFrames(Reactor &R, Connection &C, uint64_t NowNs) {
  uint64_t Id = C.Id;
  size_t Extracted = 0;
  for (;;) {
    if (C.CloseAfterFlush)
      return Extracted;
    Frame F;
    FrameParser::Next Res = C.Parser.next(F);
    if (Res == FrameParser::Next::NeedMore)
      return Extracted;
    if (Res == FrameParser::Next::Error) {
      // The stream cannot be resynchronized: name the error, close.
      {
        std::lock_guard<std::mutex> L(R.StatsMu);
        ++R.Counters.ProtocolErrors;
      }
      const char *Code = wireStatusName(C.Parser.error());
      sendReject(R, C, 0, Code, std::string("framing error: ") + Code);
      if (!R.ById.count(Id))
        return Extracted;
      C.CloseAfterFlush = true;
      updateSubscription(R, C);
      writeReady(R, C);
      return Extracted;
    }

    ++Extracted;
    if (F.Type == FrameType::Request)
      R.FramesInCtr->inc(); // hot path: skip the registry lock
    else
      framesCounter(R.Index, F.Type, "in").inc();
    {
      std::lock_guard<std::mutex> L(R.StatsMu);
      ++R.Counters.FramesIn;
    }
    // Install the frame's trace context (or clear any stale one) so
    // every span below — and the JobRequest handed to the pipeline —
    // inherits the sender's trace id.
    obs::SpanContext FrameCtx;
    if (F.HasTrace) {
      FrameCtx.TraceHi = F.Trace.TraceHi;
      FrameCtx.TraceLo = F.Trace.TraceLo;
      FrameCtx.Span = F.Trace.ParentSpan;
      FrameCtx.Sampled = F.Trace.Sampled;
    }
    obs::ScopedSpanContext CtxGuard(FrameCtx);
    obs::TraceSpan Span("frame", "net");
    Span.arg("bytes", static_cast<double>(F.Payload.size()));

    switch (F.Type) {
    case FrameType::Ping:
      // The monotonic-clock stamp lets scrapers align per-process
      // clocks from the RTT midpoint; old clients ignore Pong payloads.
      enqueueFrame(R, C, FrameType::Pong, F.Correlation,
                   "{\"now_ns\":" + std::to_string(monotonicNanos()) +
                       "}");
      break;
    case FrameType::Request:
    case FrameType::GraphRequest:
      handleRequest(R, C, F, NowNs);
      break;
    case FrameType::PeerFetch:
      if (const SchedulerService *Cache = R.Handler->cache()) {
        handlePeerFetch(R, C, F, *Cache);
        break;
      }
      refuseFrame(R, C, F);
      return Extracted;
    case FrameType::StatsFetch:
      handleStatsFetch(R, C, F);
      break;
    default:
      // Response/Reject/Pong/PeerData are server-to-client only.
      refuseFrame(R, C, F);
      return Extracted;
    }
    if (!R.ById.count(Id))
      return Extracted;
  }
}

const char *Server::shedClass(const Reactor &R, const Frame &F) const {
  if (Opts.ShedHighWater == 0 ||
      static_cast<size_t>(R.PendingJobs) < Opts.ShedHighWater)
    return nullptr;
  size_t Hard = Opts.ShedHardWater ? Opts.ShedHardWater
                                   : Opts.ShedHighWater * 2;
  if (static_cast<size_t>(R.PendingJobs) >= Hard)
    return "hard";
  // Deadline class from a cheap payload scan — the full JSON parse is
  // exactly what an overloaded reactor must not pay per shed request.
  if (peekDeadlineTightness(F.Payload, /*Fallback=*/0.5) >=
      Opts.ShedLaxTightness)
    return "lax";
  return nullptr;
}

void Server::handleRequest(Reactor &R, Connection &C, Frame &F,
                           uint64_t NowNs) {
  if (R.DrainStarted) {
    sendReject(R, C, F.Correlation, "draining", "server is draining");
    return;
  }
  if (C.StartNs.count(F.Correlation) || C.TimedOut.count(F.Correlation)) {
    sendReject(R, C, F.Correlation, "bad_request",
               "correlation id already in flight");
    return;
  }
  if (const char *Class = shedClass(R, F)) {
    shedsCounter(R.Index, Class).inc();
    {
      std::lock_guard<std::mutex> L(R.StatsMu);
      ++R.Counters.LoadSheds;
    }
    sendReject(R, C, F.Correlation, "shed",
               std::string("overloaded: ") + Class +
                   "-class request shed at " +
                   std::to_string(R.PendingJobs) + " pending");
    return;
  }
  ErrorOr<JobRequest> Req = jobRequestFromJsonText(F.Payload);
  if (!Req) {
    sendReject(R, C, F.Correlation, "bad_request", Req.message());
    return;
  }
  // The frame kind must match the payload kind: routers key graph jobs
  // on graph content from the frame type alone, so a mismatch means
  // someone is mislabeling traffic — refuse it rather than schedule it.
  bool IsGraph = F.Type == FrameType::GraphRequest;
  if ((Req->Graph != nullptr) != IsGraph) {
    sendReject(R, C, F.Correlation, "bad_request",
               IsGraph ? "graph_request frame without a graph payload"
                       : "graph payloads must use graph_request frames");
    return;
  }
  uint64_t ConnId = C.Id;
  uint64_t Corr = F.Correlation;
  C.StartNs[Corr] = NowNs;
  ++C.InFlight;
  ++R.PendingJobs;
  if (Opts.RequestTimeoutMs > 0) {
    Reactor *RP = &R;
    uint64_t Tid = R.Wheel.schedule(
        NowNs, Opts.RequestTimeoutMs * 1'000'000ull,
        [this, RP, ConnId, Corr] {
          auto It = RP->ById.find(ConnId);
          if (It == RP->ById.end())
            return;
          Connection &TC = *It->second;
          if (!TC.StartNs.erase(Corr))
            return; // already answered
          TC.RequestTimers.erase(Corr);
          TC.TimedOut.insert(Corr);
          --TC.InFlight;
          {
            std::lock_guard<std::mutex> L(RP->StatsMu);
            ++RP->Counters.RequestTimeouts;
          }
          sendReject(*RP, TC, Corr, "timeout", "request timed out");
        });
    C.RequestTimers[Corr] = Tid;
  }
  R.Handler->request(RequestRef{ConnId, Corr}, F, *Req, NowNs);
}

void Server::refuseFrame(Reactor &R, Connection &C, const Frame &F) {
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ProtocolErrors;
  }
  uint64_t Id = C.Id;
  sendReject(R, C, F.Correlation, "bad_frame",
             std::string("unexpected client frame type '") +
                 frameTypeName(F.Type) + "'");
  if (!R.ById.count(Id))
    return;
  C.CloseAfterFlush = true;
  updateSubscription(R, C);
  writeReady(R, C);
}

void Server::handlePeerFetch(Reactor &R, Connection &C, Frame &F,
                             const SchedulerService &Cache) {
  // Served inline on the reactor: a peek is two map lookups under a
  // shard lock, orders of magnitude under a frame round trip, and peer
  // probes must stay cheap even while the pipeline is saturated.
  ErrorOr<std::string> Fp = peerFetchFromJsonText(F.Payload);
  if (!Fp) {
    sendReject(R, C, F.Correlation, "bad_request", Fp.message());
    return;
  }
  obs::TraceSpan Span("peer_serve", "net");
  std::shared_ptr<const CachedSchedule> Hit = Cache.cachePeek(*Fp);
  Span.arg("hit", Hit ? 1.0 : 0.0);
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.PeerFetches;
    if (Hit)
      ++R.Counters.PeerFetchHits;
  }
  enqueueFrame(R, C, FrameType::PeerData, F.Correlation,
               peerDataToJson(Hit.get()));
}

void Server::handleStatsFetch(Reactor &R, Connection &C, Frame &F) {
  // Served inline on the reactor like PeerFetch: the renders take the
  // registry/ring locks briefly, and scrapes are rare (human or CI
  // cadence) next to request traffic.
  static obs::Counter &Scrapes = obs::metrics().counter(
      "cdvs_stats_scrapes_total",
      "StatsFetch scrapes answered over the wire.");
  Scrapes.inc();
  enqueueFrame(R, C, FrameType::StatsData, F.Correlation,
               R.Handler->statsData());
}

Server::Connection *Server::retireRequest(Reactor &R,
                                          const RequestRef &Ref) {
  --R.PendingJobs;
  auto It = R.ById.find(Ref.ConnId);
  if (It == R.ById.end()) {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.OrphanCompletions;
    return nullptr;
  }
  Connection &C = *It->second;
  if (C.TimedOut.erase(Ref.Correlation)) {
    // Answered late; the client already got Reject{"timeout"}.
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.OrphanCompletions;
    return nullptr;
  }
  auto SIt = C.StartNs.find(Ref.Correlation);
  if (SIt != C.StartNs.end()) {
    R.LatencyHist->observe(
        static_cast<double>(monotonicNanos() - SIt->second) * 1e-9);
    C.StartNs.erase(SIt);
  }
  if (auto TIt = C.RequestTimers.find(Ref.Correlation);
      TIt != C.RequestTimers.end()) {
    R.Wheel.cancel(TIt->second);
    C.RequestTimers.erase(TIt);
  }
  --C.InFlight;
  return &C;
}

void Server::enqueueFrame(Reactor &R, Connection &C, FrameType Type,
                          uint64_t Correlation,
                          const std::string &Payload) {
  uint64_t Id = C.Id;
  std::string Data = encodeFrame(Type, Correlation, Payload);
  C.WriteQBytes += Data.size();
  C.WriteQ.push_back(std::move(Data));
  if (Type == FrameType::Response)
    R.FramesOutCtr->inc(); // hot path: skip the registry lock
  else
    framesCounter(R.Index, Type, "out").inc();
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.FramesOut;
  }
  writeReady(R, C);
  if (!R.ById.count(Id))
    return;
  if (!C.ReadPaused && C.WriteQBytes > Opts.WriteQueueHighWater) {
    // Backpressure: stop reading this connection; the kernel socket
    // buffer then pushes back on the sender.
    C.ReadPaused = true;
    {
      std::lock_guard<std::mutex> L(R.StatsMu);
      ++R.Counters.ReadPauses;
    }
    obs::traceInstant("read_pause", "net", "queued_bytes",
                      static_cast<double>(C.WriteQBytes));
    updateSubscription(R, C);
  }
}

void Server::sendReject(Reactor &R, Connection &C, uint64_t Correlation,
                        const std::string &Code,
                        const std::string &Reason) {
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.RejectsSent;
  }
  enqueueFrame(R, C, FrameType::Reject, Correlation,
               encodeReject(Code, Reason));
}

void Server::writeReady(Reactor &R, Connection &C) {
  uint64_t Id = C.Id;
  long long Sent = 0;
  bool Dead = false;
  {
    // Count under the lock, held across the sends: a peer that has
    // received a frame and then asks stats() must see its bytes — the
    // snapshot blocks until this loop's increments are in.
    std::lock_guard<std::mutex> L(R.StatsMu);
    while (!C.WriteQ.empty()) {
      const std::string &Front = C.WriteQ.front();
      ssize_t N = ::send(C.Fd, Front.data() + C.WriteOff,
                         Front.size() - C.WriteOff, MSG_NOSIGNAL);
      if (N > 0) {
        Sent += N;
        R.Counters.BytesOut += N;
        C.WriteOff += static_cast<size_t>(N);
        if (C.WriteOff == Front.size()) {
          C.WriteQBytes -= Front.size();
          C.WriteQ.pop_front();
          C.WriteOff = 0;
        }
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      Dead = true;
      break;
    }
  }
  if (Dead) {
    closeConnection(R, Id);
    return;
  }
  if (Sent > 0)
    R.BytesOutCtr->inc(static_cast<double>(Sent));
  if (C.ReadPaused && !C.CloseAfterFlush &&
      C.WriteQBytes < Opts.WriteQueueLowWater) {
    C.ReadPaused = false;
    obs::traceInstant("read_resume", "net");
  }
  if (C.WriteQ.empty()) {
    bool Done = C.CloseAfterFlush ||
                ((C.SawEof || R.DrainStarted) && C.InFlight == 0);
    if (Done) {
      closeConnection(R, Id);
      return;
    }
  }
  updateSubscription(R, C);
}

void Server::updateSubscription(Reactor &R, Connection &C) {
  unsigned Want = 0;
  if (!C.ReadPaused && !C.CloseAfterFlush && !C.SawEof && !R.DrainStarted)
    Want |= EvIn;
  if (!C.WriteQ.empty())
    Want |= EvOut;
  if (Want != C.Subscribed) {
    R.Io->update(C.Fd, Want);
    C.Subscribed = Want;
  }
}

void Server::armIdleTimer(Reactor &R, Connection &C, uint64_t NowNs) {
  if (Opts.IdleTimeoutMs == 0)
    return;
  if (C.IdleTimer)
    R.Wheel.cancel(C.IdleTimer);
  uint64_t ConnId = C.Id;
  Reactor *RP = &R;
  C.IdleTimer = R.Wheel.schedule(
      NowNs, Opts.IdleTimeoutMs * 1'000'000ull, [this, RP, ConnId] {
        auto It = RP->ById.find(ConnId);
        if (It == RP->ById.end())
          return;
        Connection &IC = *It->second;
        IC.IdleTimer = 0;
        if (IC.InFlight > 0 || !IC.WriteQ.empty()) {
          // Waiting on our own pipeline is not idleness; re-arm.
          armIdleTimer(*RP, IC, monotonicNanos());
          return;
        }
        {
          std::lock_guard<std::mutex> L(RP->StatsMu);
          ++RP->Counters.IdleCloses;
        }
        IC.CloseAfterFlush = true;
        sendReject(*RP, IC, 0, "idle_timeout", "connection idle");
      });
}

void Server::trackFrameProgress(Reactor &R, Connection &C,
                                size_t Extracted, uint64_t NowNs) {
  if (Opts.SlowFrameTimeoutMs == 0 || C.CloseAfterFlush)
    return;
  if (C.Parser.buffered() == 0) {
    // Clean frame boundary: nothing half-received, no deadline.
    if (C.SlowTimer) {
      R.Wheel.cancel(C.SlowTimer);
      C.SlowTimer = 0;
    }
    return;
  }
  // A partial frame is buffered. Restart the clock when the connection
  // made frame progress; keep the old deadline when it only dribbled.
  if (C.SlowTimer) {
    if (Extracted == 0)
      return;
    R.Wheel.cancel(C.SlowTimer);
  }
  uint64_t ConnId = C.Id;
  Reactor *RP = &R;
  C.SlowTimer = R.Wheel.schedule(
      NowNs, Opts.SlowFrameTimeoutMs * 1'000'000ull, [this, RP, ConnId] {
        auto It = RP->ById.find(ConnId);
        if (It == RP->ById.end())
          return;
        Connection &SC = *It->second;
        SC.SlowTimer = 0;
        if (SC.Parser.buffered() == 0 || SC.CloseAfterFlush)
          return; // completed in the same tick, or already closing
        shedsCounter(RP->Index, "slow_frame").inc();
        {
          std::lock_guard<std::mutex> L(RP->StatsMu);
          ++RP->Counters.SlowFrameCloses;
        }
        sendReject(*RP, SC, 0, "slow_frame",
                   "frame not completed in time");
        auto AIt = RP->ById.find(ConnId);
        if (AIt == RP->ById.end())
          return;
        SC.CloseAfterFlush = true;
        updateSubscription(*RP, SC);
        writeReady(*RP, SC);
      });
}

void Server::closeConnection(Reactor &R, uint64_t ConnId) {
  auto It = R.ById.find(ConnId);
  if (It == R.ById.end())
    return;
  Connection *C = It->second;
  if (C->IdleTimer)
    R.Wheel.cancel(C->IdleTimer);
  if (C->SlowTimer)
    R.Wheel.cancel(C->SlowTimer);
  for (const auto &[Corr, Tid] : C->RequestTimers)
    R.Wheel.cancel(Tid);
  int Fd = C->Fd;
  R.retire(Fd);
  R.ById.erase(It);
  R.ByFd.erase(Fd); // destroys C; its Span records the conn lifetime
  OpenConns.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(R.StatsMu);
    ++R.Counters.ConnectionsClosed;
    R.Counters.OpenConnections = R.ByFd.size();
  }
  updateConnectionGauges(R);
  finishDrainIfIdle(R);
}

void Server::startDrainOnLoop(Reactor &R) {
  R.DrainStarted = true;
  obs::traceInstant("drain_begin", "net");
  if (R.ListenFd >= 0) {
    R.Io->remove(R.ListenFd);
    ::close(R.ListenFd);
    R.ListenFd = -1;
  }
  // Connections handed off but not yet adopted close unopened.
  adoptHandoff(R, monotonicNanos());
  std::vector<uint64_t> Ids;
  Ids.reserve(R.ById.size());
  for (const auto &[Id, C] : R.ById)
    Ids.push_back(Id);
  for (uint64_t Id : Ids) {
    auto It = R.ById.find(Id);
    if (It == R.ById.end())
      continue;
    // Stop reading; flush what is queued; writeReady closes the
    // connection once nothing is queued and nothing is in flight.
    updateSubscription(R, *It->second);
    writeReady(R, *It->second);
  }
  updateConnectionGauges(R);
  finishDrainIfIdle(R);
}

void Server::finishDrainIfIdle(Reactor &R) {
  if (!R.DrainStarted || R.DrainedLocal || !R.ByFd.empty())
    return;
  R.DrainedLocal = true;
  obs::traceInstant("drain_done", "net");
  if (DrainedReactors.fetch_add(1, std::memory_order_acq_rel) + 1 <
      NumReactors)
    return;
  {
    std::lock_guard<std::mutex> L(StateMu);
    Drained = true;
  }
  DrainedCv.notify_all();
}

void Server::updateConnectionGauges(Reactor &R) {
  R.OpenGauge->set(static_cast<double>(R.ByFd.size()));
  R.DrainGauge->set(
      R.DrainStarted ? static_cast<double>(R.ByFd.size()) : 0.0);
}
