//===- cluster/Router.cpp - Sharding front end over dvs-servers ------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "cluster/Router.h"

#include "cluster/Key.h"
#include "cluster/Ring.h"
#include "obs/Trace.h"
#include "service/JobIO.h"
#include "service/JsonLite.h"
#include "support/Clock.h"
#include "support/RingBuffer.h"

#include <algorithm>
#include <cerrno>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cdvs;
using namespace cdvs::cluster;
using net::EvErr;
using net::EvHup;
using net::EvIn;
using net::EvOut;

namespace {

std::string hex128(uint64_t Hi, uint64_t Lo) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

std::string flightRecordJson(const FlightRecord &R) {
  char Num[64];
  std::string J = "{\"trace_id\":\"" + R.TraceId + "\",\"key\":\"" +
                  R.Key + "\",\"client\":" + std::to_string(R.ClientId) +
                  ",\"corr\":" + std::to_string(R.ClientCorr) +
                  ",\"owner\":\"" + jsonEscape(R.Owner) +
                  "\",\"retries\":" + std::to_string(R.Retries) +
                  ",\"hops\":[";
  for (size_t I = 0; I < R.Hops.size(); ++I) {
    if (I)
      J += ',';
    std::snprintf(Num, sizeof(Num), "%.6f", R.Hops[I].second);
    J += "{\"backend\":\"" + jsonEscape(R.Hops[I].first) +
         "\",\"seconds\":" + Num + "}";
  }
  std::snprintf(Num, sizeof(Num), "%.6f", R.TotalSeconds);
  J += std::string("],\"verdict\":\"") + jsonEscape(R.Verdict) +
       "\",\"seconds\":" + Num + "}";
  return J;
}

} // namespace

//===----------------------------------------------------------------------===//
// The upstream pool: one reactor's links to every backend
//===----------------------------------------------------------------------===//

class Router::UpstreamPool final : public net::RequestHandler {
public:
  UpstreamPool(Router &Owner, net::ReactorContext &Ctx);

  void start(uint64_t NowNs) override;
  void stop() override;
  void event(const net::PollEvent &E, uint64_t NowNs) override;
  void request(const net::RequestRef &Ref, net::Frame &F, JobRequest &Req,
               uint64_t NowNs) override;
  std::string statsData() override { return Owner.statsData(); }

  // Snapshots; any thread.
  void addStats(UpstreamStats &S) const;
  /// Adds 1 to \p OnRing[name] for every backend on this pool's ring.
  void countOnRing(std::map<std::string, size_t> &OnRing) const;
  void appendFlights(std::vector<FlightRecord> &Out) const;

private:
  /// One proxied request, owned by the backend link carrying it.
  struct PendingRequest {
    net::RequestRef Ref;
    /// Request JSON, kept so a failover can resend it.
    std::string Payload;
    /// The client's request frame kind (Request or GraphRequest),
    /// re-emitted verbatim on every upstream send and failover.
    net::FrameType Kind = net::FrameType::Request;
    Fingerprint128 Key;
    int RetriesLeft = 0;
    /// Backends this request was already sent to; a retry skips them.
    std::vector<std::string> Tried;
    uint64_t TimerId = 0; ///< upstream-timeout wheel id, 0 = none
    uint64_t StartNs = 0;
    /// Trace context from the client's Request frame, re-emitted (with
    /// the router's route span as parent) on every upstream send.
    net::TraceContext Trace;
    bool HasTrace = false;
    /// The router's own span id for this request ("route"), allocated
    /// at admission so upstream sends can name it as parent before the
    /// span's completion event is recorded at answer time.
    uint64_t RouteSpanId = 0;
    uint64_t HopStartNs = 0; ///< when the current upstream send left
    /// Completed hops: (backend, seconds from send to answer/failure).
    std::vector<std::pair<std::string, double>> Hops;
  };

  struct Backend {
    Address Addr;
    std::string Name; ///< Addr.name(), the ring member string
    enum class Link { Idle, Connecting, Up } Conn = Link::Idle;
    bool Healthy = true; ///< on the ring?
    int Failures = 0;    ///< consecutive transport failures
    int Fd = -1;
    net::FrameParser Parser;
    std::deque<std::string> WriteQ;
    size_t WriteOff = 0;
    unsigned Subscribed = 0;
    uint64_t NextCorr = 1;
    /// Upstream correlation id -> the proxied request it carries.
    std::map<uint64_t, PendingRequest> InFlight;
    uint64_t PingCorr = 0;     ///< outstanding health probe, 0 = none
    uint64_t ConnectTimer = 0; ///< wheel id, 0 = none

    obs::Counter *RequestsCtr = nullptr;
    obs::Gauge *UpGauge = nullptr;
    obs::Histogram *LatencyHist = nullptr;

    explicit Backend(size_t MaxPayload) : Parser(MaxPayload) {}
  };

  Backend *backendByName(const std::string &Name);
  void startConnect(Backend &B, uint64_t NowNs);
  void onBackendConnected(Backend &B);
  void processBackendFrames(Backend &B, uint64_t NowNs);
  void deliver(Backend &B, net::Frame &F, uint64_t NowNs);
  void flushBackend(Backend &B);
  void updateBackendSubscription(Backend &B);
  void sendPing(Backend &B);
  void sendToBackend(Backend &B, PendingRequest P, uint64_t NowNs);
  /// Closes the link (if any), cancels its timers, and returns the
  /// requests that were riding it.
  std::vector<PendingRequest> closeBackendLink(Backend &B);
  /// One consecutive transport failure: close the link, maybe evict,
  /// fail over whatever was in flight.
  void transportFailure(Backend &B, uint64_t NowNs);
  void markDown(Backend &B);
  /// A completed probe: failures reset, evicted backends rejoin.
  void recover(Backend &B);
  void retryPending(PendingRequest P, uint64_t NowNs);
  /// Retires \p P, whose client no longer waits, as an orphan.
  void dropOrphan(const PendingRequest &P, uint64_t NowNs);
  /// Answers the client with a router-originated Reject (routing
  /// failure, exhausted budget).
  void rejectPending(PendingRequest &P, const std::string &Code,
                     const std::string &Reason);
  /// Retires \p P into the flight recorder and, when it was slow or
  /// failed and the slow log is on, dumps it as a JSON line. Also emits
  /// the request's "route" span when it carried a trace context.
  void recordFlight(const PendingRequest &P, const std::string &Verdict,
                    uint64_t NowNs);
  void healthTick(uint64_t NowNs);
  void armHealthTimer(uint64_t NowNs);
  /// Applies \p Fn to the counters under the snapshot lock.
  template <typename FnT> void count(FnT Fn) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Fn(Counters);
  }

  Router &Owner;
  const RouterOptions &Opts;
  net::ReactorContext &Ctx;

  // Reactor-thread-only state.
  std::vector<std::unique_ptr<Backend>> Backends;
  std::map<int, Backend *> BackendByFd;
  HashRing Ring;
  obs::Gauge *BackendsGauge = nullptr;

  // Written by the reactor thread, snapshotted by stats(), scrapes and
  // flightRecords().
  mutable std::mutex StatsMu;
  UpstreamStats Counters;                 ///< guarded by StatsMu
  std::map<std::string, bool> HealthView; ///< guarded by StatsMu
  mutable std::mutex FlightMu;
  RingBuffer<FlightRecord> Flight; ///< guarded by FlightMu
};

Router::UpstreamPool::UpstreamPool(Router &O, net::ReactorContext &C)
    : Owner(O), Opts(O.Opts), Ctx(C), Ring(O.Opts.VirtualNodes),
      Flight(O.Opts.FlightCapacity) {
  std::string Reactor = std::to_string(Ctx.index());
  for (const Address &A : Owner.Addrs) {
    auto B = std::make_unique<Backend>(Opts.MaxFrameBytes);
    B->Addr = A;
    B->Name = A.name();
    B->RequestsCtr = &obs::metrics().counter(
        "cdvs_cluster_requests_total",
        "requests proxied to each backend, retries included",
        {{"backend", B->Name}});
    B->UpGauge = &obs::metrics().gauge(
        "cdvs_cluster_backend_up",
        "1 while the backend is on the reactor's ring, 0 while evicted",
        {{"backend", B->Name}, {"reactor", Reactor}});
    B->UpGauge->set(1);
    B->LatencyHist = &obs::metrics().histogram(
        "cdvs_cluster_upstream_latency_seconds",
        "router-observed time from proxied send to backend answer",
        obs::latencyBucketsSeconds(), {{"backend", B->Name}});
    Ring.add(B->Name);
    HealthView[B->Name] = true;
    Backends.push_back(std::move(B));
  }
  BackendsGauge = &obs::metrics().gauge(
      "cdvs_cluster_backends", "backends currently on the reactor's ring",
      {{"reactor", Reactor}});
  BackendsGauge->set(static_cast<double>(Ring.size()));
}

void Router::UpstreamPool::start(uint64_t NowNs) {
  for (auto &B : Backends)
    startConnect(*B, NowNs);
  armHealthTimer(NowNs);
}

void Router::UpstreamPool::stop() {
  for (auto &B : Backends)
    closeBackendLink(*B);
}

void Router::UpstreamPool::addStats(UpstreamStats &S) const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  const UpstreamStats &C = Counters;
  S.RequestsRouted += C.RequestsRouted;
  S.ResponsesRelayed += C.ResponsesRelayed;
  S.RejectsRelayed += C.RejectsRelayed;
  S.Retries += C.Retries;
  S.BackendEvictions += C.BackendEvictions;
  S.BackendReinstatements += C.BackendReinstatements;
  S.UpstreamTimeouts += C.UpstreamTimeouts;
  S.OrphanResponses += C.OrphanResponses;
}

void Router::UpstreamPool::countOnRing(
    std::map<std::string, size_t> &OnRing) const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  for (const auto &[Name, Up] : HealthView)
    OnRing[Name] += Up ? 1 : 0;
}

void Router::UpstreamPool::appendFlights(
    std::vector<FlightRecord> &Out) const {
  std::lock_guard<std::mutex> Lock(FlightMu);
  Flight.forEach([&Out](const FlightRecord &R) { Out.push_back(R); });
}

Router::UpstreamPool::Backend *
Router::UpstreamPool::backendByName(const std::string &Name) {
  for (auto &B : Backends)
    if (B->Name == Name)
      return B.get();
  return nullptr;
}

void Router::UpstreamPool::request(const net::RequestRef &Ref,
                                   net::Frame &F, JobRequest &Req,
                                   uint64_t NowNs) {
  if (Ring.empty()) {
    Owner.RejectsCtr->inc();
    Ctx.reject(Ref, "no_backends", "no healthy backends on the ring");
    return;
  }
  PendingRequest P;
  P.Ref = Ref;
  P.Payload = std::move(F.Payload);
  P.Kind = F.Type;
  P.Key = requestKey(Req);
  P.RetriesLeft = Opts.RetryBudget;
  P.StartNs = NowNs;
  if (F.HasTrace && F.Trace.valid()) {
    P.Trace = F.Trace;
    P.HasTrace = true;
    // Allocated now so upstream sends can name it as their parent; the
    // span's completion event is recorded when the request retires.
    P.RouteSpanId = obs::nextSpanId();
  }
  const std::string *Name = Ring.ownerOf(P.Key);
  Backend *B = Name ? backendByName(*Name) : nullptr;
  if (!B) {
    rejectPending(P, "no_backends", "ring lookup failed");
    return;
  }
  sendToBackend(*B, std::move(P), NowNs);
}

void Router::UpstreamPool::recordFlight(const PendingRequest &P,
                                        const std::string &Verdict,
                                        uint64_t NowNs) {
  double Total = static_cast<double>(NowNs - P.StartNs) * 1e-9;
  if (P.HasTrace && obs::trace().enabled()) {
    // The router's span for this request: admission to answer, parented
    // under the client's span, parent of every upstream send — the hinge
    // of the cross-process timeline.
    obs::TraceEvent E;
    E.Name = "route";
    E.Cat = "cluster";
    E.Phase = 'X';
    E.Tid = obs::traceThreadId();
    E.StartNs = P.StartNs;
    E.DurNs = NowNs - P.StartNs;
    E.TraceHi = P.Trace.TraceHi;
    E.TraceLo = P.Trace.TraceLo;
    E.SpanId = P.RouteSpanId;
    E.ParentSpan = P.Trace.ParentSpan;
    E.ArgKey0 = "retries";
    E.ArgVal0 = P.Tried.empty()
                    ? 0.0
                    : static_cast<double>(P.Tried.size() - 1);
    obs::trace().record(E);
  }
  if (Opts.FlightCapacity == 0)
    return;
  FlightRecord R;
  if (P.HasTrace)
    R.TraceId = hex128(P.Trace.TraceHi, P.Trace.TraceLo);
  R.Key = P.Key.toHex();
  R.ClientId = P.Ref.ConnId;
  R.ClientCorr = P.Ref.Correlation;
  R.Owner = P.Tried.empty() ? std::string() : P.Tried.front();
  R.Retries = P.Tried.empty()
                  ? 0
                  : static_cast<int>(P.Tried.size()) - 1;
  R.Hops = P.Hops;
  R.Verdict = Verdict;
  R.TotalSeconds = Total;
  bool Slow = Opts.SlowLogMs > 0 &&
              (Verdict != "response" ||
               Total * 1e3 >= static_cast<double>(Opts.SlowLogMs));
  if (Slow) {
    Owner.SlowCtr->inc();
    if (Owner.SlowLog) {
      // One fprintf per line: stdio's stream lock keeps lines from
      // several reactors whole.
      std::string Line = flightRecordJson(R) + "\n";
      std::fputs(Line.c_str(), Owner.SlowLog);
      std::fflush(Owner.SlowLog);
    }
  }
  std::lock_guard<std::mutex> Lock(FlightMu);
  Flight.push(std::move(R));
}

//===----------------------------------------------------------------------===//
// Backend links
//===----------------------------------------------------------------------===//

void Router::UpstreamPool::startConnect(Backend &B, uint64_t NowNs) {
  if (B.Conn != Backend::Link::Idle)
    return;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    transportFailure(B, NowNs);
    return;
  }
  net::setNonBlocking(Fd);
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(B.Addr.Port);
  if (::inet_pton(AF_INET, B.Addr.Host.c_str(), &A.sin_addr) != 1) {
    ::close(Fd);
    transportFailure(B, NowNs);
    return;
  }
  int Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A));
  if (Rc != 0 && errno != EINPROGRESS) {
    ::close(Fd);
    transportFailure(B, NowNs);
    return;
  }
  B.Fd = Fd;
  B.Parser = net::FrameParser(Opts.MaxFrameBytes);
  BackendByFd[Fd] = &B;
  B.Conn = Backend::Link::Connecting;
  if (!Ctx.io().add(Fd, EvOut)) {
    transportFailure(B, NowNs);
    return;
  }
  B.Subscribed = EvOut;
  if (Rc == 0) {
    onBackendConnected(B);
    return;
  }
  Backend *BP = &B;
  B.ConnectTimer = Ctx.wheel().schedule(
      NowNs, Opts.ConnectTimeoutMs * 1'000'000ull, [this, BP] {
        if (BP->Conn != Backend::Link::Connecting)
          return;
        BP->ConnectTimer = 0;
        transportFailure(*BP, monotonicNanos());
      });
}

void Router::UpstreamPool::onBackendConnected(Backend &B) {
  if (B.ConnectTimer) {
    Ctx.wheel().cancel(B.ConnectTimer);
    B.ConnectTimer = 0;
  }
  int One = 1;
  ::setsockopt(B.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  B.Conn = Backend::Link::Up;
  // Probe ping: reinstatement is gated on an answered Pong, so a
  // process that accepts but cannot speak the protocol never rejoins.
  B.Subscribed = 0; // force sendPing's update to re-register interest
  sendPing(B);
}

void Router::UpstreamPool::sendPing(Backend &B) {
  B.PingCorr = B.NextCorr++;
  B.WriteQ.push_back(
      net::encodeFrame(net::FrameType::Ping, B.PingCorr, ""));
  updateBackendSubscription(B);
}

void Router::UpstreamPool::event(const net::PollEvent &E, uint64_t NowNs) {
  auto It = BackendByFd.find(E.Fd);
  if (It == BackendByFd.end())
    return; // a descriptor retired earlier in this wave
  Backend &B = *It->second;
  if (B.Conn == Backend::Link::Connecting) {
    if (!(E.Events & (EvOut | EvErr | EvHup)))
      return;
    int Err = 0;
    socklen_t Len = sizeof(Err);
    if (::getsockopt(B.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len) != 0)
      Err = errno ? errno : EIO;
    if (Err != 0) {
      transportFailure(B, NowNs);
      return;
    }
    onBackendConnected(B);
    return;
  }
  if (B.Conn != Backend::Link::Up)
    return;
  if (E.Events & EvErr) {
    transportFailure(B, NowNs);
    return;
  }
  if (E.Events & EvOut) {
    flushBackend(B);
    if (B.Conn != Backend::Link::Up)
      return;
  }
  if (!(E.Events & (EvIn | EvHup)))
    return;
  char Buf[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(B.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      B.Parser.feed(Buf, static_cast<size_t>(N));
      processBackendFrames(B, NowNs);
      if (B.Conn != Backend::Link::Up)
        return;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    // EOF or a hard error: the backend went away.
    transportFailure(B, NowNs);
    return;
  }
}

void Router::UpstreamPool::processBackendFrames(Backend &B,
                                                uint64_t NowNs) {
  net::Frame F;
  for (;;) {
    if (B.Conn != Backend::Link::Up)
      return;
    net::FrameParser::Next R = B.Parser.next(F);
    if (R == net::FrameParser::Next::NeedMore)
      return;
    if (R == net::FrameParser::Next::Error) {
      transportFailure(B, NowNs);
      return;
    }
    switch (F.Type) {
    case net::FrameType::Pong:
      if (F.Correlation == B.PingCorr && B.PingCorr != 0) {
        B.PingCorr = 0;
        recover(B);
      }
      break;
    case net::FrameType::Response:
    case net::FrameType::GraphResponse:
    case net::FrameType::Reject:
      deliver(B, F, NowNs);
      break;
    default:
      // A backend speaks only answers; anything else is a broken link.
      transportFailure(B, NowNs);
      return;
    }
  }
}

void Router::UpstreamPool::deliver(Backend &B, net::Frame &F,
                                   uint64_t NowNs) {
  auto It = B.InFlight.find(F.Correlation);
  if (It == B.InFlight.end()) {
    // A late answer for a request that timed out upstream and was
    // retried elsewhere: drop it.
    count([](UpstreamStats &S) { ++S.OrphanResponses; });
    return;
  }
  PendingRequest P = std::move(It->second);
  B.InFlight.erase(It);
  if (P.TimerId) {
    Ctx.wheel().cancel(P.TimerId);
    P.TimerId = 0;
  }
  // An answered request proves the transport works end to end.
  B.Failures = 0;
  B.LatencyHist->observe(static_cast<double>(NowNs - P.StartNs) * 1e-9);
  if (P.HopStartNs && P.Hops.size() < P.Tried.size())
    P.Hops.emplace_back(P.Tried.back(),
                        static_cast<double>(NowNs - P.HopStartNs) *
                            1e-9);

  if (!Ctx.waiting(P.Ref)) {
    dropOrphan(P, NowNs);
    return;
  }
  bool IsReject = F.Type == net::FrameType::Reject;
  recordFlight(P, IsReject ? "reject" : "response", NowNs);
  count([IsReject](UpstreamStats &S) {
    ++(IsReject ? S.RejectsRelayed : S.ResponsesRelayed);
  });
  if (!IsReject && Opts.AnnotateBackend && !F.Payload.empty() &&
      F.Payload.front() == '{') {
    size_t Close = F.Payload.rfind('}');
    if (Close != std::string::npos)
      F.Payload.insert(Close,
                       ",\"backend\":\"" + jsonEscape(B.Name) + "\"");
  }
  Ctx.answer(P.Ref, F.Type, F.Payload);
}

void Router::UpstreamPool::flushBackend(Backend &B) {
  while (!B.WriteQ.empty()) {
    const std::string &Front = B.WriteQ.front();
    ssize_t N = ::send(B.Fd, Front.data() + B.WriteOff,
                       Front.size() - B.WriteOff, MSG_NOSIGNAL);
    if (N > 0) {
      B.WriteOff += static_cast<size_t>(N);
      if (B.WriteOff == Front.size()) {
        B.WriteQ.pop_front();
        B.WriteOff = 0;
      }
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    transportFailure(B, monotonicNanos());
    return;
  }
  updateBackendSubscription(B);
}

void Router::UpstreamPool::updateBackendSubscription(Backend &B) {
  if (B.Conn != Backend::Link::Up || B.Fd < 0)
    return;
  unsigned Want = EvIn;
  if (!B.WriteQ.empty())
    Want |= EvOut;
  if (Want != B.Subscribed) {
    Ctx.io().update(B.Fd, Want);
    B.Subscribed = Want;
  }
}

void Router::UpstreamPool::sendToBackend(Backend &B, PendingRequest P,
                                         uint64_t NowNs) {
  P.Tried.push_back(B.Name);
  P.HopStartNs = NowNs;
  uint64_t Corr = B.NextCorr++;
  count([](UpstreamStats &S) { ++S.RequestsRouted; });
  B.RequestsCtr->inc();
  // Re-emit the client's trace context upstream with the router's route
  // span as parent, so backend spans nest under the router's hop.
  net::TraceContext Upstream = P.Trace;
  Upstream.ParentSpan = P.RouteSpanId;
  B.WriteQ.push_back(net::encodeFrame(P.Kind, Corr, P.Payload,
                                      P.HasTrace ? &Upstream : nullptr));
  if (Opts.UpstreamTimeoutMs > 0) {
    Backend *BP = &B;
    P.TimerId = Ctx.wheel().schedule(
        NowNs, Opts.UpstreamTimeoutMs * 1'000'000ull, [this, BP, Corr] {
          auto It = BP->InFlight.find(Corr);
          if (It == BP->InFlight.end())
            return;
          PendingRequest Timed = std::move(It->second);
          BP->InFlight.erase(It);
          Timed.TimerId = 0;
          count([](UpstreamStats &S) { ++S.UpstreamTimeouts; });
          retryPending(std::move(Timed), monotonicNanos());
        });
  }
  B.InFlight.emplace(Corr, std::move(P));
  switch (B.Conn) {
  case Backend::Link::Up:
    updateBackendSubscription(B);
    break;
  case Backend::Link::Connecting:
    break; // queued; flushed once the connect completes
  case Backend::Link::Idle:
    // Last action on purpose: an immediate connect failure re-enters
    // transportFailure -> retryPending, which may consume P again.
    startConnect(B, NowNs);
    break;
  }
}

std::vector<Router::UpstreamPool::PendingRequest>
Router::UpstreamPool::closeBackendLink(Backend &B) {
  std::vector<PendingRequest> Orphans;
  if (B.ConnectTimer) {
    Ctx.wheel().cancel(B.ConnectTimer);
    B.ConnectTimer = 0;
  }
  Orphans.reserve(B.InFlight.size());
  for (auto &KV : B.InFlight) {
    if (KV.second.TimerId) {
      Ctx.wheel().cancel(KV.second.TimerId);
      KV.second.TimerId = 0;
    }
    Orphans.push_back(std::move(KV.second));
  }
  B.InFlight.clear();
  B.WriteQ.clear();
  B.WriteOff = 0;
  B.PingCorr = 0;
  if (B.Fd >= 0) {
    BackendByFd.erase(B.Fd);
    Ctx.retire(B.Fd);
    B.Fd = -1;
  }
  B.Subscribed = 0;
  B.Conn = Backend::Link::Idle;
  B.Parser = net::FrameParser(Opts.MaxFrameBytes);
  return Orphans;
}

void Router::UpstreamPool::transportFailure(Backend &B, uint64_t NowNs) {
  obs::traceInstant("cluster_backend_failure", "cluster", "failures",
                    static_cast<double>(B.Failures + 1));
  std::vector<PendingRequest> Orphans = closeBackendLink(B);
  ++B.Failures;
  if (B.Healthy && B.Failures >= Opts.FailThreshold)
    markDown(B);
  for (PendingRequest &P : Orphans)
    retryPending(std::move(P), NowNs);
}

void Router::UpstreamPool::markDown(Backend &B) {
  B.Healthy = false;
  Ring.remove(B.Name);
  B.UpGauge->set(0);
  Owner.EvictionsCtr->inc();
  BackendsGauge->set(static_cast<double>(Ring.size()));
  std::lock_guard<std::mutex> Lock(StatsMu);
  ++Counters.BackendEvictions;
  HealthView[B.Name] = false;
}

void Router::UpstreamPool::recover(Backend &B) {
  B.Failures = 0;
  if (B.Healthy)
    return;
  B.Healthy = true;
  Ring.add(B.Name);
  B.UpGauge->set(1);
  Owner.ReinstatementsCtr->inc();
  BackendsGauge->set(static_cast<double>(Ring.size()));
  std::lock_guard<std::mutex> Lock(StatsMu);
  ++Counters.BackendReinstatements;
  HealthView[B.Name] = true;
}

void Router::UpstreamPool::retryPending(PendingRequest P, uint64_t NowNs) {
  // Account the hop that just failed or timed out before re-routing.
  if (P.HopStartNs && P.Hops.size() < P.Tried.size())
    P.Hops.emplace_back(P.Tried.back(),
                        static_cast<double>(NowNs - P.HopStartNs) *
                            1e-9);
  if (!Ctx.waiting(P.Ref)) {
    dropOrphan(P, NowNs);
    return;
  }
  if (P.RetriesLeft <= 0) {
    rejectPending(P, "upstream", "retry budget exhausted");
    return;
  }
  --P.RetriesLeft;
  Backend *Next = nullptr;
  for (const std::string &Name : Ring.ownersOf(P.Key, Backends.size())) {
    if (std::find(P.Tried.begin(), P.Tried.end(), Name) ==
        P.Tried.end()) {
      Next = backendByName(Name);
      break;
    }
  }
  if (!Next) {
    rejectPending(P, "upstream",
                  "no healthy backend remains for this key");
    return;
  }
  count([](UpstreamStats &S) { ++S.Retries; });
  Owner.RetriesCtr->inc();
  sendToBackend(*Next, std::move(P), NowNs);
}

void Router::UpstreamPool::dropOrphan(const PendingRequest &P,
                                      uint64_t NowNs) {
  recordFlight(P, "orphan", NowNs);
  count([](UpstreamStats &S) { ++S.OrphanResponses; });
  Ctx.drop(P.Ref);
}

void Router::UpstreamPool::rejectPending(PendingRequest &P,
                                         const std::string &Code,
                                         const std::string &Reason) {
  if (P.TimerId) {
    Ctx.wheel().cancel(P.TimerId);
    P.TimerId = 0;
  }
  recordFlight(P, Code, monotonicNanos());
  Owner.RejectsCtr->inc();
  Ctx.reject(P.Ref, Code, Reason);
}

void Router::UpstreamPool::healthTick(uint64_t NowNs) {
  for (auto &BP : Backends) {
    Backend &B = *BP;
    switch (B.Conn) {
    case Backend::Link::Idle:
      startConnect(B, NowNs);
      break;
    case Backend::Link::Connecting:
      break; // the connect timer owns this deadline
    case Backend::Link::Up:
      if (B.PingCorr != 0) {
        // Last tick's probe is still unanswered: the link is not
        // moving frames, whatever the solver threads are doing.
        transportFailure(B, NowNs);
        break;
      }
      sendPing(B);
      break;
    }
  }
  armHealthTimer(monotonicNanos());
}

void Router::UpstreamPool::armHealthTimer(uint64_t NowNs) {
  Ctx.wheel().schedule(NowNs, Opts.HealthIntervalMs * 1'000'000ull,
                       [this] { healthTick(monotonicNanos()); });
}

//===----------------------------------------------------------------------===//
// Router
//===----------------------------------------------------------------------===//

Router::Router(RouterOptions O)
    : Opts(std::move(O)),
      Front(Opts, [this](net::ReactorContext &Ctx) {
        auto P = std::make_unique<UpstreamPool>(*this, Ctx);
        Pools.push_back(P.get());
        return P;
      }) {}

Router::~Router() { stop(); }

ErrorOr<bool> Router::start() {
  if (!Pools.empty())
    return makeError("router already started");
  if (Opts.Backends.empty())
    return makeError("router needs at least one backend");
  for (const std::string &Text : Opts.Backends) {
    ErrorOr<Address> A = parseAddress(Text);
    if (!A)
      return makeError(A.message());
    for (const Address &Seen : Addrs)
      if (Seen.name() == A->name())
        return makeError("duplicate backend '" + A->name() + "'");
    Addrs.push_back(*A);
  }

  ClientConnsGauge = &obs::metrics().gauge(
      "cdvs_cluster_client_connections",
      "client connections open on the router (refreshed per scrape)");
  ClientConnsGauge->set(0);
  RetriesCtr = &obs::metrics().counter(
      "cdvs_cluster_retries_total",
      "in-flight requests re-routed to the next ring owner");
  EvictionsCtr = &obs::metrics().counter(
      "cdvs_cluster_backend_evictions_total",
      "backends evicted from a reactor's ring after consecutive "
      "transport failures");
  ReinstatementsCtr = &obs::metrics().counter(
      "cdvs_cluster_backend_reinstatements_total",
      "evicted backends that answered a probe and rejoined a reactor's "
      "ring");
  RejectsCtr = &obs::metrics().counter(
      "cdvs_cluster_rejects_total",
      "router-originated rejects (no backends, exhausted retry budget)");
  SlowCtr = &obs::metrics().counter(
      "cdvs_cluster_slow_requests_total",
      "requests the flight recorder saw finish over the slow-log "
      "threshold, or fail");

  if (Opts.SlowLogMs > 0) {
    if (Opts.SlowLogPath.empty() || Opts.SlowLogPath == "-") {
      SlowLog = stderr;
    } else {
      SlowLog = std::fopen(Opts.SlowLogPath.c_str(), "a");
      if (!SlowLog)
        return makeError("cannot open slow log '" + Opts.SlowLogPath +
                         "'");
      SlowLogOwned = true;
    }
  }
  return Front.start();
}

void Router::stop() {
  Front.stop();
  if (SlowLogOwned && SlowLog)
    std::fclose(SlowLog);
  SlowLog = nullptr;
  SlowLogOwned = false;
}

RouterStats Router::stats() const {
  RouterStats S;
  static_cast<net::ServerStats &>(S) = Front.stats();
  if (ClientConnsGauge)
    ClientConnsGauge->set(static_cast<double>(S.OpenConnections));
  std::map<std::string, size_t> OnRing;
  for (const UpstreamPool *P : Pools) {
    P->addStats(S);
    P->countOnRing(OnRing);
  }
  for (const auto &[Name, Count] : OnRing)
    S.HealthyBackends += Count == Pools.size() ? 1 : 0;
  return S;
}

std::vector<std::pair<std::string, bool>> Router::backendHealth() const {
  std::map<std::string, size_t> OnRing;
  for (const UpstreamPool *P : Pools)
    P->countOnRing(OnRing);
  std::vector<std::pair<std::string, bool>> Out;
  for (const auto &[Name, Count] : OnRing)
    Out.emplace_back(Name, Count == Pools.size());
  return Out;
}

std::vector<FlightRecord> Router::flightRecords() const {
  std::vector<FlightRecord> Out;
  for (const UpstreamPool *P : Pools)
    P->appendFlights(Out);
  return Out;
}

std::string Router::statsData() const {
  // Scrapes are rare (human or CI cadence): refresh the connection
  // gauge and collect every reactor's flight records here.
  ClientConnsGauge->set(
      static_cast<double>(Front.stats().OpenConnections));
  std::string Flights = "[";
  for (const FlightRecord &R : flightRecords()) {
    if (Flights.size() > 1)
      Flights += ',';
    Flights += flightRecordJson(R);
  }
  Flights += ']';
  return net::renderStatsData("router", "dvs-router",
                              "\"flight\":" + Flights + ",");
}
