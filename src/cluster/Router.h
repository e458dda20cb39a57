//===- cluster/Router.h - Sharding front end over dvs-servers ---*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster front end: a net::Server whose per-reactor request
/// handler is an upstream pool — a multiplexed cdvs-wire *client* to
/// every dvs-server backend. The server side is net::Server's, every
/// guard included (framing, idle and slow-frame timeouts, write
/// backpressure, shedding, connection limit, drain), so a request
/// reaches the pool parsed and admitted. The pool keys it
/// (cluster/Key.h), hashes it onto the consistent ring
/// (cluster/Ring.h), and proxies it to the owning backend by
/// correlation-id remapping: each backend link assigns its own upstream
/// id and remembers the client's request; the answer goes back on the
/// same reactor with the client's id — payloads cross untouched except
/// for an optional `"backend":"host:port"` annotation spliced into
/// Responses for loadgen's per-backend breakdown.
///
/// Each reactor owns its pool: its own backend links, ring and health
/// state, registered on that reactor's poller and timer wheel. A routed
/// request thus crosses client -> router reactor -> backend, and no
/// lock is shared between reactors on that path.
///
/// Health and failover, all on the pool's timer wheel:
///
///  * every HealthIntervalMs each Up backend is Pinged; an unanswered
///    ping by the next tick, a failed/timed-out connect, a framing
///    error, or an unexpected EOF is a transport failure (a slow solve
///    is NOT — solver latency must never evict a healthy backend);
///  * FailThreshold consecutive failures evict the backend from the
///    ring (its keys reassign to ring successors — consistent hashing
///    moves only the dead member's ~1/N share);
///  * eviction is not forever: the health tick keeps probing, and a
///    completed connect + Pong reinstates the backend onto the ring
///    (probe-based, so a half-dead process that accepts but does not
///    answer never rejoins);
///  * requests in flight on a failed backend retry on the next ring
///    owner with a per-request budget (RetryBudget) and a tried-set so
///    a retry never lands on the backend that just failed it; solves
///    are idempotent and content-addressed, so a retry is safe and a
///    duplicate response for an already-answered id is dropped. An
///    exhausted budget answers Reject{"upstream"} — every admitted
///    request gets exactly one answer.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_CLUSTER_ROUTER_H
#define CDVS_CLUSTER_ROUTER_H

#include "cluster/Address.h"
#include "net/Server.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cdvs {
namespace cluster {

/// Sizing and policy knobs for a Router; the client-facing connection
/// knobs are net::ConnectionOptions'. MaxFrameBytes caps upstream
/// frames too.
struct RouterOptions : net::ConnectionOptions {
  /// Backend addresses ("host:port" each); fixed membership, dynamic
  /// health.
  std::vector<std::string> Backends;
  /// Ring points per backend; must match the backends' PeerFiller.
  int VirtualNodes = 64;
  /// Health-probe cadence; also the ping-answer deadline.
  uint64_t HealthIntervalMs = 500;
  /// Consecutive transport failures that evict a backend.
  int FailThreshold = 3;
  /// Nonblocking upstream connect deadline.
  uint64_t ConnectTimeoutMs = 1'000;
  /// Per proxied request: re-route to the next owner after this long
  /// without an answer. 0 disables (backends own solve timeouts).
  uint64_t UpstreamTimeoutMs = 0;
  /// Failover retries per request after its first routing.
  int RetryBudget = 2;
  /// Splice "backend":"host:port" into relayed Responses.
  bool AnnotateBackend = true;
  /// Flight-recorder depth per reactor: the newest completed proxied
  /// requests are kept (key, owner, per-hop latencies, verdict) for
  /// StatsFetch scrapes and post-mortems. 0 disables recording.
  size_t FlightCapacity = 256;
  /// Dump a JSON line for every request slower than this (or answered
  /// with a reject) to SlowLogPath. 0 disables the slow log.
  uint64_t SlowLogMs = 0;
  /// Slow-log destination; empty or "-" writes to stderr.
  std::string SlowLogPath;
};

/// One completed proxied request, as the router's bounded flight
/// recorder remembers it: identity, routing history, outcome. Hops are
/// (backend name, seconds from send to answer/failure), in routing
/// order — a clean request has exactly one.
struct FlightRecord {
  /// 32 lowercase hex chars, empty when the client sent no trace
  /// context.
  std::string TraceId;
  /// Request fingerprint (32 hex chars) — joins against cache keys.
  std::string Key;
  uint64_t ClientId = 0;
  uint64_t ClientCorr = 0;
  /// First backend this request was routed to (the ring owner at
  /// admission).
  std::string Owner;
  int Retries = 0;
  std::vector<std::pair<std::string, double>> Hops;
  /// "response", "reject" (relayed), "orphan", or a router reject code
  /// ("upstream", "no_backends", ...).
  std::string Verdict;
  double TotalSeconds = 0.0;
};

/// Upstream-side counters, summed over the reactors' pools.
struct UpstreamStats {
  long RequestsRouted = 0;    ///< proxied sends, retries included
  long ResponsesRelayed = 0;
  long RejectsRelayed = 0;    ///< backend rejects passed through
  long Retries = 0;
  long BackendEvictions = 0;
  long BackendReinstatements = 0;
  long UpstreamTimeouts = 0;
  long OrphanResponses = 0;   ///< answer landed after client/id vanished
  /// Backends on the ring of every reactor's pool.
  size_t HealthyBackends = 0;
};

/// The client side (the server's counters; RejectsSent includes the
/// router's own no_backends/upstream rejects) plus the upstream side.
struct RouterStats : net::ServerStats, UpstreamStats {};

/// The cluster router; see the file comment.
class Router {
public:
  explicit Router(RouterOptions Opts = RouterOptions());
  ~Router();

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Binds, listens, and spawns the reactors. Backends start optimistic
  /// (on the ring, connecting); the first failed probes evict the ones
  /// that are not actually there.
  ErrorOr<bool> start();

  /// The bound port (after start(); useful with Port = 0).
  uint16_t port() const { return Front.port(); }
  /// "epoll" or "poll" (after start()).
  const char *backendName() const { return Front.backendName(); }
  /// Reactor threads actually running (after start()).
  int reactors() const { return Front.reactors(); }

  /// Stop accepting, answer what is in flight, close when quiet.
  /// Idempotent, thread-safe.
  void beginDrain() { Front.beginDrain(); }
  /// Waits for the drain to finish. \returns false on timeout;
  /// TimeoutSeconds <= 0 polls once.
  bool waitDrained(double TimeoutSeconds) {
    return Front.waitDrained(TimeoutSeconds);
  }

  /// Hard stop: closes everything and joins the reactors. The
  /// destructor calls this.
  void stop();

  RouterStats stats() const;
  /// (backend name, on the ring of every reactor's pool) pairs — the
  /// tests' view of the health state machine.
  std::vector<std::pair<std::string, bool>> backendHealth() const;
  /// Snapshot of the flight recorder, oldest first per reactor.
  /// Thread-safe.
  std::vector<FlightRecord> flightRecords() const;

private:
  class UpstreamPool;

  /// The StatsData payload: role "router" plus the flight records.
  std::string statsData() const;

  RouterOptions Opts;
  std::vector<Address> Addrs;
  /// One per reactor, owned by the reactor's handler slot; filled by
  /// the server's start() before any reactor runs.
  std::vector<UpstreamPool *> Pools;
  std::FILE *SlowLog = nullptr; ///< owned iff SlowLogOwned
  bool SlowLogOwned = false;

  obs::Gauge *ClientConnsGauge = nullptr;
  obs::Counter *RetriesCtr = nullptr;
  obs::Counter *EvictionsCtr = nullptr;
  obs::Counter *ReinstatementsCtr = nullptr;
  obs::Counter *RejectsCtr = nullptr;
  obs::Counter *SlowCtr = nullptr;

  /// Last member: its reactors (and the pools they own) stop and die
  /// before anything above.
  net::Server Front;
};

} // namespace cluster
} // namespace cdvs

#endif // CDVS_CLUSTER_ROUTER_H
