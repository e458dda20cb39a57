//===- tools/dvs-server.cpp - cdvs-wire network scheduling server ----------===//
//
// Serves the batch DVS-scheduling pipeline over TCP: net::Server
// (src/net) accepts cdvs-wire v1 frames, runs each Request through the
// same SchedulerService dvsd drives, and streams Response frames back
// out of order as jobs finish. --reactors N spreads socket work over N
// event-loop threads (each with its own SO_REUSEPORT listener; handoff
// fallback via --no-reuseport); MILP solving stays on the service's
// worker pool. --shed-high/--shed-hard arm per-reactor overload
// shedding by deadline class, --slow-frame-timeout-ms the slowloris
// guard.
//
// Lifecycle: on start the server prints one JSON line to stdout —
//   {"type":"listening","port":12345,"backend":"epoll",
//    "reactors":4,"reuseport":true}
// — so scripts can scrape the ephemeral port (or use --port-file).
// SIGTERM and SIGINT begin a graceful drain: the listener closes,
// in-flight jobs complete and flush, connections close, and the process
// exits with a final stats record. --max-seconds bounds the lifetime for
// CI runs the same way.
//
// Observability matches dvsd: --metrics-out/--metrics-json snapshot the
// process registry (now including the cdvs_net_* families) after the
// drain; --trace-out captures conn/frame spans as Chrome trace JSON.
//
//===----------------------------------------------------------------------===//

#include "cluster/PeerFill.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ArgParse.h"
#include "support/Clock.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

using namespace cdvs;

namespace {

net::Server *GServer = nullptr;

void onSignal(int) {
  if (GServer)
    GServer->beginDrain(); // one atomic store + one write(2)
}

bool writeTextFile(const std::string &Path, const std::string &Text,
                   const char *What) {
  std::FILE *F = Path == "-" ? stderr : std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "dvs-server: cannot write %s file '%s'\n", What,
                 Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  if (F != stderr)
    std::fclose(F);
  return true;
}

/// Mirrors the TaskPool's counters into registry gauges (same families
/// dvsd exports) so the metrics snapshot carries queue-pressure data.
void exportPoolStats(const PoolStats &PS) {
  obs::metrics()
      .gauge("cdvs_pool_tasks_submitted", "Tasks handed to the pool")
      .set(static_cast<double>(PS.TasksSubmitted));
  obs::metrics()
      .gauge("cdvs_pool_tasks_executed", "Tasks the pool finished")
      .set(static_cast<double>(PS.TasksExecuted));
  obs::metrics()
      .gauge("cdvs_pool_peak_queue_depth",
             "Deepest the pool's task queue has been")
      .set(static_cast<double>(PS.PeakQueueDepth));
  obs::metrics()
      .gauge("cdvs_pool_task_wait_seconds",
             "Total seconds tasks sat queued before a worker picked "
             "them up")
      .set(PS.TotalWaitSeconds);
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("dvs-server",
              "network front end of the DVS-scheduling service: "
              "cdvs-wire v1 requests in, schedules out");
  auto ApplyConnectionFlags = net::addConnectionFlags(P);
  int &Threads =
      P.addInt("threads", 0, "pipeline workers; 0 = one per core");
  int &QueueCap = P.addInt("queue", 128, "admission queue capacity");
  int &CacheCap = P.addInt("cache", 512, "result cache entries");
  double &MaxSeconds = P.addDouble(
      "max-seconds", 0.0, "drain and exit after this long; 0 = forever");
  std::string &PortFile = P.addString(
      "port-file", "", "write the bound port here once listening");
  std::string &VerifyArg = P.addString(
      "verify", "off",
      "post-solve static verification: off, warn, or strict");
  std::string &Self = P.addString(
      "self", "",
      "this backend's advertised host:port on the cluster ring");
  std::string &Peers = P.addString(
      "peers", "",
      "comma-separated cluster membership (host:port,...); enables "
      "peer cache fill on local misses (requires --self)");
  int &VNodes = P.addInt(
      "vnodes", 64,
      "consistent-ring virtual nodes per member; must match the "
      "router's --vnodes");
  std::string &MetricsOut = P.addString(
      "metrics-out", "",
      "write Prometheus text metrics here after the drain ('-' = "
      "stderr)");
  std::string &MetricsJson = P.addString(
      "metrics-json", "", "write the metrics registry as JSON here");
  std::string &TraceOut = P.addString(
      "trace-out", "",
      "enable span tracing; write Chrome trace_event JSON here");
  bool &TraceOn = P.addFlag(
      "trace",
      "enable span tracing into the in-memory ring without writing a "
      "file (scrape it live with dvs-stat --scrape)");
  if (!P.parseOrExit(argc, argv))
    return 0;

  net::ServerOptions O;
  ApplyConnectionFlags(O);
  O.Service.NumWorkers = Threads;
  O.Service.QueueCapacity =
      static_cast<size_t>(QueueCap < 1 ? 1 : QueueCap);
  O.Service.CacheCapacity =
      static_cast<size_t>(CacheCap < 1 ? 1 : CacheCap);
  if (!parseVerifyMode(VerifyArg, O.Service.Verify)) {
    std::fprintf(stderr,
                 "dvs-server: --verify must be off, warn, or strict "
                 "(got '%s')\n",
                 VerifyArg.c_str());
    return 1;
  }

  std::unique_ptr<cluster::PeerFiller> Filler;
  if (!Peers.empty()) {
    if (Self.empty()) {
      std::fprintf(stderr, "dvs-server: --peers requires --self\n");
      return 1;
    }
    ErrorOr<std::vector<cluster::Address>> List =
        cluster::parseAddressList(Peers);
    if (!List) {
      std::fprintf(stderr, "dvs-server: --peers: %s\n",
                   List.message().c_str());
      return 1;
    }
    cluster::PeerFillOptions FO;
    FO.Self = Self;
    for (const cluster::Address &A : *List)
      FO.Peers.push_back(A.name());
    FO.VirtualNodes = VNodes < 1 ? 1 : VNodes;
    Filler = std::make_unique<cluster::PeerFiller>(std::move(FO));
    O.Service.PeerFill = Filler->asFn();
  }

  std::signal(SIGPIPE, SIG_IGN);
  if (!TraceOut.empty() || TraceOn)
    obs::trace().setEnabled(true);
  net::Server Server(O);
  ErrorOr<bool> Started = Server.start();
  if (!Started) {
    std::fprintf(stderr, "dvs-server: %s\n", Started.message().c_str());
    return 1;
  }

  std::printf("{\"type\":\"listening\",\"port\":%u,\"backend\":\"%s\","
              "\"reactors\":%d,\"reuseport\":%s}\n",
              Server.port(), Server.backendName(), Server.reactors(),
              Server.usingReusePort() ? "true" : "false");
  std::fflush(stdout);
  if (!PortFile.empty())
    writeTextFile(PortFile, std::to_string(Server.port()) + "\n",
                  "port");

  GServer = &Server;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  uint64_t StartNs = monotonicNanos();
  for (;;) {
    if (Server.waitDrained(0.2))
      break;
    if (MaxSeconds > 0.0 &&
        static_cast<double>(monotonicNanos() - StartNs) * 1e-9 >=
            MaxSeconds)
      Server.beginDrain();
  }
  GServer = nullptr;
  net::ServerStats NS = Server.stats();
  ServiceStats SS = Server.service().stats();
  CacheStats CS = Server.service().cacheStats();
  exportPoolStats(Server.service().poolStats());
  Server.stop();

  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      ",\"jobs\":{\"submitted\":%ld,\"completed\":%ld,\"rejected\":%ld,"
      "\"infeasible\":%ld,\"failed\":%ld},"
      "\"cache\":{\"hits\":%ld,\"misses\":%ld},"
      "\"peer\":{\"fills\":%ld,\"fetches\":%ld,\"served\":%ld}}",
      SS.Submitted, SS.Completed, SS.Rejected, SS.Infeasible, SS.Failed,
      CS.Hits, CS.Misses, SS.PeerFills,
      Filler ? Filler->stats().Fetches : 0L, NS.PeerFetches);
  std::printf("{\"type\":\"stats\",%s%s\n",
              net::renderServerStats(NS).c_str(), Buf);
  std::fflush(stdout);

  if (!MetricsOut.empty())
    writeTextFile(MetricsOut, obs::metrics().renderPrometheus(),
                  "metrics");
  if (!MetricsJson.empty())
    writeTextFile(MetricsJson, obs::metrics().renderJson(),
                  "metrics JSON");
  if (!TraceOut.empty())
    writeTextFile(TraceOut,
                  obs::trace().renderChromeTrace(
                      static_cast<int>(getpid()), "dvs-server"),
                  "trace");
  return 0;
}
