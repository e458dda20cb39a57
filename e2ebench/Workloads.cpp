//===- e2ebench/Workloads.cpp - The three workload runners ----------------===//
//
// cold_compile and deadline_sweep drive SchedulerService in-process;
// routed_warm drives client -> cluster::Router -> net::Server over
// loopback. Each set-up is repeated kSetupReps times (setup_s is their
// median), then the timed phase runs whole passes over the list.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Requests.h"

#include "cluster/Router.h"
#include "net/Client.h"
#include "net/Server.h"
#include "service/JobIO.h"
#include "service/Service.h"

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

namespace e2e {

using namespace cdvs;

namespace {

constexpr int kSetupReps = 3;
/// Jobs per round at least (see RoundLog).
constexpr long kMinJobs = 100;
/// routed_warm requests in flight per connection (two connections).
constexpr int kWindow = 2;

std::atomic<long> NextSpanId{1};

/// Confines every thread of this process to its first allowed CPU while
/// alive (threads started meanwhile inherit it) and restores the full
/// mask after. A routed_warm request crosses four threads (client, router,
/// reactor, worker) in well under a millisecond; spread over idle virtual
/// CPUs, each handoff waits for the hypervisor to wake one, and ten runs
/// of one commit measured either ~18k or ~3k req/s depending on host
/// load. On one CPU the handoffs are local switches and rate and latency
/// follow the CPU cost of the path.
class OneCpu {
public:
  OneCpu() {
    CPU_ZERO(&All);
    sched_getaffinity(0, sizeof(All), &All);
    cpu_set_t One;
    CPU_ZERO(&One);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All)) {
        CPU_SET(C, &One);
        break;
      }
    applyToAllThreads(One);
  }
  ~OneCpu() { applyToAllThreads(All); }
  OneCpu(const OneCpu &) = delete;
  OneCpu &operator=(const OneCpu &) = delete;

private:
  static void applyToAllThreads(const cpu_set_t &Set) {
    sched_setaffinity(0, sizeof(Set), &Set);
    DIR *Tasks = opendir("/proc/self/task");
    if (!Tasks)
      return;
    while (dirent *E = readdir(Tasks))
      if (E->d_name[0] != '.') // a thread that already exited is skipped
        sched_setaffinity(std::atoi(E->d_name), sizeof(Set), &Set);
    closedir(Tasks);
  }

  cpu_set_t All;
};

} // namespace

bool PassDispenser::next(size_t &Index, long &Seq) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Stopped)
    return false;
  if (Pos > 0 && Pos % RoundJobs == 0 &&
      secondsBetween(T0, Clock::now()) >= Seconds) {
    Stopped = true;
    return false;
  }
  Seq = Pos++;
  Index = static_cast<size_t>(Seq % N);
  return true;
}

void RoundLog::add(long Seq, double LatencyMs, bool Ok,
                   Clock::time_point Start, Clock::time_point End) {
  ++Samples;
  SumMs += LatencyMs;
  auto [It, Fresh] = Open.try_emplace(Seq / RoundJobs);
  Round &R = It->second;
  if (Fresh) {
    R.First = Start;
    R.Last = End;
  }
  R.First = std::min(R.First, Start);
  R.Last = std::max(R.Last, End);
  R.Ms.push_back(LatencyMs);
  R.Ok += Ok ? 1 : 0;
  if (static_cast<long>(R.Ms.size()) < RoundJobs)
    return;
  Rate.push_back(R.Ok / secondsBetween(R.First, R.Last));
  P50.push_back(quantile(R.Ms, 0.5));
  P90.push_back(quantile(R.Ms, 0.9));
  Open.erase(It);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

void RunRecord::recordAnswer(size_t Index, const JobResult &R) {
  if (Answers.size() != List.size()) {
    Answers.resize(List.size());
    HaveAnswer.assign(List.size(), false);
  }
  if (!HaveAnswer[Index]) {
    Answers[Index] = R;
    HaveAnswer[Index] = true;
  } else if (Answers[Index].Status != R.Status ||
             Answers[Index].ScheduleText != R.ScheduleText) {
    ++Inconsistent;
  }
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

namespace {

/// Bookkeeping shared by the in-process callers of one timed phase.
struct Ledger {
  std::mutex Mu;
  RunRecord &Run;
  bool Traced;
  Clock::time_point T0;
  double QueueMsSum = 0.0;

  Ledger(RunRecord &Run, bool Traced) : Run(Run), Traced(Traced) {}

  void add(size_t Index, long Seq, const JobResult &R,
           Clock::time_point Start, Clock::time_point End) {
    std::lock_guard<std::mutex> Lock(Mu);
    const BenchRequest &Req = Run.List[Index];
    Run.Rounds.add(Seq, 1e3 * secondsBetween(Start, End),
                   R.Status == JobStatus::Done, Start, End);
    ++Run.Attempted;
    QueueMsSum += 1e3 * R.QueueSeconds;
    if (R.Status != JobStatus::Done) {
      ++Run.Failed;
      if (!Req.KnownFault) {
        if (Run.UnexpectedFailures++ == 0)
          Run.FirstUnexpected = Req.Label + ": " + jobStatusName(R.Status) +
                                " " + R.Reason;
      }
    }
    Run.recordAnswer(Index, R);
    if (!Traced)
      return;
    // One span per job plus its service stages, laid end to end.
    long Id = NextSpanId++;
    double StartUs = 1e6 * secondsBetween(T0, Start);
    Run.Spans.push_back({Req.Label, StartUs,
                         1e6 * secondsBetween(Start, End), Id, 0});
    double At = StartUs;
    for (auto [Name, Sec] :
         {std::pair<const char *, double>{"queue", R.QueueSeconds},
          {"profile", R.ProfileSeconds},
          {"bound", R.BoundSeconds},
          {"solve", R.SolveSeconds},
          {"verify", R.VerifySeconds}}) {
      if (Sec <= 0.0)
        continue;
      Run.Spans.push_back({Name, At, 1e6 * Sec, NextSpanId++, Id});
      At += 1e6 * Sec;
    }
  }
};

/// Runs \p Body(index, seq) for every dispensed job on \p Callers threads.
void closedLoop(PassDispenser &D, int Callers,
                const std::function<void(size_t, long)> &Body) {
  std::vector<std::thread> Threads;
  std::exception_ptr Err;
  std::mutex ErrMu;
  D.start();
  for (int C = 0; C < Callers; ++C)
    Threads.emplace_back([&] {
      try {
        size_t I;
        long Seq;
        while (D.next(I, Seq))
          Body(I, Seq);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrMu);
        Err = std::current_exception();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (Err)
    std::rethrow_exception(Err);
}

/// Runs the untimed set-up kSetupReps times; \p SetUp returns the state
/// the timed phase will use (the last one is kept).
template <typename State>
std::unique_ptr<State>
repeatSetup(RunRecord &Run,
            const std::function<std::unique_ptr<State>()> &SetUp) {
  std::unique_ptr<State> Kept;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Kept.reset(); // tear the previous one down outside the timing
    auto T0 = Clock::now();
    Kept = SetUp();
    Run.SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
  }
  return Kept;
}

/// Timed phase(s) of an in-process workload: untraced first, then
/// (traced runs only) the same phase again with spans on; the traced
/// copy's cost against the first is the tracing overhead.
void timedPhases(RunRecord &Run, const Options &O, int Callers,
                 const std::function<JobResult(size_t)> &Job) {
  for (bool WithSpans : {false, true}) {
    if (WithSpans && !O.Trace)
      break;
    RunRecord Phase;
    Phase.List = Run.List;
    Ledger L(Phase, WithSpans);
    PassDispenser D(Run.List.size(), O.Seconds, kMinJobs);
    Phase.Rounds = RoundLog(D.roundJobs());
    L.T0 = Clock::now();
    closedLoop(D, Callers, [&](size_t I, long Seq) {
      auto Start = Clock::now();
      JobResult R = Job(I);
      L.add(I, Seq, R, Start, Clock::now());
    });
    Phase.TimedSeconds = secondsBetween(L.T0, Clock::now());
    Phase.Passes = Phase.Attempted / static_cast<long>(Run.List.size());
    Phase.Layer["service.queue_ms"] =
        Phase.Attempted ? L.QueueMsSum / Phase.Attempted : 0.0;
    if (WithSpans) {
      double Untraced = Run.TimedSeconds / Run.Attempted;
      double Mine = Phase.TimedSeconds / Phase.Attempted;
      Phase.Layer["trace.overhead_pct"] = 100.0 * (Mine / Untraced - 1.0);
      Phase.Layer["service.mean_latency_ms"] =
          Phase.Rounds.SumMs / Phase.Rounds.Samples;
    }
    Phase.PeakRssMb = peakRssMb();
    Phase.SetupSeconds = Run.SetupSeconds;
    Phase.Layer.insert(Run.Layer.begin(), Run.Layer.end());
    Run = std::move(Phase);
  }
}

ServiceOptions strictService(int Workers) {
  ServiceOptions SO;
  SO.NumWorkers = Workers;
  SO.Verify = VerifyMode::Strict;
  return SO;
}

void addServiceCounters(std::map<std::string, double> &Layer,
                        const ServiceStats &S, const CacheStats &C,
                        double ProfileKeys) {
  Layer["service.result_cache_hits"] += C.Hits;
  Layer["service.result_cache_misses"] += C.Misses;
  Layer["service.result_cache_evictions"] += C.Evictions;
  Layer["service.profile_collections"] += S.ProfileCacheMisses;
  Layer["service.profile_keys"] += ProfileKeys;
}

/// Distinct (program, input, levels) profile keys \p L needs.
double profileKeys(const std::vector<BenchRequest> &L) {
  std::set<ProgramKey> Keys;
  for (const BenchRequest &B : L)
    for (const ProgramKey &Key : programKeys(B.Job))
      Keys.insert(Key);
  return static_cast<double>(Keys.size());
}

} // namespace

RunRecord runColdCompile(const Options &O) {
  RunRecord Run;
  Run.List = coldCompileList(O.Seed);
  ServiceOptions SO = strictService(1);

  // Set-up: one untimed compile per program at the 3-mode table, one at
  // a time, so process-wide one-time work is paid here.
  struct Warmed {};
  std::vector<BenchRequest> Warm = coldCompileWarmups();
  repeatSetup<Warmed>(Run, [&] {
    PassDispenser D(Warm.size(), 0.0, 0);
    closedLoop(D, 1, [&](size_t I, long) {
      SchedulerService S(SO);
      S.submit(Warm[I].Job).get();
    });
    return std::make_unique<Warmed>();
  });

  std::mutex CountMu;
  std::map<std::string, double> Counters;
  timedPhases(Run, O, 2, [&](size_t I) {
    // A fresh service per job, start-up and teardown included: what a
    // one-shot compile pays.
    SchedulerService S(SO);
    JobResult R = S.submit(Run.List[I].Job).get();
    std::lock_guard<std::mutex> Lock(CountMu);
    addServiceCounters(Counters, S.stats(), S.cacheStats(),
                       profileKeys({Run.List[I]}));
    return R;
  });
  Run.Layer.insert(Counters.begin(), Counters.end());
  return Run;
}

RunRecord runDeadlineSweep(const Options &O) {
  RunRecord Run;
  Run.List = deadlineSweepList(O.Seed);
  ServiceOptions SO = strictService(2);
  // Far below one pass, so repeated passes still miss: every job solves.
  SO.CacheCapacity = 8;
  SO.CacheShards = 8;

  std::vector<BenchRequest> Fill = profileFillList();
  std::unique_ptr<SchedulerService> S =
      repeatSetup<SchedulerService>(Run, [&] {
        auto Svc = std::make_unique<SchedulerService>(SO);
        std::vector<std::future<JobResult>> Futures;
        for (const BenchRequest &B : Fill)
          Futures.push_back(Svc->submit(B.Job));
        for (auto &F : Futures)
          if (F.get().Status == JobStatus::Rejected)
            throw std::runtime_error("profile fill rejected");
        return Svc;
      });

  CacheStats Before = S->cacheStats();
  std::atomic<long> Hits{0};
  timedPhases(Run, O, 2, [&](size_t I) {
    JobResult R = S->submit(Run.List[I].Job).get();
    if (R.CacheHit || R.SharedFlight)
      ++Hits;
    return R;
  });
  Run.CacheSurprises = Hits;
  CacheStats After = S->cacheStats();
  CacheStats Delta;
  Delta.Hits = After.Hits - Before.Hits;
  Delta.Misses = After.Misses - Before.Misses;
  Delta.Evictions = After.Evictions - Before.Evictions;
  addServiceCounters(Run.Layer, S->stats(), Delta,
                     profileKeys(profileFillList()));
  return Run;
}

namespace {

/// The routed_warm serving stack: one backend server and the router in
/// front of it, both in this process.
struct RoutedStack {
  std::unique_ptr<net::Server> Backend;
  std::unique_ptr<cluster::Router> Router;
  ~RoutedStack() {
    if (Router)
      Router->stop();
    if (Backend)
      Backend->stop();
  }
};

/// One client-side connection of the closed loop.
struct Conn {
  net::Client C;
  struct Sent {
    size_t Index;
    long Seq;
    Clock::time_point At;
  };
  std::map<uint64_t, Sent> InFlight;
};

net::Client connectTo(uint16_t Port) {
  ErrorOr<net::Client> C = net::Client::connect("127.0.0.1", Port);
  if (!C)
    throw std::runtime_error("connect: " + C.message());
  return std::move(*C);
}

/// The raw `"key":"..."` value of \p Key in a response payload.
std::string_view rawField(std::string_view Payload, std::string_view Key) {
  std::string Pat = "\"" + std::string(Key) + "\":\"";
  size_t A = Payload.find(Pat);
  if (A == std::string_view::npos)
    return {};
  A += Pat.size();
  size_t B = A;
  while (B < Payload.size() && Payload[B] != '"')
    B += Payload[B] == '\\' ? 2 : 1;
  return Payload.substr(A, B - A);
}

/// Sends the list through \p Conns as a closed loop with kWindow requests
/// in flight per connection, on this thread. \p OnAnswer sees every
/// response frame with its list index and round-trip time.
void pipelinedLoop(std::vector<Conn> &Conns, const std::vector<BenchRequest> &L,
                   PassDispenser &D, int Window,
                   const std::function<void(size_t, long, const net::Frame &,
                                            Clock::time_point,
                                            Clock::time_point)> &OnAnswer) {
  auto sendNext = [&](Conn &C) {
    size_t I;
    long Seq;
    if (!D.next(I, Seq))
      return;
    auto Now = Clock::now();
    ErrorOr<uint64_t> Corr = C.C.sendRequest(L[I].Job);
    if (!Corr)
      throw std::runtime_error("send: " + Corr.message());
    C.InFlight[*Corr] = {I, Seq, Now};
  };
  D.start();
  for (Conn &C : Conns)
    for (int W = 0; W < Window; ++W)
      sendNext(C);
  for (;;) {
    std::vector<pollfd> Fds;
    std::vector<Conn *> Owners;
    for (Conn &C : Conns)
      if (!C.InFlight.empty()) {
        Fds.push_back({C.C.fd(), POLLIN, 0});
        Owners.push_back(&C);
      }
    if (Fds.empty())
      return;
    int N = ::poll(Fds.data(), Fds.size(), 60'000);
    if (N <= 0)
      throw std::runtime_error("no answer within 60 s");
    for (size_t K = 0; K < Fds.size(); ++K) {
      if (!Fds[K].revents)
        continue;
      Conn &C = *Owners[K];
      for (;;) {
        ErrorOr<net::Frame> F = C.C.readFrame(0);
        if (!F) {
          if (F.message().find("timed out") != std::string::npos)
            break;
          throw std::runtime_error("read: " + F.message());
        }
        auto End = Clock::now();
        auto It = C.InFlight.find(F->Correlation);
        if (It == C.InFlight.end())
          throw std::runtime_error("answer to an unknown request");
        Conn::Sent S = It->second;
        C.InFlight.erase(It);
        OnAnswer(S.Index, S.Seq, *F, S.At, End);
        sendNext(C);
      }
    }
  }
}

/// Round trips of one request at a time through \p Port over the hot
/// list; \returns the median in ms.
double medianRtt(uint16_t Port, const std::vector<BenchRequest> &L,
                 long Count) {
  std::vector<Conn> One(1);
  One[0].C = connectTo(Port);
  std::vector<double> Ms;
  PassDispenser D(L.size(), 0.0, Count);
  pipelinedLoop(One, L, D, 1,
                [&](size_t, long, const net::Frame &, Clock::time_point A,
                    Clock::time_point B) {
                  Ms.push_back(1e3 * secondsBetween(A, B));
                });
  return quantile(Ms, 0.5);
}

} // namespace

RunRecord runRoutedWarm(const Options &O) {
  RunRecord Run;
  Run.List = routedWarmList(O.Seed);
  const size_t N = Run.List.size();

  // Set-up and timed passes on one CPU (see OneCpu); checks run unpinned.
  auto Pin = std::make_unique<OneCpu>();

  std::unique_ptr<RoutedStack> Stack = repeatSetup<RoutedStack>(Run, [&] {
    auto St = std::make_unique<RoutedStack>();
    net::ServerOptions SO;
    SO.Reactors = 1;
    SO.Service = strictService(1);
    SO.Service.CacheCapacity = 1024;
    St->Backend = std::make_unique<net::Server>(SO);
    if (ErrorOr<bool> R = St->Backend->start(); !R)
      throw std::runtime_error("backend: " + R.message());
    cluster::RouterOptions RO;
    RO.Backends = {"127.0.0.1:" + std::to_string(St->Backend->port())};
    St->Router = std::make_unique<cluster::Router>(RO);
    if (ErrorOr<bool> R = St->Router->start(); !R)
      throw std::runtime_error("router: " + R.message());
    // Fill the cache with the hot set through the router.
    std::vector<Conn> Conns(2);
    for (Conn &C : Conns)
      C.C = connectTo(St->Router->port());
    PassDispenser D(N, 0.0, static_cast<long>(N));
    pipelinedLoop(Conns, Run.List, D, kWindow,
                  [](size_t, long, const net::Frame &, Clock::time_point,
                     Clock::time_point) {});
    return St;
  });

  // Raw schedule bytes of each index's first answer; later passes must
  // repeat them exactly.
  std::vector<std::string> FirstRaw(N);
  std::vector<bool> Seen(N, false);
  for (bool WithSpans : {false, true}) {
    if (WithSpans && !O.Trace)
      break;
    RunRecord Phase;
    Phase.List = Run.List;
    Phase.Answers.resize(N);
    Phase.HaveAnswer.assign(N, false);
    double QueueMsSum = 0.0;
    std::vector<Conn> Conns(2);
    for (Conn &C : Conns)
      C.C = connectTo(Stack->Router->port());
    PassDispenser D(N, O.Seconds, kMinJobs);
    Phase.Rounds = RoundLog(D.roundJobs());
    auto T0 = Clock::now();
    pipelinedLoop(
        Conns, Run.List, D, kWindow,
        [&](size_t I, long Seq, const net::Frame &F, Clock::time_point A,
            Clock::time_point B) {
          ++Phase.Attempted;
          bool Answer = F.Type == net::FrameType::Response ||
                        F.Type == net::FrameType::GraphResponse;
          bool Done = Answer && F.Payload.find("\"status\":\"done\"") !=
                                    std::string::npos;
          Phase.Rounds.add(Seq, 1e3 * secondsBetween(A, B), Done, A, B);
          if (!Done) {
            ++Phase.Failed;
            if (Phase.UnexpectedFailures++ == 0)
              Phase.FirstUnexpected = Run.List[I].Label + ": " + F.Payload;
            return;
          }
          if (F.Payload.find("\"cache_hit\":true") == std::string::npos)
            ++Phase.CacheSurprises;
          std::string_view Raw = rawField(F.Payload, "schedule");
          if (!Seen[I]) {
            Seen[I] = true;
            FirstRaw[I] = std::string(Raw);
          } else if (Raw != FirstRaw[I]) {
            ++Phase.Inconsistent;
          }
          if (!Phase.HaveAnswer[I]) {
            ErrorOr<JobResult> R = jobResultFromJsonText(F.Payload);
            if (!R)
              throw std::runtime_error("bad response: " + R.message());
            Phase.recordAnswer(I, *R);
          }
          if (WithSpans) {
            size_t Q = F.Payload.find("\"queue_ms\":");
            if (Q != std::string::npos)
              QueueMsSum += std::strtod(F.Payload.c_str() + Q + 11, nullptr);
            Phase.Spans.push_back({Run.List[I].Label,
                                   1e6 * secondsBetween(T0, A),
                                   1e6 * secondsBetween(A, B), NextSpanId++,
                                   0});
          }
        });
    Phase.TimedSeconds = secondsBetween(T0, Clock::now());
    Phase.Passes = Phase.Attempted / static_cast<long>(N);
    Phase.PeakRssMb = peakRssMb();
    Phase.SetupSeconds = Run.SetupSeconds;
    if (WithSpans) {
      Phase.Layer["service.queue_ms"] = QueueMsSum / Phase.Attempted;
      Phase.Layer["trace.overhead_pct"] =
          100.0 * ((Phase.TimedSeconds / Phase.Attempted) /
                       (Run.TimedSeconds / Run.Attempted) -
                   1.0);
      Phase.Layer["service.mean_latency_ms"] =
          Phase.Rounds.SumMs / Phase.Rounds.Samples;
    }
    Run = std::move(Phase);
  }

  if (O.Trace) {
    // Direct (client -> backend) against routed round trips, one request
    // in flight, over the same warm hot set.
    double Direct = medianRtt(Stack->Backend->port(), Run.List, 2000);
    double Routed = medianRtt(Stack->Router->port(), Run.List, 2000);
    Run.Layer["net.rtt_direct_ms"] = Direct;
    Run.Layer["cluster.hop_ms"] = Routed - Direct;
  }
  SchedulerService &Svc = Stack->Backend->service();
  addServiceCounters(Run.Layer, Svc.stats(), Svc.cacheStats(),
                     profileKeys(Run.List));
  Stack.reset();
  Pin.reset();

  // The routed answers must be byte-identical to an in-process service's.
  ServiceOptions Local = strictService(4);
  Local.CacheCapacity = 1024;
  SchedulerService Ref(Local);
  std::vector<std::future<JobResult>> Futures;
  for (const BenchRequest &B : Run.List)
    Futures.push_back(Ref.submit(B.Job));
  for (size_t I = 0; I < N; ++I) {
    JobResult R = Futures[I].get();
    if (!Run.HaveAnswer[I] || R.Status != Run.Answers[I].Status ||
        R.ScheduleText != Run.Answers[I].ScheduleText ||
        R.Fingerprint != Run.Answers[I].Fingerprint)
      ++Run.Inconsistent;
  }
  return Run;
}

} // namespace e2e
