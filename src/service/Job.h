//===- service/Job.h - DVS scheduling job requests and results --*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response vocabulary of the scheduling service. A
/// JobRequest names a workload (plus optional input categories) and a
/// deadline — either absolute seconds or a tightness fraction of the
/// profile's single-mode time range — along with the processor and
/// regulator configuration. A JobResult carries the serialized schedule
/// (dvs/ScheduleIO format), the instance fingerprint it is cached under,
/// cache/single-flight provenance, and per-stage latency.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SERVICE_JOB_H
#define CDVS_SERVICE_JOB_H

#include "milp/MilpSolver.h"
#include "taskgraph/TaskGraph.h"

#include <memory>
#include <string>
#include <vector>

namespace cdvs {

/// One input category of a job: a named workload input plus its
/// occurrence probability (the paper's Section 4.3 weights).
struct JobCategory {
  std::string Input;
  double Weight = 1.0;
};

/// A batch DVS-scheduling request.
struct JobRequest {
  /// Caller-chosen identifier, echoed in the result.
  std::string Id;
  /// Workload name from workloads/Workloads.h (e.g. "gsm").
  std::string Workload;
  /// Input categories; empty means the workload's default input with
  /// weight 1. Weights are normalized to probabilities by the service.
  std::vector<JobCategory> Categories;

  /// Absolute deadline in seconds; a value > 0 wins over the tightness.
  double DeadlineSeconds = 0.0;
  /// Relative deadline when DeadlineSeconds <= 0: 0 is the fastest
  /// single-mode time (stringent), 1 the slowest (lax), resolved per
  /// category as Tfast + t * (Tslow - Tfast) on that category's profile.
  double DeadlineTightness = 0.5;

  /// Section 5.2 edge-filter threshold (0 disables filtering).
  double FilterThreshold = 0.02;
  /// Pre-launch mode index; -1 means the fastest level.
  int InitialMode = -1;
  /// Voltage levels: 0 selects the paper's XScale-like 3-mode table,
  /// otherwise evenVoltageLevels(NumLevels) over the paper's 0.7-1.65 V
  /// range with the alpha-power-law V/f curve.
  int NumLevels = 0;
  /// Regulator capacitance in farads (efficiency 0.9 and Imax 1 A are
  /// fixed, as in the paper's typical configuration).
  double CapacitanceF = 10e-6;

  /// Task-graph payload. Non-null turns this request into a graph job:
  /// Workload/Categories/FilterThreshold/InitialMode are ignored and the
  /// graph's own deadline knobs replace DeadlineSeconds/Tightness, while
  /// NumLevels/CapacitanceF still pick the shared mode table. Carried by
  /// GraphRequest wire frames and keyed separately on the cluster ring.
  std::shared_ptr<const taskgraph::TaskGraph> Graph;
  /// Online slack reclamation on/off for graph jobs (off = execute the
  /// static plan; the bench pairing's baseline rows).
  bool GraphReplan = true;

  /// Distributed trace context, stamped by the wire layer when the
  /// carrying frame had one. Deliberately NOT part of the request's
  /// identity: it never enters requestKey/fingerprints and is never
  /// serialized with the request. An all-zero trace id means untraced.
  uint64_t TraceHi = 0;
  uint64_t TraceLo = 0;
  uint64_t TraceParentSpan = 0;
  bool TraceSampled = false;
};

/// Terminal state of a job.
enum class JobStatus {
  Done,       ///< Schedule produced (possibly from cache).
  Rejected,   ///< Refused at admission (backpressure or shutdown).
  Infeasible, ///< No schedule meets the deadline.
  Failed,     ///< Malformed request (unknown workload/input, bad knobs).
};

/// \returns a printable lower-case name for a JobStatus.
const char *jobStatusName(JobStatus Status);

/// The service's answer to one JobRequest.
struct JobResult {
  std::string Id;
  JobStatus Status = JobStatus::Failed;
  /// Rejection/failure/infeasibility explanation; empty on Done.
  std::string Reason;

  /// Content address of the solved instance (milp/Fingerprint.h).
  std::string Fingerprint;
  /// True when the schedule came from the result cache.
  bool CacheHit = false;
  /// True when this request waited on another in-flight identical solve
  /// (single-flight collapse) instead of solving itself.
  bool SharedFlight = false;

  /// The schedule in dvs/ScheduleIO `cdvs-schedule v1` text form.
  std::string ScheduleText;
  double PredictedEnergyJoules = 0.0;
  /// Deadline-free analytic lower bound on any schedule's energy (every
  /// block at its cheapest mode, transitions free).
  double LowerBoundJoules = 0.0;
  /// Resolved absolute deadline (first category's, for reporting).
  double DeadlineSeconds = 0.0;
  MilpStatus Milp = MilpStatus::Limit;

  /// Post-solve verification: error-severity diagnostic count, or -1
  /// when verification was off / did not run for this instance.
  int VerifyErrors = -1;
  /// First verify error (rendered line) when VerifyErrors > 0.
  std::string VerifyDetail;

  /// "host:port" of the backend that served this result; stamped by
  /// dvs-router on the way back to the client (empty in single-node
  /// deployments). Loadgen's per-backend latency breakdown keys on it.
  std::string Backend;

  /// Graph-job extension; Replans == -1 marks a single-program result
  /// (the fields below are then absent from every serialization, which
  /// keeps single-program JSON byte-identical to before graphs existed).
  int Replans = -1;
  int ReplansAccepted = 0;
  /// Profiled energy of the static (no-reclamation) plan.
  double StaticEnergyJoules = 0.0;
  /// Factor-scaled energy actually spent by the executed timeline.
  double ActualEnergyJoules = 0.0;
  double MakespanSeconds = 0.0; ///< actual makespan of the executed plan

  double QueueSeconds = 0.0;   ///< admission to worker pickup
  /// Profiling stage: collection time, or time spent waiting for a
  /// concurrent job's collection of the same profile (0 when the
  /// profile was already cached).
  double ProfileSeconds = 0.0;
  double BoundSeconds = 0.0;   ///< deadline resolution + energy lower bound
  double SolveSeconds = 0.0;   ///< MILP stage of the original solve
  double SerializeSeconds = 0.0; ///< schedule text emission (original solve)
  double VerifySeconds = 0.0;  ///< verify stage (original solve)
  double TotalSeconds = 0.0;   ///< admission to completion
  /// Global pickup order (0-based); exposes the deadline-aware priority
  /// queue's decisions to tests and the CLI. -1 when never dequeued.
  long DequeueSeq = -1;
};

} // namespace cdvs

#endif // CDVS_SERVICE_JOB_H
