//===- e2ebench/Requests.h - Seeded request lists -------------------------===//
//
// Every workload runs whole passes over a list made here from the seed
// alone; see README.md for the make-up of each list.
//
//===----------------------------------------------------------------------===//

#ifndef CDVS_E2EBENCH_REQUESTS_H
#define CDVS_E2EBENCH_REQUESTS_H

#include "Bench.h"

namespace e2e {

/// The six bundled programs, in the paper's order.
const std::vector<std::string> &programs();
/// Level counts of the request lists: 0 is the XScale 3-mode table.
const std::vector<int> &levelCounts();
/// The early-finish canned task graphs (chain4-late overruns by design).
const std::vector<std::string> &earlyGraphs();

/// A single-program request at tightness \p T; \p Inputs empty selects
/// the default input.
BenchRequest singleRequest(const std::string &Workload, int Levels, double T,
                           const std::vector<std::string> &Inputs = {});
/// A canned-graph request at tightness \p T.
BenchRequest graphRequest(const std::string &Graph, int Levels, double T);

/// cold_compile: every program x {3, 7, 13 levels} at tightness 0.5, plus
/// mpeg_decode over its four inputs at 7 levels; seeded order.
std::vector<BenchRequest> coldCompileList(uint64_t Seed);
/// The untimed set-up of cold_compile: each program at the 3-mode table.
std::vector<BenchRequest> coldCompileWarmups();

/// deadline_sweep: a fixed stratified set of distinct deadlines over the
/// cold_compile variants and the early graphs, plus the two named-fault
/// requests, in seeded order. Requests with a known fault are marked.
std::vector<BenchRequest> deadlineSweepList(uint64_t Seed);
/// One lax request per cold_compile variant: fills the profile cache.
std::vector<BenchRequest> profileFillList();

/// routed_warm: the seeded stratified hot set (3-mode programs and early
/// graphs), in seeded order.
std::vector<BenchRequest> routedWarmList(uint64_t Seed);

} // namespace e2e

#endif // CDVS_E2EBENCH_REQUESTS_H
