//===- e2ebench/Requests.cpp - Seeded request lists -----------------------===//

#include "Requests.h"

#include "taskgraph/Generator.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <stdexcept>

namespace e2e {

namespace {

/// Shortest text that reads back as the same double.
std::string shortest(double V) {
  char Buf[32];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

const std::vector<std::string> &mpegInputs() {
  static const std::vector<std::string> In = {"100b", "bbc", "flwr", "cact"};
  return In;
}

/// Labels of the deadline_sweep set on which the program fails under
/// --verify=strict or gives an answer the checks reject (README.md,
/// "Known faults", gives each cause). The set is fixed, so these are the
/// same requests in every run.
const std::set<std::string> &knownFaults() {
  static const std::set<std::string> Labels = {
      // The named presolve-objective fault.
      "adpcm/L7/t=0.255",
      "ghostscript/L7/t=0.8674999999999999",
  };
  return Labels;
}

std::string variantName(const std::string &Workload, int Levels,
                        size_t NumInputs) {
  std::string V = Workload;
  if (NumInputs > 0)
    V += "+" + std::to_string(NumInputs);
  return V + "/L" + std::to_string(Levels);
}

/// The cold_compile variants: programs x level counts, then mpeg_decode
/// over all four inputs at 7 levels.
std::vector<std::pair<std::vector<std::string>, std::pair<std::string, int>>>
variants() {
  std::vector<std::pair<std::vector<std::string>, std::pair<std::string, int>>>
      V;
  for (const std::string &P : programs())
    for (int L : levelCounts())
      V.push_back({{}, {P, L}});
  V.push_back({mpegInputs(), {"mpeg_decode", 7}});
  return V;
}

/// \p Count grid points k/Denom, one from each of \p Count equal strata
/// of k in [Lo, Hi]. Stratifying keeps the mix of tight and lax deadlines
/// the same for every draw.
std::vector<double> drawTightness(Rng &R, int Lo, int Hi, int Denom,
                                  int Count) {
  std::vector<double> Out;
  int Width = (Hi - Lo + 1) / Count;
  for (int S = 0; S < Count; ++S)
    Out.push_back(static_cast<double>(Lo + S * Width + R.below(Width)) /
                  Denom);
  return Out;
}

/// The deadline_sweep instance set is the same for every seed (drawn
/// once with this fixed seed); the run's seed only orders it. The MILP's
/// cost is heavy-tailed over deadlines (median 0.5 ms, 1% above 11 ms),
/// so seeded sets would make jobs_per_s measure the draw, not the code.
constexpr uint64_t kSweepSetSeed = 0x5eedde4d11e5ULL;

} // namespace

const std::vector<std::string> &programs() {
  static const std::vector<std::string> P = {
      "adpcm", "epic", "gsm", "mpeg_decode", "mpg123", "ghostscript"};
  return P;
}

const std::vector<int> &levelCounts() {
  static const std::vector<int> L = {0, 7, 13};
  return L;
}

const std::vector<std::string> &earlyGraphs() {
  static const std::vector<std::string> G = {
      "pair2-early", "chain4-early", "diamond4-early", "forkjoin6-mixed",
      "wide8-layers"};
  return G;
}

BenchRequest singleRequest(const std::string &Workload, int Levels, double T,
                           const std::vector<std::string> &Inputs) {
  BenchRequest B;
  B.Job.Workload = Workload;
  B.Job.NumLevels = Levels;
  B.Job.DeadlineTightness = T;
  for (const std::string &In : Inputs)
    B.Job.Categories.push_back({In, 1.0});
  B.Variant = variantName(Workload, Levels, Inputs.size());
  B.Label = B.Variant + "/t=" + shortest(T);
  B.Job.Id = B.Label;
  return B;
}

BenchRequest graphRequest(const std::string &Graph, int Levels, double T) {
  cdvs::ErrorOr<cdvs::taskgraph::TaskGraph> G =
      cdvs::taskgraph::cannedTaskGraph(Graph);
  if (!G)
    throw std::runtime_error("unknown canned graph " + Graph);
  G->DeadlineTightness = T;
  BenchRequest B;
  B.Job.NumLevels = Levels;
  B.Job.Graph =
      std::make_shared<const cdvs::taskgraph::TaskGraph>(std::move(*G));
  B.Label = "graph:" + Graph + "/L" + std::to_string(Levels) + "/t=" +
            shortest(T);
  B.Job.Id = B.Label;
  return B;
}

std::vector<BenchRequest> coldCompileList(uint64_t Seed) {
  std::vector<BenchRequest> L;
  for (const auto &[Inputs, PL] : variants())
    L.push_back(singleRequest(PL.first, PL.second, 0.5, Inputs));
  Rng R(Seed);
  R.shuffle(L);
  return L;
}

std::vector<BenchRequest> coldCompileWarmups() {
  std::vector<BenchRequest> L;
  for (const std::string &P : programs())
    L.push_back(singleRequest(P, 0, 0.5));
  return L;
}

std::vector<BenchRequest> deadlineSweepList(uint64_t Seed) {
  Rng R(kSweepSetSeed);
  std::vector<BenchRequest> L;
  for (const auto &[Inputs, PL] : variants())
    for (double T : drawTightness(R, 20, 979, 1000, 12))
      L.push_back(singleRequest(PL.first, PL.second, T, Inputs));
  for (const std::string &G : earlyGraphs())
    for (int Lv : levelCounts())
      for (double T : drawTightness(R, 5, 94, 100, 3))
        L.push_back(graphRequest(G, Lv, T));
  // The named presolve-objective fault: same schedule bytes as with
  // presolve off, wrong claimed objective, so strict verify fails them.
  L.push_back(singleRequest("adpcm", 7, 0.255));
  L.push_back(singleRequest("ghostscript", 7, 0.8674999999999999));
  for (BenchRequest &B : L)
    B.KnownFault = knownFaults().count(B.Label) != 0;
  Rng Order(Seed);
  Order.shuffle(L);
  return L;
}

std::vector<BenchRequest> profileFillList() {
  std::vector<BenchRequest> L;
  for (const auto &[Inputs, PL] : variants())
    L.push_back(singleRequest(PL.first, PL.second, 1.0, Inputs));
  return L;
}

std::vector<BenchRequest> routedWarmList(uint64_t Seed) {
  Rng R(Seed ^ 0x40e7ed3a4dULL);
  std::vector<BenchRequest> L;
  for (const std::string &P : programs())
    for (double T : drawTightness(R, 20, 979, 1000, 6))
      L.push_back(singleRequest(P, 0, T));
  for (const std::string &G : earlyGraphs())
    for (double T : drawTightness(R, 5, 94, 100, 2))
      L.push_back(graphRequest(G, 0, T));
  R.shuffle(L);
  return L;
}

} // namespace e2e
