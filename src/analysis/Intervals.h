//===- analysis/Intervals.h - Static execution-frequency intervals -*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile-independent bounds on how often each block and edge executes
/// per invocation, derived purely from dominance and loop structure:
///
///  * Min = 1 when every complete entry-to-exit path crosses the block
///    (it post-dominates the entry, or is the entry) or edge (removing
///    it disconnects entry from exit); 0 otherwise.
///  * Max = 0 for statically dead blocks/edges, unbounded inside any
///    nontrivial cycle, 1 everywhere else (an acyclic region executes a
///    block at most once per invocation).
///
/// These intervals bound every flow-conserving profile the simulator
/// can produce, so a profile count outside its interval is evidence of
/// corruption.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_ANALYSIS_INTERVALS_H
#define CDVS_ANALYSIS_INTERVALS_H

#include "analysis/Dominators.h"
#include "analysis/Loops.h"
#include "analysis/Reachability.h"
#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace cdvs {
namespace analysis {

/// Closed interval of per-invocation execution counts.
struct ExecInterval {
  uint64_t Min = 0;
  uint64_t Max = 0;        ///< Meaningful only when !Unbounded.
  bool Unbounded = false;  ///< Max is unbounded (block/edge in a cycle).

  /// \returns true when \p Count is consistent with the interval.
  bool admits(uint64_t Count) const {
    return Count >= Min && (Unbounded || Count <= Max);
  }

  bool mustExecute() const { return Min >= 1; }
  bool cannotExecute() const { return !Unbounded && Max == 0; }
};

/// Per-block and per-edge intervals; Edges is parallel to Fn.edges().
struct FrequencyIntervals {
  std::vector<ExecInterval> Blocks;
  std::vector<ExecInterval> Edges;
};

/// Computes static frequency intervals for \p Fn from previously
/// computed reachability, post-dominance, and loop structure.
FrequencyIntervals computeFrequencyIntervals(const Function &Fn,
                                             const Reachability &Reach,
                                             const DomTree &PostDom,
                                             const LoopForest &Loops);

} // namespace analysis
} // namespace cdvs

#endif // CDVS_ANALYSIS_INTERVALS_H
