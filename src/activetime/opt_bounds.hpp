// Decision procedures for the LP's ceiling constraints (7)/(8):
// "OPT_i >= 2" and "OPT_i >= 3", where OPT_i is the minimum number of
// open slots needed to schedule all jobs of Des(i) (inside K(i)).
//
// The paper notes both checks "can be done easily"; concretely:
//  * OPT_i <= 1 iff all jobs under i are unit, there are at most g of
//    them, and the job-bearing nodes form a chain (so all windows share
//    the innermost interval, where the single slot goes);
//  * OPT_i <= 2 is decided by enumerating placements of two slots over
//    the exclusive regions of Des(i) — slots within one region are
//    interchangeable — and testing each with the region flow oracle.
#pragma once

#include <vector>

#include "activetime/tree.hpp"

namespace nat::at {

bool opt_le_1(const LaminarForest& forest, int node);
bool opt_le_2(const LaminarForest& forest, int node);

/// Lower bound on OPT_i implied by the two tests: 1, 2, or 3.
/// (Every subtree holds at least one job, so OPT_i >= 1 always.)
int opt_lower_bound(const LaminarForest& forest, int node);

/// opt_lower_bound for every node, in node order. The sweep is serial:
/// the per-node bound is microseconds on the window groups the solver
/// builds one LP for, so fanning it out costs more than it saves.
std::vector<int> ceiling_lower_bounds(const LaminarForest& forest);

}  // namespace nat::at
