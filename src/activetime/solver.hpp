// End-to-end 9/5-approximation for nested active-time scheduling
// (Theorem 4.15): canonicalize → strengthened LP → Lemma 3.1 transform
// → Algorithm 1 rounding → flow-certified schedule extraction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "activetime/general.hpp"
#include "activetime/instance.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/options.hpp"
#include "activetime/schedule.hpp"
#include "activetime/tree.hpp"
#include "lp/sparse_simplex.hpp"

namespace nat::at {

struct NestedSolveResult {
  Schedule schedule;            // feasible for the *original* instance
  std::int64_t active_slots = 0;
  double lp_value = 0.0;        // optimum of the strengthened LP
  std::vector<double> x_fractional;  // transformed LP solution, per node
  std::vector<Time> x_rounded;       // integral open counts, per node
  std::vector<int> topmost;          // the set I
  // Extra region slots opened because floating-point slack made the
  // rounded vector flow-infeasible. Expected (and asserted in tests to
  // be) zero; reported for transparency.
  int repairs = 0;
  std::int64_t lp_iterations = 0;
};

/// Solves a laminar instance as one strengthened LP. NAT_CHECKs
/// laminarity and feasibility (the instance must fit when every slot is
/// open). This is the laminar branch of solve_window_group; called on a
/// multi-group instance it solves all groups in one monolithic LP.
NestedSolveResult solve_nested(const Instance& instance,
                               const ActiveTimeOptions& options = {});

class FeasibilityOracle;

/// Opens additional region slots until `counts` is flow-feasible.
/// Only ever triggered by floating-point slack in the LP; returns the
/// number of increments.
int repair_open_counts(const LaminarForest& forest, FeasibilityOracle& oracle,
                       std::vector<Time>& counts);

/// Value of the strengthened LP alone (lower bound on OPT).
double strong_lp_value(const Instance& instance,
                       const StrongLpOptions& options = {});

/// --- Per-group dispatch --------------------------------------------------

/// Which pipeline actually solved the instance. Every service record
/// (batch cell, session op, daemon response) carries the tag as its
/// `backend` field; for a multi-group instance it is the most-degraded
/// tag across the groups. Enumerators are ordered by degradation.
enum class Backend {
  kNested,   // laminar: the 9/5 pipeline (solve_nested)
  kGeneral,  // non-laminar: the LP-rounding 2-approx (solve_general)
  kGreedy,   // non-laminar, LP failed: greedy deactivation fallback
};

const char* to_string(Backend backend);

struct ActiveTimeResult {
  Backend backend = Backend::kNested;
  Schedule schedule;
  std::int64_t active_slots = 0;
  // Sum over window groups of the group's LP optimum: the strengthened
  // LP on laminar groups, the natural time-indexed LP on crossing ones
  // (0 for a group whose LP failed).
  double lp_value = 0.0;
  int repairs = 0;
  std::int64_t lp_iterations = 0;
};

/// Splits job indices into root window groups: connected components of
/// window overlap, each a maximal union interval. Groups are ordered by
/// window start; members keep ascending index order. Groups share no
/// slot, so the instance's problem is exactly the disjoint union of the
/// groups' problems.
std::vector<std::vector<int>> window_groups(const Instance& instance);

/// The sub-instance of `members` (same g, jobs in member order).
Instance group_instance(const Instance& instance,
                        const std::vector<int>& members);

/// An exported optimal basis of a laminar group's strengthened LP, with
/// a content key per LP variable so it can seed a related model.
struct WarmBasis {
  lp::Basis basis;
  std::vector<std::string> variable_keys;
};

/// Warm-start channel of solve_window_group, used by the incremental
/// session only. Passing one switches the laminar LP to the
/// canonicalizing sparse simplex, which lands on the same vertex with
/// any hint or none, so outputs never depend on the hint.
struct GroupWarmStart {
  const WarmBasis* hint = nullptr;  // in: previous basis; nullptr = cold
  WarmBasis exported;               // out: laminar groups only
  lp::SparseStats lp_stats;         // out: warm-start ladder counts
};

/// The one place a window group is solved: laminar groups run the 9/5
/// pipeline (solve_nested's stages, spans and verify level), crossing
/// groups run solve_general. Without `warm` the laminar LP goes through
/// lp::solve_auto, exactly as solve_nested does.
ActiveTimeResult solve_window_group(const Instance& group,
                                    const ActiveTimeOptions& options,
                                    GroupWarmStart* warm = nullptr);

/// Concatenates per-group results into one result for `instance`:
/// maps each group's schedule rows back to job positions, sums lp_value,
/// repairs and LP iterations, keeps the most-degraded backend, and
/// validates the assembled schedule. `parts[i]` solves `groups[i]`.
ActiveTimeResult assemble_groups(
    const Instance& instance, const std::vector<std::vector<int>>& groups,
    const std::vector<const ActiveTimeResult*>& parts);

/// Front-end: window_groups + solve_window_group per group +
/// assemble_groups. On a laminar single-group instance it is
/// bit-identical to solve_nested; at.dispatch.* counters count groups
/// per backend.
ActiveTimeResult solve_active_time(const Instance& instance,
                                   const ActiveTimeOptions& options = {});

}  // namespace nat::at
