// Differential fuzz harness for the 9/5 pipeline and the general
// (non-laminar) 2-approx backend.
//
// The laminar family generates random laminar instances (rotating over
// the generator families, deterministic per seed), runs the double
// pipeline with the full exact-arithmetic verify layer enabled, and
// asserts the sandwich
//
//   LP <= OPT <= ALG <= ceil((9/5) * OPT)
//
// against the branch-and-bound OPT oracle; small instances are also
// cross-checked against the all-Rational exact pipeline. The general
// family (run_general_fuzz) mixes crossing-window instances (including
// the Saha–Purohit-style hard chain) with laminar ones, routes them
// through the per-group dispatcher, and asserts
//
//   LP <= OPT <= ALG <= 2 * LP  (rationally certified)
//
// against the slot-subset brute-force oracle, plus bit-identity with
// per-group solve_nested on the laminar draws. Every violation is classified by a
// stable failure key, greedily delta-debugged down to a minimal
// instance that still fails the same way, and (optionally) written to
// corpus/regressions/ as a self-contained `activetime v1` repro file.
//
// Used by bench/fuzz_differential (CLI) and tests/test_verify (smoke +
// fault-injection coverage).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/session.hpp"

namespace nat::verify::fuzz {

struct FuzzOptions {
  int instances = 500;
  std::uint64_t seed = 1;
  int max_jobs = 40;
  // Stop early after this many seconds (0 = no time limit). The run
  // stays deterministic in what it *checks*; the limit only truncates.
  double time_budget_seconds = 0.0;
  // Directory for minimized repro files; empty = do not write.
  std::string regression_dir;
  // Enables the Algorithm 1 off-by-one fault (rounding.hpp) for the
  // whole run — the self-test that the verify layer catches a real
  // approximation-budget bug. Never set outside tests.
  bool inject_budget_fault = false;
  // Search budget for the branch-and-bound OPT oracle; instances whose
  // oracle run exceeds it skip the OPT legs of the sandwich.
  std::int64_t exact_node_budget = 4'000'000;
  // Instances up to this many jobs are also cross-checked against the
  // all-Rational exact pipeline.
  int exact_pipeline_max_jobs = 10;
};

struct Violation {
  int index = -1;             // fuzz iteration that produced it
  std::string failure_class;  // stable key, e.g. "verify:rounding"
  std::string detail;         // full diagnostic of the original failure
  at::Instance instance;      // minimized repro
  int original_jobs = 0;      // size before minimization
  std::string repro_path;     // written file ("" when not persisted)
};

struct FuzzReport {
  int instances_run = 0;
  std::vector<Violation> violations;
};

/// Runs the pipeline + sandwich on one instance. Returns
/// {failure_class, detail}; both empty when the instance certifies.
std::pair<std::string, std::string> check_instance(
    const at::Instance& instance, const FuzzOptions& options);

/// Greedy delta-debugging: drops jobs, shrinks g and processing times —
/// keeping only changes that preserve `failure_class` — until no single
/// reduction applies.
at::Instance minimize_violation(const at::Instance& instance,
                                const std::string& failure_class,
                                const FuzzOptions& options);

/// The full loop: generate, check, minimize, persist.
FuzzReport run_fuzz(const FuzzOptions& options);

// --------------------------------------------------------------------------
// General-windows family: crossing-window instances through the
// per-group dispatcher (at::solve_active_time) and the LP-rounding
// 2-approx, certified with the rational verify layer.

struct GeneralFuzzOptions {
  int instances = 300;
  std::uint64_t seed = 1;
  int max_jobs = 16;
  double time_budget_seconds = 0.0;
  std::string regression_dir;  // empty = do not write repro files
  // Horizon cap for the slot-subset brute-force OPT oracle; instances
  // with longer horizons skip the OPT legs of the sandwich (the
  // LP <= ALG <= 2*LP legs always run).
  int brute_force_max_horizon = 18;
};

/// Runs the dispatcher + 2-approx sandwich on one instance. Returns
/// {failure_class, detail}; both empty when the instance certifies.
/// Checks, in order: dispatch correctness (laminar -> nested backend,
/// bit-identical to solve_nested run on each window group and
/// concatenated; crossing -> general/greedy), the
/// rational budget ALG <= 2*LP (general:budget), and the OPT sandwich
/// LP <= OPT <= ALG against exact_opt_brute_force when the horizon
/// allows it.
std::pair<std::string, std::string> check_general_instance(
    const at::Instance& instance, const GeneralFuzzOptions& options);

/// Greedy delta-debugging against check_general_instance (same loop as
/// minimize_violation: drop jobs, shrink g and processing times).
at::Instance minimize_general_violation(const at::Instance& instance,
                                        const std::string& failure_class,
                                        const GeneralFuzzOptions& options);

/// The full loop: generate (random_general / hard_crossing / laminar
/// mix), check, minimize, persist. Reuses FuzzReport / Violation.
FuzzReport run_general_fuzz(const GeneralFuzzOptions& options);

// --------------------------------------------------------------------------
// Robust interval-time family (docs/ROBUST.md): instances with
// per-job [p_lo, p_hi] uncertainty boxes through at::solve_robust,
// checking the sandwich LP(p_lo) <= ALG(p) <= robust_hi, corner
// consistency against the brute-force OPT oracle on small horizons, and
// — on every draw — that stripping the boxes reproduces the point
// solver bit-identically (the degenerate-path contract).

struct RobustFuzzOptions {
  int instances = 200;
  std::uint64_t seed = 1;
  int max_jobs = 16;
  double time_budget_seconds = 0.0;
  std::string regression_dir;  // empty = do not write repro files
  // Horizon cap for the brute-force OPT legs on the lo/hi corners;
  // longer-horizon instances keep the LP/ALG sandwich legs only.
  int brute_force_max_horizon = 16;
};

/// Runs solve_robust + the sandwich/corner/degenerate legs on one
/// instance. Returns {failure_class, detail}; both empty when the
/// instance certifies. Point instances exercise the degenerate path
/// (bit-identity with solve_active_time).
std::pair<std::string, std::string> check_robust_instance(
    const at::Instance& instance, const RobustFuzzOptions& options);

/// Greedy delta-debugging against check_robust_instance: drops jobs,
/// shrinks g, narrows and clears uncertainty boxes — keeping only
/// candidates that stay valid and fail with the same class.
at::Instance minimize_robust_violation(const at::Instance& instance,
                                       const std::string& failure_class,
                                       const RobustFuzzOptions& options);

/// The full loop: generate (random_interval laminar/general mix plus
/// point draws), check, minimize, persist. Reuses FuzzReport/Violation;
/// repro files use the "activetime v2" format when boxes survive
/// minimization.
FuzzReport run_robust_fuzz(const RobustFuzzOptions& options);

// --------------------------------------------------------------------------
// Delta-mutation family: random safe delta streams through a persistent
// SolverSession, checking at every step that the incremental result is
// bit-identical to a from-scratch session on the same instance, and at
// the end of the stream that the session's LP value matches the global
// strengthened LP (docs/INCREMENTAL.md, "The determinism contract").

struct DeltaFuzzOptions {
  int streams = 100;
  std::uint64_t seed = 1;
  int steps = 25;     // deltas per stream (proposals, some are skipped)
  int max_jobs = 30;  // base-instance size cap
  double time_budget_seconds = 0.0;
  std::string regression_dir;  // empty = do not persist repros
};

struct DeltaViolation {
  int index = -1;             // stream index that produced it
  std::string failure_class;  // e.g. "session:divergence"
  std::string detail;
  at::Instance base;               // minimized base instance
  std::vector<at::Delta> deltas;   // minimized stream
  int original_steps = 0;          // stream length before minimization
  int original_jobs = 0;           // base size before minimization
  std::string repro_path;          // written file ("" when not persisted)
};

struct DeltaFuzzReport {
  int streams_run = 0;
  std::vector<DeltaViolation> violations;
};

/// Replays `deltas` through one SolverSession over `base`, comparing
/// against fresh sessions. Returns {failure_class, detail}; both empty
/// when every step matches. Streams must be *valid* (each delta applies
/// cleanly in sequence) — use delta_stream_valid to pre-check.
std::pair<std::string, std::string> check_delta_stream(
    const at::Instance& base, const std::vector<at::Delta>& deltas);

/// True iff every delta applies to the evolving instance without
/// violating bounds/nesting/feasibility (plain simulation, no solves).
/// Crossing windows are allowed — the session dispatches those groups
/// to the general backend. The minimizer uses this to keep candidate
/// streams valid while dropping deltas and base jobs.
bool delta_stream_valid(const at::Instance& base,
                        const std::vector<at::Delta>& deltas);

/// Greedy minimization: drops deltas (back to front), then base jobs,
/// then shrinks g — keeping only candidates that stay valid and fail
/// with the same class.
void minimize_delta_violation(DeltaViolation& v);

/// The full loop: generate base + stream, replay, minimize, persist.
/// Repro files are `activetime v1` instances followed by `# delta ...`
/// comment lines (one per delta), so they stay loadable as instances.
DeltaFuzzReport run_delta_fuzz(const DeltaFuzzOptions& options);

}  // namespace nat::verify::fuzz
