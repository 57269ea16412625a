// The one solver-options struct. Every entry point takes it:
// solve_nested, solve_general, solve_window_group, solve_active_time,
// solve_robust, SolverSession, and the service layers (BatchOptions,
// SessionManager, the daemon), so one value configures every surface.
#pragma once

#include "activetime/lp_relaxation.hpp"
#include "util/cancel.hpp"
#include "verify/verify.hpp"

namespace nat::at {

struct ActiveTimeOptions {
  // Strengthened-LP flags of the laminar 9/5 pipeline. Crossing groups
  // always solve the natural time-indexed LP, the relaxation their 2·LP
  // budget is stated against.
  StrongLpOptions lp;
  // Ablation (laminar groups): skip the Lemma 3.1 transform and
  // Algorithm 1, rounding every region up instead (valid but without
  // the 9/5 guarantee).
  bool naive_rounding = false;
  // Engineering addition (laminar groups, not in the paper): after
  // rounding, close opened region slots while the flow oracle stays
  // feasible. Only ever removes slots, so the 9/5 guarantee is
  // preserved; off by default so the default pipeline is the paper's
  // algorithm verbatim. Crossing groups always trim.
  bool trim_rounded = false;
  // Exact-arithmetic self-check level of every stage (verify/verify.hpp).
  // kDefault resolves via NAT_VERIFY, else full in Debug builds and off
  // in Release — the Release hot path pays nothing.
  verify::VerifyLevel verify_level = verify::VerifyLevel::kDefault;
  // Cooperative cancellation/deadline (util/cancel.hpp): polled at
  // every simplex pivot, oracle query, repair step, and trim step, so
  // a fired token aborts the solve with CancelledError at the next
  // poll. The caller owns the token; nullptr disables polling.
  const util::CancelToken* cancel = nullptr;
};

}  // namespace nat::at
