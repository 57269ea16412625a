#include "activetime/solver.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "activetime/feasibility.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/oracle.hpp"
#include "activetime/rounding.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace nat::at {

int repair_open_counts(const LaminarForest& forest, FeasibilityOracle& oracle,
                       std::vector<Time>& counts) {
  int repairs = 0;
  std::int64_t budget = 0;  // remaining closed slots; bounds the loop
  for (int i = 0; i < forest.num_nodes(); ++i) {
    budget += forest.node(i).length() - counts[i];
  }
  static obs::Counter& c_skips = obs::counter("at.oracle.cut_skips");
  while (!oracle.feasible(counts)) {
    // Prefer an increment that fixes feasibility outright; otherwise
    // open any closable slot — all-open is feasible, so this makes
    // progress toward a feasible vector. The oracle's min-cut
    // certificate rules most regions out without a probe: an increment
    // that does not grow the certified cut cannot restore feasibility.
    int chosen = -1;
    for (int i = 0; i < forest.num_nodes(); ++i) {
      if (counts[i] >= forest.node(i).length()) continue;
      if (chosen < 0) chosen = i;
      if (!oracle.increment_can_help(i)) {
        c_skips.add(1);
        continue;
      }
      if (oracle.feasible_if_incremented(i)) {
        chosen = i;
        break;
      }
    }
    NAT_CHECK_MSG(chosen >= 0, "repair: no region can be opened further");
    ++counts[chosen];
    ++repairs;
    NAT_CHECK_MSG(repairs <= budget, "repair loop failed to converge");
  }
  return repairs;
}

namespace {

/// Content key per LP variable, stable across models of overlapping
/// instances: a node is identified by its interval, virtual flag, and
/// occurrence rank (canonicalization can create several virtual nodes
/// with the same hull), a class by its node, processing time, and
/// member count. Keys that fail to map between two models simply lose
/// their warm hint — mapping is a performance channel, never a
/// correctness one.
std::vector<std::string> variable_keys(const LaminarForest& forest,
                                       const StrongLp& lp) {
  std::vector<std::string> nd(forest.num_nodes());
  std::unordered_map<std::string, int> seen;
  for (int i = 0; i < forest.num_nodes(); ++i) {
    const TreeNode& n = forest.node(i);
    std::string base = std::to_string(n.interval.lo) + ":" +
                       std::to_string(n.interval.hi) +
                       (n.is_virtual ? ":v" : ":r");
    const int occ = seen[base]++;
    nd[i] = base + ":" + std::to_string(occ);
  }
  std::vector<std::string> keys(
      static_cast<std::size_t>(lp.model.num_variables()));
  for (int i = 0; i < forest.num_nodes(); ++i) {
    keys[static_cast<std::size_t>(lp.x_var[i])] = "x|" + nd[i];
  }
  for (std::size_t c = 0; c < lp.classes.size(); ++c) {
    const JobClass& jc = lp.classes[c];
    const std::string ckey = nd[jc.node] + "|p" +
                             std::to_string(jc.processing) + "|n" +
                             std::to_string(jc.count());
    for (const auto& [node, var] : lp.y_vars[c]) {
      keys[static_cast<std::size_t>(var)] = "y|" + ckey + "|" + nd[node];
    }
  }
  return keys;
}

/// The strong LP solve of the laminar pipeline. Cold one-shot solves
/// use lp::solve_auto; a warm-start channel switches to the
/// canonicalizing sparse simplex, seeded from the hint's basis mapped
/// onto this model's variables by content key.
lp::Solution solve_strong_lp(const LaminarForest& forest, const StrongLp& lp,
                             const lp::SolveOptions& lp_options,
                             GroupWarmStart* warm) {
  if (warm == nullptr) return lp::solve_auto(lp.model, lp_options);
  warm->exported.variable_keys = variable_keys(forest, lp);
  const std::vector<std::string>& keys = warm->exported.variable_keys;
  lp::WarmOptions warm_options;
  warm_options.canonical = true;
  warm_options.export_basis = &warm->exported.basis;
  lp::Basis mapped;
  const WarmBasis* hint = warm->hint;
  if (hint != nullptr && !hint->basis.empty() &&
      hint->variable_keys.size() == hint->basis.variables.size()) {
    std::unordered_map<std::string_view, lp::VarStatus> old_status;
    old_status.reserve(hint->variable_keys.size());
    for (std::size_t v = 0; v < hint->variable_keys.size(); ++v) {
      old_status.emplace(hint->variable_keys[v], hint->basis.variables[v]);
    }
    mapped.variables.assign(keys.size(), lp::VarStatus::kAtLower);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      auto it = old_status.find(keys[v]);
      if (it != old_status.end()) mapped.variables[v] = it->second;
    }
    warm_options.warm = &mapped;
  }
  return lp::solve_sparse_warm(lp.model, lp_options, warm_options,
                               &warm->lp_stats);
}

NestedSolveResult run_nested(const Instance& instance,
                             const ActiveTimeOptions& options,
                             GroupWarmStart* warm) {
  NestedSolveResult result;
  if (instance.jobs.empty()) return result;

  obs::Span span_total("solve_nested");

  LaminarForest forest = [&] {
    obs::Span span("solve_nested/tree_build");
    LaminarForest f = LaminarForest::build(instance);
    f.canonicalize();
    return f;
  }();

  // One incremental oracle serves the precheck, repair, and trim: the
  // network is built once and each query warm-starts from the last.
  FeasibilityOracle oracle(forest);
  oracle.set_cancel(options.cancel);

  // Feasibility of the instance itself (all regions fully open).
  {
    obs::Span span("solve_nested/feasibility_precheck");
    std::vector<Time> full(forest.num_nodes());
    for (int i = 0; i < forest.num_nodes(); ++i) {
      full[i] = forest.node(i).length();
    }
    NAT_CHECK_MSG(oracle.feasible(full), "instance is infeasible");
  }

  StrongLp lp = [&] {
    obs::Span span("solve_nested/lp_build");
    return build_strong_lp(forest, options.lp);
  }();
  lp::Solution lps = [&] {
    obs::Span span("solve_nested/lp_solve");
    lp::SolveOptions lp_options;
    lp_options.cancel = options.cancel;
    return solve_strong_lp(forest, lp, lp_options, warm);
  }();
  NAT_CHECK_MSG(lps.status == lp::Status::kOptimal,
                "strong LP did not solve: " << lp::to_string(lps.status));
  result.lp_value = lps.objective;
  result.lp_iterations = lps.iterations;

  FractionalSolution frac = unpack(lp, lps);

  const verify::VerifyLevel vlevel =
      verify::resolve_level(options.verify_level);
  if (vlevel == verify::VerifyLevel::kFull) {
    obs::Span span("solve_nested/verify_lp");
    verify::require("lp",
                    verify::check_lp_solution(forest, lp, frac,
                                              result.lp_value));
  }

  if (options.naive_rounding) {
    result.x_rounded.resize(forest.num_nodes());
    for (int i = 0; i < forest.num_nodes(); ++i) {
      result.x_rounded[i] =
          std::min<Time>(eps_ceil(frac.x[i]), forest.node(i).length());
    }
    result.x_fractional = frac.x;
  } else {
    std::vector<double> x_before;
    if (vlevel == verify::VerifyLevel::kFull) x_before = frac.x;
    {
      obs::Span span("solve_nested/push_down");
      push_down_transform(forest, lp, frac);
    }
    if (vlevel == verify::VerifyLevel::kFull) {
      obs::Span span("solve_nested/verify_push_down");
      verify::require("push_down",
                      verify::check_push_down(forest, x_before, frac.x));
      // The transform must keep the solution LP-feasible (Lemma 3.1
      // moves volume alongside the opened mass).
      verify::require("lp_transformed",
                      verify::check_lp_solution(forest, lp, frac,
                                                result.lp_value));
    }
    result.x_fractional = frac.x;
    result.topmost = topmost_positive(forest, frac.x);
    {
      obs::Span span("solve_nested/rounding");
      RoundingResult rounded =
          round_solution(forest, frac.x, result.topmost);
      result.x_rounded = std::move(rounded.x_tilde);
    }
    if (vlevel == verify::VerifyLevel::kFull) {
      obs::Span span("solve_nested/verify_rounding");
      verify::require("rounding",
                      verify::check_rounding(forest, frac.x,
                                             result.x_rounded,
                                             result.topmost));
    }
  }

  {
    obs::Span span("solve_nested/repair");
    result.repairs = repair_open_counts(forest, oracle, result.x_rounded);
    static obs::Counter& c_repairs = obs::counter("at.solver.repairs");
    c_repairs.add(result.repairs);
  }

  if (options.trim_rounded) {
    // One pass suffices for minimality: feasibility is monotone in the
    // counts, so a slot that cannot be closed now never becomes
    // closable after further removals.
    obs::Span span("solve_nested/trim");
    for (int i = 0; i < forest.num_nodes(); ++i) {
      while (result.x_rounded[i] > 0) {
        --result.x_rounded[i];
        if (oracle.feasible(result.x_rounded)) continue;
        ++result.x_rounded[i];
        break;
      }
    }
  }

  obs::Span span_extract("solve_nested/extract");
  auto schedule = schedule_with_counts(forest, result.x_rounded);
  NAT_CHECK_MSG(schedule.has_value(), "post-repair extraction failed");
  result.schedule = std::move(*schedule);
  // The canonical forest only ever shrinks job windows, so the
  // schedule is feasible for the original instance too.
  validate_schedule(instance, result.schedule);
  result.active_slots = result.schedule.active_slots();
  if (vlevel != verify::VerifyLevel::kOff) {
    obs::Span span("solve_nested/verify_schedule");
    std::int64_t open_budget = 0;
    for (Time t : result.x_rounded) open_budget += t;
    verify::require("schedule",
                    verify::check_schedule(instance, result.schedule,
                                           result.active_slots,
                                           open_budget));
  }
  return result;
}

}  // namespace

NestedSolveResult solve_nested(const Instance& instance,
                               const ActiveTimeOptions& options) {
  return run_nested(instance, options, nullptr);
}

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kNested: return "nested";
    case Backend::kGeneral: return "general";
    case Backend::kGreedy: return "greedy";
  }
  return "?";
}

std::vector<std::vector<int>> window_groups(const Instance& instance) {
  const int n = static_cast<int>(instance.jobs.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Job& ja = instance.jobs[static_cast<std::size_t>(a)];
    const Job& jb = instance.jobs[static_cast<std::size_t>(b)];
    if (ja.release != jb.release) return ja.release < jb.release;
    if (ja.deadline != jb.deadline) return ja.deadline > jb.deadline;
    return a < b;
  });
  std::vector<std::vector<int>> groups;
  Time hi = 0;
  for (int j : order) {
    const Job& job = instance.jobs[static_cast<std::size_t>(j)];
    if (groups.empty() || job.release >= hi) {
      groups.emplace_back();
      hi = job.deadline;
    }
    groups.back().push_back(j);
    hi = std::max(hi, job.deadline);
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  return groups;
}

Instance group_instance(const Instance& instance,
                        const std::vector<int>& members) {
  Instance group;
  group.g = instance.g;
  group.jobs.reserve(members.size());
  for (int m : members) {
    group.jobs.push_back(instance.jobs[static_cast<std::size_t>(m)]);
  }
  return group;
}

ActiveTimeResult solve_window_group(const Instance& group,
                                    const ActiveTimeOptions& options,
                                    GroupWarmStart* warm) {
  ActiveTimeResult result;
  if (group.is_laminar()) {
    static obs::Counter& c = obs::counter("at.dispatch.nested");
    c.add(1);
    NestedSolveResult sub = run_nested(group, options, warm);
    result.backend = Backend::kNested;
    result.schedule = std::move(sub.schedule);
    result.active_slots = sub.active_slots;
    result.lp_value = sub.lp_value;
    result.repairs = sub.repairs;
    result.lp_iterations = sub.lp_iterations;
    return result;
  }
  // Crossing windows: the time-indexed LP's variables do not map onto
  // the strong LP's, so no basis is exported and a warm channel is
  // left untouched.
  GeneralSolveResult sub = solve_general(group, options);
  if (sub.lp_failed) {
    static obs::Counter& c = obs::counter("at.dispatch.greedy");
    c.add(1);
    result.backend = Backend::kGreedy;
  } else {
    static obs::Counter& c = obs::counter("at.dispatch.general");
    c.add(1);
    result.backend = Backend::kGeneral;
  }
  result.schedule = std::move(sub.schedule);
  result.active_slots = sub.active_slots;
  result.lp_value = sub.lp_value;
  result.repairs = sub.repairs;
  result.lp_iterations = sub.lp_iterations;
  return result;
}

ActiveTimeResult assemble_groups(
    const Instance& instance, const std::vector<std::vector<int>>& groups,
    const std::vector<const ActiveTimeResult*>& parts) {
  NAT_CHECK(groups.size() == parts.size());
  ActiveTimeResult result;
  result.schedule.assignment.resize(instance.jobs.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::vector<int>& members = groups[gi];
    const ActiveTimeResult& part = *parts[gi];
    NAT_CHECK(part.schedule.assignment.size() == members.size());
    for (std::size_t p = 0; p < members.size(); ++p) {
      result.schedule.assignment[static_cast<std::size_t>(members[p])] =
          part.schedule.assignment[p];
    }
    result.lp_value += part.lp_value;
    result.repairs += part.repairs;
    result.lp_iterations += part.lp_iterations;
    // Most-degraded backend wins: greedy > general > nested.
    result.backend = std::max(result.backend, part.backend);
  }
  result.active_slots = result.schedule.active_slots();
  if (!instance.jobs.empty()) validate_schedule(instance, result.schedule);
  return result;
}

ActiveTimeResult solve_active_time(const Instance& instance,
                                   const ActiveTimeOptions& options) {
  const std::vector<std::vector<int>> groups = window_groups(instance);
  std::vector<ActiveTimeResult> solved;
  solved.reserve(groups.size());
  for (const std::vector<int>& members : groups) {
    solved.push_back(
        solve_window_group(group_instance(instance, members), options));
  }
  std::vector<const ActiveTimeResult*> parts;
  parts.reserve(solved.size());
  for (const ActiveTimeResult& r : solved) parts.push_back(&r);
  return assemble_groups(instance, groups, parts);
}

double strong_lp_value(const Instance& instance,
                       const StrongLpOptions& options) {
  if (instance.jobs.empty()) return 0.0;
  LaminarForest forest = LaminarForest::build(instance);
  forest.canonicalize();
  StrongLp lp = build_strong_lp(forest, options);
  lp::Solution lps = lp::solve_auto(lp.model);
  NAT_CHECK_MSG(lps.status == lp::Status::kOptimal,
                "strong LP did not solve: " << lp::to_string(lps.status));
  return lps.objective;
}

}  // namespace nat::at
