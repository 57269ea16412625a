#include "verify/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "activetime/exact_pipeline.hpp"
#include "activetime/feasibility.hpp"
#include "activetime/robust.hpp"
#include "activetime/rounding.hpp"
#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "instances/generators.hpp"
#include "io/serialize.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace nat::verify::fuzz {

namespace {

/// Restores the fault-injection flag even when a check throws.
class FaultScope {
 public:
  explicit FaultScope(bool on) { at::set_rounding_budget_fault(on); }
  ~FaultScope() { at::set_rounding_budget_fault(false); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

// The stable failure key ("verify:<stage>" / "check:<file>:<line>")
// lives in verify::classify_failure, shared with the batch service.

/// ceil((9/5) * opt) in integers.
std::int64_t nine_fifths_ceil(std::int64_t opt) { return (9 * opt + 4) / 5; }

/// Rotating generator mix. Families 1 and 4 (contended, tight slack)
/// are the genuinely fractional regime where Algorithm 1's round-up
/// machinery fires; the rest cover structure (depth, fan-out, units).
at::Instance generate(int index, util::Rng& rng, int max_jobs) {
  at::Instance inst;
  switch (index % 5) {
    case 0: {
      at::gen::RandomLaminarParams p;
      p.g = rng.uniform_int(1, 4);
      p.max_depth = static_cast<int>(rng.uniform_int(1, 4));
      p.max_children = static_cast<int>(rng.uniform_int(1, 3));
      p.max_processing = rng.uniform_int(1, 4);
      inst = at::gen::random_laminar(p, rng);
      break;
    }
    case 1: {
      at::gen::ContendedParams p;
      p.g = rng.uniform_int(2, 5);
      p.max_groups = static_cast<int>(rng.uniform_int(2, 5));
      p.unit_slack = rng.uniform_int(0, 2);
      p.max_long_jobs = static_cast<int>(rng.uniform_int(1, 2));
      inst = at::gen::random_contended(p, rng);
      break;
    }
    case 2: {
      at::gen::RandomLaminarParams p;
      p.g = rng.uniform_int(1, 3);
      p.max_depth = static_cast<int>(rng.uniform_int(1, 3));
      inst = at::gen::random_laminar_unit(p, rng);
      break;
    }
    case 3: {
      const std::int64_t g = rng.uniform_int(1, 4);
      // Feasibility precondition: per_level <= 2g unit jobs per window.
      const int per_level = static_cast<int>(
          rng.uniform_int(1, std::min<std::int64_t>(3, 2 * g)));
      inst = at::gen::staircase(
          g, static_cast<int>(rng.uniform_int(2, 5)), per_level);
      break;
    }
    default: {
      at::gen::ContendedParams p;
      p.g = rng.uniform_int(3, 6);
      p.min_groups = 3;
      p.max_groups = 6;
      p.unit_slack = rng.uniform_int(1, 2);
      inst = at::gen::random_contended(p, rng);
      break;
    }
  }
  // Hard cap on size: dropping trailing jobs preserves laminarity and
  // feasibility (fewer jobs only relax the instance).
  if (inst.num_jobs() > max_jobs) {
    inst.jobs.resize(static_cast<std::size_t>(max_jobs));
  }
  return inst;
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
  }
  return out;
}

std::string write_repro(const std::string& dir, const Violation& v) {
  std::filesystem::create_directories(dir);
  std::ostringstream name;
  name << "repro_" << sanitize(v.failure_class) << "_seed" << v.index
       << ".txt";
  const std::filesystem::path path =
      std::filesystem::path(dir) / name.str();
  std::ofstream os(path);
  NAT_CHECK_MSG(os.good(), "cannot write repro file " << path.string());
  io::write_instance(os, v.instance);
  // Trailing metadata: read_instance stops after the declared job
  // lines, so the repro file stays loadable as-is.
  os << "# failure_class " << v.failure_class << '\n';
  os << "# minimized_from_jobs " << v.original_jobs << '\n';
  os << "# detail " << v.detail << '\n';
  return path.string();
}

}  // namespace

std::pair<std::string, std::string> check_instance(
    const at::Instance& instance, const FuzzOptions& options) {
  if (instance.jobs.empty()) return {};
  try {
    FaultScope fault(options.inject_budget_fault);

    // Full exact-arithmetic verification regardless of build type: the
    // fuzzer is the differential harness, so it always pays for rigor.
    at::ActiveTimeOptions solver_options;
    solver_options.verify_level = VerifyLevel::kFull;
    const at::NestedSolveResult result =
        at::solve_nested(instance, solver_options);

    // OPT oracle (branch and bound). A blown budget only skips the OPT
    // legs; LP <= ALG still holds unconditionally.
    at::baselines::ExactOptions exact_options;
    exact_options.node_budget = options.exact_node_budget;
    const auto exact =
        at::baselines::exact_opt_laminar(instance, exact_options);

    const double lp = result.lp_value;
    const std::int64_t alg = result.active_slots;
    if (lp > static_cast<double>(alg) + 1e-6) {
      std::ostringstream os;
      os << "LP value " << lp << " exceeds ALG " << alg;
      return {"sandwich:lp_above_alg", os.str()};
    }
    if (exact.has_value()) {
      const std::int64_t opt = exact->optimum;
      if (lp > static_cast<double>(opt) + 1e-6) {
        std::ostringstream os;
        os << "LP value " << lp << " exceeds OPT " << opt
           << " (the LP must lower-bound the optimum)";
        return {"sandwich:lp_above_opt", os.str()};
      }
      if (alg < opt) {
        std::ostringstream os;
        os << "ALG " << alg << " beats OPT " << opt
           << " (either schedule is invalid or the oracle is wrong)";
        return {"sandwich:alg_below_opt", os.str()};
      }
      if (alg > nine_fifths_ceil(opt)) {
        std::ostringstream os;
        os << "ALG " << alg << " exceeds ceil((9/5) OPT) = "
           << nine_fifths_ceil(opt) << " (OPT " << opt << ", repairs "
           << result.repairs << ")";
        return {"sandwich:budget", os.str()};
      }

      // Differential leg: the all-Rational pipeline must obey the same
      // sandwich on instances small enough to afford exact simplex.
      if (instance.num_jobs() <= options.exact_pipeline_max_jobs) {
        const at::ExactPipelineResult er =
            at::solve_nested_exact(instance);
        if (er.active_slots < opt ||
            er.active_slots > nine_fifths_ceil(opt)) {
          std::ostringstream os;
          os << "exact pipeline ALG " << er.active_slots
             << " outside [OPT, ceil(9/5 OPT)] = [" << opt << ", "
             << nine_fifths_ceil(opt) << "]";
          return {"sandwich:exact_pipeline", os.str()};
        }
      }
    }
  } catch (const util::CheckError& e) {
    return {classify_failure(e.what()), e.what()};
  }
  return {};
}

namespace {

/// Shared greedy reduction loop behind both minimizers: drop jobs (back
/// to front), shrink g, shrink processing times — keeping only
/// candidates for which `fails_same` holds — until no single reduction
/// applies.
template <typename FailsSame>
at::Instance shrink_instance(at::Instance current,
                             const FailsSame& fails_same) {
  bool improved = true;
  while (improved) {
    improved = false;
    // Drop one job at a time (back to front, so indices stay valid).
    for (int j = current.num_jobs() - 1; j >= 0; --j) {
      at::Instance candidate = current;
      candidate.jobs.erase(candidate.jobs.begin() + j);
      if (fails_same(candidate)) {
        current = std::move(candidate);
        improved = true;
      }
    }
    // Shrink the parallelism.
    while (current.g > 1) {
      at::Instance candidate = current;
      --candidate.g;
      if (!fails_same(candidate)) break;
      current = std::move(candidate);
      improved = true;
    }
    // Shrink processing times.
    for (std::size_t j = 0; j < current.jobs.size(); ++j) {
      while (current.jobs[j].processing > 1) {
        at::Instance candidate = current;
        --candidate.jobs[j].processing;
        if (!fails_same(candidate)) break;
        current = std::move(candidate);
        improved = true;
      }
    }
  }
  return current;
}

}  // namespace

at::Instance minimize_violation(const at::Instance& instance,
                                const std::string& failure_class,
                                const FuzzOptions& options) {
  return shrink_instance(instance, [&](const at::Instance& candidate) {
    if (candidate.jobs.empty()) return false;
    return check_instance(candidate, options).first == failure_class;
  });
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  util::Rng root(options.seed);
  const auto start = std::chrono::steady_clock::now();
  static obs::Counter& c_instances = obs::counter("at.fuzz.instances");
  static obs::Counter& c_violations = obs::counter("at.fuzz.violations");

  for (int i = 0; i < options.instances; ++i) {
    if (options.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.time_budget_seconds) break;
    }
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const at::Instance instance = generate(i, rng, options.max_jobs);
    ++report.instances_run;
    c_instances.add(1);

    auto [failure_class, detail] = check_instance(instance, options);
    if (failure_class.empty()) continue;
    c_violations.add(1);

    Violation v;
    v.index = i;
    v.failure_class = std::move(failure_class);
    v.detail = std::move(detail);
    v.original_jobs = instance.num_jobs();
    v.instance = minimize_violation(instance, v.failure_class, options);
    if (!options.regression_dir.empty()) {
      v.repro_path = write_repro(options.regression_dir, v);
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

// --------------------------------------------------------------------------
// General-windows family.

namespace {

/// Rotating general-family mix: random crossing windows (loose and
/// contended), the Saha–Purohit-style hard chain, and every fourth
/// draw a laminar instance so the dispatcher's nested leg is fuzzed
/// through the same entry point.
at::Instance generate_general(int index, util::Rng& rng, int max_jobs) {
  at::Instance inst;
  switch (index % 4) {
    case 0: {
      at::gen::RandomGeneralParams p;
      p.g = rng.uniform_int(1, 4);
      p.jobs = static_cast<int>(rng.uniform_int(3, 14));
      p.horizon = rng.uniform_int(6, 16);
      p.max_length = rng.uniform_int(2, 8);
      p.max_processing = rng.uniform_int(1, 4);
      inst = at::gen::random_general(p, rng);
      break;
    }
    case 1:
      inst = at::gen::hard_crossing(rng.uniform_int(2, 4),
                                    static_cast<int>(rng.uniform_int(2, 4)));
      break;
    case 2: {
      // Tight variant: short horizon, long jobs — high contention, so
      // the LP goes genuinely fractional and the repair loop fires.
      at::gen::RandomGeneralParams p;
      p.g = rng.uniform_int(1, 3);
      p.jobs = static_cast<int>(rng.uniform_int(4, 12));
      p.horizon = rng.uniform_int(5, 10);
      p.max_length = p.horizon;
      p.max_processing = rng.uniform_int(2, 5);
      inst = at::gen::random_general(p, rng);
      break;
    }
    default:
      return generate(index, rng, max_jobs);
  }
  // Dropping trailing jobs preserves feasibility (fewer jobs only relax
  // the instance); crossing windows may collapse to laminar, which the
  // dispatcher legs handle.
  if (inst.num_jobs() > max_jobs) {
    inst.jobs.resize(static_cast<std::size_t>(max_jobs));
  }
  return inst;
}

}  // namespace

std::pair<std::string, std::string> check_general_instance(
    const at::Instance& instance, const GeneralFuzzOptions& options) {
  if (instance.jobs.empty()) return {};
  try {
    at::ActiveTimeOptions full;
    full.verify_level = VerifyLevel::kFull;
    const at::ActiveTimeResult result = at::solve_active_time(instance, full);

    if (instance.is_laminar()) {
      if (result.backend != at::Backend::kNested) {
        return {"general:dispatch",
                "laminar instance dispatched to backend \"" +
                    std::string(at::to_string(result.backend)) + "\""};
      }
      // On laminar input the dispatcher must be exactly solve_nested
      // run on each window group, concatenated.
      at::Schedule concatenated;
      concatenated.assignment.resize(instance.jobs.size());
      double lp_sum = 0.0;
      for (const std::vector<int>& members : at::window_groups(instance)) {
        const at::NestedSolveResult nested = at::solve_nested(
            at::group_instance(instance, members), full);
        for (std::size_t p = 0; p < members.size(); ++p) {
          concatenated.assignment[static_cast<std::size_t>(members[p])] =
              nested.schedule.assignment[p];
        }
        lp_sum += nested.lp_value;
      }
      if (result.schedule.assignment != concatenated.assignment ||
          result.active_slots != concatenated.active_slots() ||
          result.lp_value != lp_sum) {
        std::ostringstream os;
        os << "dispatcher result (slots " << result.active_slots
           << ", LP " << result.lp_value
           << ") not bit-identical to per-group solve_nested (slots "
           << concatenated.active_slots() << ", LP " << lp_sum << ")";
        return {"general:laminar_identity", os.str()};
      }
    } else if (result.backend == at::Backend::kNested) {
      return {"general:dispatch",
              "crossing instance dispatched to the nested backend"};
    }

    const std::int64_t alg = result.active_slots;
    const double lp = result.lp_value;
    const at::Interval h = instance.horizon();
    // The greedy backend fires only when the LP itself failed; it has
    // no LP value to sandwich against.
    const bool have_lp = result.backend != at::Backend::kGreedy;
    if (have_lp) {
      if (lp > static_cast<double>(alg) + 1e-6) {
        std::ostringstream os;
        os << "LP value " << lp << " exceeds ALG " << alg;
        return {"sandwich:lp_above_alg", os.str()};
      }
      if (result.backend == at::Backend::kGeneral) {
        // Rational certification of the 2-approx budget (the same
        // certificate solve_general runs at kFull, re-asserted here so
        // the fuzzer fails even if the in-solver gate regresses).
        const std::string err =
            check_general_budget(alg, lp, h.length());
        if (!err.empty()) return {"general:budget", err};
      }
    }

    if (h.length() <= options.brute_force_max_horizon) {
      const auto opt = at::baselines::exact_opt_brute_force(
          instance, options.brute_force_max_horizon);
      if (opt.has_value()) {
        if (have_lp && lp > static_cast<double>(*opt) + 1e-6) {
          std::ostringstream os;
          os << "LP value " << lp << " exceeds OPT " << *opt
             << " (the LP must lower-bound the optimum)";
          return {"sandwich:lp_above_opt", os.str()};
        }
        if (alg < *opt) {
          std::ostringstream os;
          os << "ALG " << alg << " beats OPT " << *opt
             << " (either schedule is invalid or the oracle is wrong)";
          return {"sandwich:alg_below_opt", os.str()};
        }
        if (result.backend == at::Backend::kGeneral && alg > 2 * *opt) {
          std::ostringstream os;
          os << "ALG " << alg << " exceeds 2 * OPT = " << 2 * *opt
             << " (OPT " << *opt << ")";
          return {"general:budget_vs_opt", os.str()};
        }
      }
    }
  } catch (const util::CheckError& e) {
    return {classify_failure(e.what()), e.what()};
  }
  return {};
}

at::Instance minimize_general_violation(const at::Instance& instance,
                                        const std::string& failure_class,
                                        const GeneralFuzzOptions& options) {
  return shrink_instance(instance, [&](const at::Instance& candidate) {
    if (candidate.jobs.empty()) return false;
    return check_general_instance(candidate, options).first == failure_class;
  });
}

FuzzReport run_general_fuzz(const GeneralFuzzOptions& options) {
  FuzzReport report;
  util::Rng root(options.seed);
  const auto start = std::chrono::steady_clock::now();
  static obs::Counter& c_instances =
      obs::counter("at.fuzz.general_instances");
  static obs::Counter& c_violations =
      obs::counter("at.fuzz.general_violations");

  for (int i = 0; i < options.instances; ++i) {
    if (options.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.time_budget_seconds) break;
    }
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const at::Instance instance = generate_general(i, rng, options.max_jobs);
    ++report.instances_run;
    c_instances.add(1);

    auto [failure_class, detail] = check_general_instance(instance, options);
    if (failure_class.empty()) continue;
    c_violations.add(1);

    Violation v;
    v.index = i;
    v.failure_class = std::move(failure_class);
    v.detail = std::move(detail);
    v.original_jobs = instance.num_jobs();
    v.instance =
        minimize_general_violation(instance, v.failure_class, options);
    if (!options.regression_dir.empty()) {
      v.repro_path = write_repro(options.regression_dir, v);
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

// --------------------------------------------------------------------------
// Robust interval-time family.

namespace {

/// Rotating robust mix: interval-carrying laminar and general draws,
/// and every fourth draw a pure point instance so the degenerate path
/// is fuzzed through the same entry point.
at::Instance generate_robust(int index, util::Rng& rng, int max_jobs) {
  if (index % 4 == 3) return generate_general(index, rng, max_jobs);
  at::gen::RandomIntervalParams p;
  p.laminar = (index % 2 == 0);
  p.laminar_params.g = rng.uniform_int(1, 4);
  p.laminar_params.max_depth = static_cast<int>(rng.uniform_int(1, 3));
  p.laminar_params.max_processing = rng.uniform_int(1, 4);
  p.general_params.g = rng.uniform_int(1, 4);
  p.general_params.jobs = static_cast<int>(rng.uniform_int(3, 12));
  p.general_params.horizon = rng.uniform_int(6, 14);
  p.general_params.max_length = rng.uniform_int(2, 8);
  p.general_params.max_processing = rng.uniform_int(1, 4);
  p.interval_probability = 0.8;
  at::Instance inst = at::gen::random_interval(p, rng);
  // Dropping trailing jobs preserves worst-case feasibility (fewer jobs
  // only relax the p_hi corner).
  if (inst.num_jobs() > max_jobs) {
    inst.jobs.resize(static_cast<std::size_t>(max_jobs));
  }
  return inst;
}

/// The point projection: the same instance with every box cleared.
at::Instance strip_intervals(const at::Instance& instance) {
  at::Instance point = instance;
  for (at::Job& job : point.jobs) {
    job.processing_lo = 0;
    job.processing_hi = 0;
  }
  return point;
}

}  // namespace

std::pair<std::string, std::string> check_robust_instance(
    const at::Instance& instance, const RobustFuzzOptions& options) {
  if (instance.jobs.empty()) return {};
  try {
    at::ActiveTimeOptions full;
    full.verify_level = VerifyLevel::kFull;
    const at::RobustSolveResult res = at::solve_robust(instance, full);

    if (res.degenerate == instance.has_processing_intervals()) {
      return {"robust:degenerate_flag",
              std::string("degenerate flag ") +
                  (res.degenerate ? "set" : "clear") +
                  " disagrees with the instance's intervals"};
    }

    // Degenerate-path contract: the nominal solve must be bit-identical
    // to the point solver on the stripped instance (solvers only read
    // the nominal p, so the boxes must not perturb anything).
    const at::ActiveTimeResult point =
        at::solve_active_time(strip_intervals(instance), full);
    if (res.nominal.schedule.assignment != point.schedule.assignment ||
        res.nominal.active_slots != point.active_slots ||
        res.nominal.backend != point.backend) {
      std::ostringstream os;
      os << "nominal robust solve (slots " << res.nominal.active_slots
         << ", backend " << at::to_string(res.nominal.backend)
         << ") not bit-identical to the point solver (slots "
         << point.active_slots << ", backend "
         << at::to_string(point.backend) << ")";
      return {"robust:point_identity", os.str()};
    }

    // The sandwich LP(p_lo) <= ALG(p) <= robust_hi.
    const std::int64_t alg = res.nominal.active_slots;
    if (res.robust_lo > static_cast<double>(alg) + 1e-6) {
      std::ostringstream os;
      os << "robust_lo " << res.robust_lo << " exceeds ALG " << alg;
      return {"robust:lo_above_alg", os.str()};
    }
    if (alg > res.robust_hi) {
      std::ostringstream os;
      os << "ALG " << alg << " exceeds robust_hi " << res.robust_hi;
      return {"robust:alg_above_hi", os.str()};
    }

    // Corner OPT legs: robust_lo must lower-bound the best corner's
    // optimum, robust_hi must cover the worst corner's.
    const at::Interval h = instance.horizon();
    if (h.length() <= options.brute_force_max_horizon) {
      const auto opt_lo = at::baselines::exact_opt_brute_force(
          instance.lo_corner(), options.brute_force_max_horizon);
      if (opt_lo.has_value() &&
          res.robust_lo > static_cast<double>(*opt_lo) + 1e-6) {
        std::ostringstream os;
        os << "robust_lo " << res.robust_lo << " exceeds OPT(p_lo) = "
           << *opt_lo;
        return {"robust:lo_above_opt", os.str()};
      }
      const auto opt_hi = at::baselines::exact_opt_brute_force(
          instance.hi_corner(), options.brute_force_max_horizon);
      if (opt_hi.has_value() && res.robust_hi < *opt_hi) {
        std::ostringstream os;
        os << "robust_hi " << res.robust_hi << " below OPT(p_hi) = "
           << *opt_hi << " (that many slots cannot cover the worst case)";
        return {"robust:hi_below_opt", os.str()};
      }
    }
  } catch (const util::CheckError& e) {
    return {classify_failure(e.what()), e.what()};
  }
  return {};
}

at::Instance minimize_robust_violation(const at::Instance& instance,
                                       const std::string& failure_class,
                                       const RobustFuzzOptions& options) {
  const auto fails_same = [&](const at::Instance& candidate) {
    if (candidate.jobs.empty()) return false;
    try {
      candidate.validate();
    } catch (const util::CheckError&) {
      return false;  // e.g. a processing shrink that broke its box
    }
    return check_robust_instance(candidate, options).first == failure_class;
  };

  at::Instance current = shrink_instance(instance, fails_same);
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t j = 0; j < current.jobs.size(); ++j) {
      // Clear the whole box (point jobs are the simplest repro).
      if (current.jobs[j].has_processing_interval()) {
        at::Instance cand = current;
        cand.jobs[j].processing_lo = 0;
        cand.jobs[j].processing_hi = 0;
        if (fails_same(cand)) {
          current = std::move(cand);
          improved = true;
          continue;
        }
      }
      // Narrow the box toward the nominal from both ends.
      while (current.jobs[j].processing_hi > current.jobs[j].processing) {
        at::Instance cand = current;
        --cand.jobs[j].processing_hi;
        if (!fails_same(cand)) break;
        current = std::move(cand);
        improved = true;
      }
      while (current.jobs[j].has_processing_interval() &&
             current.jobs[j].processing_lo < current.jobs[j].processing) {
        at::Instance cand = current;
        ++cand.jobs[j].processing_lo;
        if (!fails_same(cand)) break;
        current = std::move(cand);
        improved = true;
      }
    }
    if (improved) current = shrink_instance(current, fails_same);
  }
  return current;
}

FuzzReport run_robust_fuzz(const RobustFuzzOptions& options) {
  FuzzReport report;
  util::Rng root(options.seed);
  const auto start = std::chrono::steady_clock::now();
  static obs::Counter& c_instances = obs::counter("at.fuzz.robust_instances");
  static obs::Counter& c_violations =
      obs::counter("at.fuzz.robust_violations");

  for (int i = 0; i < options.instances; ++i) {
    if (options.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.time_budget_seconds) break;
    }
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const at::Instance instance = generate_robust(i, rng, options.max_jobs);
    ++report.instances_run;
    c_instances.add(1);

    auto [failure_class, detail] = check_robust_instance(instance, options);
    if (failure_class.empty()) continue;
    c_violations.add(1);

    Violation v;
    v.index = i;
    v.failure_class = std::move(failure_class);
    v.detail = std::move(detail);
    v.original_jobs = instance.num_jobs();
    v.instance =
        minimize_robust_violation(instance, v.failure_class, options);
    if (!options.regression_dir.empty()) {
      v.repro_path = write_repro(options.regression_dir, v);
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

// --------------------------------------------------------------------------
// Delta-mutation family.

namespace {

/// Applies one delta to a plain instance copy; empty when it would be
/// out of range, break window nesting, lose the last job, or make the
/// instance infeasible (same safety rules the session enforces,
/// simulated without a solve). Laminarity is NOT required: sessions
/// dispatch crossing groups to the general 2-approx, so the fuzz walks
/// freely across the laminar boundary.
std::optional<at::Instance> apply_delta_plain(const at::Instance& instance,
                                              const at::Delta& delta) {
  at::Instance cand = instance;
  try {
    if (const auto* a = std::get_if<at::AddJob>(&delta)) {
      cand.jobs.push_back(a->job);
    } else if (const auto* r = std::get_if<at::RemoveJob>(&delta)) {
      if (r->job < 0 || r->job >= static_cast<int>(cand.jobs.size())) {
        return std::nullopt;
      }
      cand.jobs.erase(cand.jobs.begin() + r->job);
    } else if (const auto* e = std::get_if<at::ExtendWindow>(&delta)) {
      if (e->job < 0 || e->job >= static_cast<int>(cand.jobs.size())) {
        return std::nullopt;
      }
      at::Job& j = cand.jobs[static_cast<std::size_t>(e->job)];
      if (e->window.lo > j.release || e->window.hi < j.deadline) {
        return std::nullopt;
      }
      j.release = e->window.lo;
      j.deadline = e->window.hi;
    } else if (const auto* s = std::get_if<at::ShrinkWindow>(&delta)) {
      if (s->job < 0 || s->job >= static_cast<int>(cand.jobs.size())) {
        return std::nullopt;
      }
      at::Job& j = cand.jobs[static_cast<std::size_t>(s->job)];
      if (s->window.lo < j.release || s->window.hi > j.deadline ||
          s->window.length() < j.processing) {
        return std::nullopt;
      }
      j.release = s->window.lo;
      j.deadline = s->window.hi;
    }
    cand.validate();
  } catch (const util::CheckError&) {
    return std::nullopt;
  }
  if (cand.jobs.empty()) return std::nullopt;
  const at::Interval h = cand.horizon();
  std::vector<at::Time> slots;
  slots.reserve(static_cast<std::size_t>(h.length()));
  for (at::Time t = h.lo; t < h.hi; ++t) slots.push_back(t);
  if (!at::feasible_with_slots(cand, slots)) return std::nullopt;
  return cand;
}

std::optional<at::Delta> propose_session_delta(const at::Instance& instance,
                                               util::Rng& rng) {
  const int n = static_cast<int>(instance.jobs.size());
  if (n == 0) return std::nullopt;
  const int kind = static_cast<int>(rng.uniform_int(0, 3));
  const int pick = static_cast<int>(rng.uniform_int(0, n - 1));
  const at::Job& j = instance.jobs[static_cast<std::size_t>(pick)];
  switch (kind) {
    case 0: {
      at::Job add = j;
      add.processing =
          rng.uniform_int(1, std::max<at::Time>(1, j.window().length()));
      return at::AddJob{add};
    }
    case 1:
      return at::RemoveJob{pick};
    case 2: {
      at::Interval w = j.window();
      w.lo -= rng.uniform_int(0, 2);
      w.hi += rng.uniform_int(0, 2);
      return at::ExtendWindow{pick, w};
    }
    default: {
      at::Interval w = j.window();
      const at::Time slack = w.length() - j.processing;
      if (slack <= 0) return std::nullopt;
      const at::Time cut_lo = rng.uniform_int(0, slack);
      const at::Time cut_hi = rng.uniform_int(0, slack - cut_lo);
      return at::ShrinkWindow{pick,
                              at::Interval{w.lo + cut_lo, w.hi - cut_hi}};
    }
  }
}

std::string delta_comment(const at::Delta& delta) {
  std::ostringstream os;
  if (const auto* a = std::get_if<at::AddJob>(&delta)) {
    os << "# delta add " << a->job.release << ' ' << a->job.deadline << ' '
       << a->job.processing;
  } else if (const auto* r = std::get_if<at::RemoveJob>(&delta)) {
    os << "# delta remove " << r->job;
  } else if (const auto* e = std::get_if<at::ExtendWindow>(&delta)) {
    os << "# delta extend " << e->job << ' ' << e->window.lo << ' '
       << e->window.hi;
  } else if (const auto* s = std::get_if<at::ShrinkWindow>(&delta)) {
    os << "# delta shrink " << s->job << ' ' << s->window.lo << ' '
       << s->window.hi;
  }
  return os.str();
}

std::string write_delta_repro(const std::string& dir,
                              const DeltaViolation& v) {
  std::filesystem::create_directories(dir);
  std::ostringstream name;
  name << "repro_" << sanitize(v.failure_class) << "_stream" << v.index
       << ".txt";
  const std::filesystem::path path = std::filesystem::path(dir) / name.str();
  std::ofstream os(path);
  NAT_CHECK_MSG(os.good(), "cannot write repro file " << path.string());
  io::write_instance(os, v.base);
  // read_instance stops after the declared job lines, so the file stays
  // loadable as the base instance; the stream rides along as comments.
  for (const at::Delta& d : v.deltas) os << delta_comment(d) << '\n';
  os << "# failure_class " << v.failure_class << '\n';
  os << "# minimized_from " << v.original_jobs << " jobs, "
     << v.original_steps << " deltas\n";
  os << "# detail " << v.detail << '\n';
  return path.string();
}

}  // namespace

bool delta_stream_valid(const at::Instance& base,
                        const std::vector<at::Delta>& deltas) {
  at::Instance cur = base;
  try {
    cur.validate();
  } catch (const util::CheckError&) {
    return false;
  }
  if (cur.jobs.empty()) return false;
  for (const at::Delta& d : deltas) {
    auto next = apply_delta_plain(cur, d);
    if (!next) return false;
    cur = std::move(*next);
  }
  return true;
}

std::pair<std::string, std::string> check_delta_stream(
    const at::Instance& base, const std::vector<at::Delta>& deltas) {
  try {
    at::SolverSession session(base);
    session.solve();
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      const at::SessionResult& inc = session.apply(deltas[k]);
      at::SolverSession fresh(session.instance());
      const at::SessionResult& scr = fresh.solve();
      if (inc.schedule.assignment != scr.schedule.assignment ||
          inc.active_slots != scr.active_slots ||
          inc.repairs != scr.repairs) {
        std::ostringstream os;
        os << "step " << k << ": incremental (slots " << inc.active_slots
           << ", repairs " << inc.repairs
           << ") diverged from scratch (slots " << scr.active_slots
           << ", repairs " << scr.repairs << ")";
        return {"session:divergence", os.str()};
      }
      if (std::abs(inc.lp_value - scr.lp_value) >
          1e-6 * (1.0 + std::abs(scr.lp_value))) {
        std::ostringstream os;
        os << "step " << k << ": incremental LP " << inc.lp_value
           << " != scratch LP " << scr.lp_value;
        return {"session:lp_divergence", os.str()};
      }
    }
    // The per-group LP optima must sum to the global strengthened LP
    // (the LP is block-diagonal across window groups). Only defined on
    // laminar instances — crossing groups solve the plain time-indexed
    // LP, which is a different (weaker) bound.
    if (session.instance().is_laminar()) {
      const double global = at::strong_lp_value(session.instance());
      const double inc_lp = session.solve().lp_value;
      if (std::abs(inc_lp - global) > 1e-6 * (1.0 + std::abs(global))) {
        std::ostringstream os;
        os << "final: session LP " << inc_lp << " != global strengthened LP "
           << global;
        return {"session:lp_mismatch", os.str()};
      }
    }
  } catch (const util::CheckError& e) {
    return {classify_failure(e.what()), e.what()};
  }
  return {};
}

void minimize_delta_violation(DeltaViolation& v) {
  const auto fails_same = [&](const at::Instance& base,
                              const std::vector<at::Delta>& deltas) {
    if (!delta_stream_valid(base, deltas)) return false;
    return check_delta_stream(base, deltas).first == v.failure_class;
  };

  bool improved = true;
  while (improved) {
    improved = false;
    // Drop deltas one at a time (back to front). Dropping can shift the
    // meaning of later job indices; delta_stream_valid keeps candidates
    // well-formed and fails_same keeps them on the original bug.
    for (int k = static_cast<int>(v.deltas.size()) - 1; k >= 0; --k) {
      std::vector<at::Delta> cand = v.deltas;
      cand.erase(cand.begin() + k);
      if (fails_same(v.base, cand)) {
        v.deltas = std::move(cand);
        improved = true;
      }
    }
    // Drop base jobs.
    for (int j = v.base.num_jobs() - 1; j >= 0; --j) {
      at::Instance cand = v.base;
      cand.jobs.erase(cand.jobs.begin() + j);
      if (fails_same(cand, v.deltas)) {
        v.base = std::move(cand);
        improved = true;
      }
    }
    // Shrink the parallelism.
    while (v.base.g > 1) {
      at::Instance cand = v.base;
      --cand.g;
      if (!fails_same(cand, v.deltas)) break;
      v.base = std::move(cand);
      improved = true;
    }
  }
}

DeltaFuzzReport run_delta_fuzz(const DeltaFuzzOptions& options) {
  DeltaFuzzReport report;
  util::Rng root(options.seed);
  const auto start = std::chrono::steady_clock::now();
  static obs::Counter& c_streams = obs::counter("at.fuzz.delta_streams");
  static obs::Counter& c_violations =
      obs::counter("at.fuzz.delta_violations");

  for (int i = 0; i < options.streams; ++i) {
    if (options.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.time_budget_seconds) break;
    }
    util::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const at::Instance base = generate(i, rng, options.max_jobs);
    if (base.jobs.empty()) continue;

    // Safe stream: each proposal is simulated and unsafe ones skipped,
    // so every replayed delta is one the session must accept.
    std::vector<at::Delta> deltas;
    {
      at::Instance cur = base;
      int guard = 0;
      while (static_cast<int>(deltas.size()) < options.steps &&
             ++guard < 20 * options.steps) {
        const auto delta = propose_session_delta(cur, rng);
        if (!delta) continue;
        auto next = apply_delta_plain(cur, *delta);
        if (!next) continue;
        cur = std::move(*next);
        deltas.push_back(*delta);
      }
    }

    ++report.streams_run;
    c_streams.add(1);
    auto [failure_class, detail] = check_delta_stream(base, deltas);
    if (failure_class.empty()) continue;
    c_violations.add(1);

    DeltaViolation v;
    v.index = i;
    v.failure_class = std::move(failure_class);
    v.detail = std::move(detail);
    v.base = base;
    v.deltas = std::move(deltas);
    v.original_jobs = base.num_jobs();
    v.original_steps = static_cast<int>(v.deltas.size());
    minimize_delta_violation(v);
    if (!options.regression_dir.empty()) {
      v.repro_path = write_delta_repro(options.regression_dir, v);
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

}  // namespace nat::verify::fuzz
