// Command-line solver for instances in the text format of
// io/serialize.hpp. Reads stdin (or a file), writes the schedule.
//
//   $ ./examples/file_solver < instance.txt
//   $ ./examples/file_solver instance.txt --greedy
//   $ ./examples/file_solver instance.txt --robust
//   $ ./examples/file_solver instance.txt --report run.json
//
// --robust runs the interval-time pipeline (docs/ROBUST.md): the solve
// additionally certifies the whole [p_lo, p_hi] uncertainty box and
// prints the sandwich LP(p_lo) <= ALG <= robust_hi.
//
// --report <file> dumps the run as a JSON observability report
// (schema in docs/OBSERVABILITY.md): instance stats, per-stage wall-ns
// trace spans, every pipeline counter (simplex pivots, Dinic
// augmentations, push-down moves, rounding decisions, ...), and the
// final cost against the LP lower bound.
#include <fstream>
#include <iostream>
#include <string>

#include "activetime/robust.hpp"
#include "activetime/solver.hpp"
#include "baselines/greedy.hpp"
#include "io/serialize.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

nat::obs::RunSummary base_summary(const nat::at::Instance& instance) {
  nat::obs::RunSummary s;
  s.jobs = instance.num_jobs();
  s.g = instance.g;
  const nat::at::Interval h = instance.horizon();
  s.horizon_lo = h.lo;
  s.horizon_hi = h.hi;
  s.volume = instance.total_volume();
  s.volume_lower_bound = instance.volume_lower_bound();
  s.laminar = instance.is_laminar();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nat;
  // A stale NAT_LP_BACKEND would fail every solve; refuse it before
  // reading any input.
  try {
    lp::default_backend();
  } catch (const std::exception& e) {
    std::cerr << "file_solver: " << e.what() << '\n';
    return 2;
  }
  std::string path;
  std::string report_path;
  bool use_greedy = false;
  bool use_robust = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--greedy") {
      use_greedy = true;
    } else if (arg == "--robust") {
      use_robust = true;
    } else if (arg == "--report") {
      if (a + 1 >= argc) {
        std::cerr << "--report needs a file argument\n";
        return 1;
      }
      report_path = argv[++a];
    } else {
      path = arg;
    }
  }

  at::Instance instance;
  try {
    if (path.empty()) {
      instance = io::read_instance(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open " << path << '\n';
        return 1;
      }
      instance = io::read_instance(in);
    }
  } catch (const std::exception& e) {
    std::cerr << "bad instance: " << e.what() << '\n';
    return 1;
  }

  // Scope counters and spans to this run so the report covers exactly
  // the solve below.
  obs::reset_all();
  obs::clear_spans();

  std::cout << at::summary(instance) << '\n';
  obs::RunSummary summary = base_summary(instance);
  try {
    if (use_greedy) {
      auto r = at::baselines::greedy_minimal_feasible(instance);
      summary.solver = "greedy";
      summary.active_slots = r.active_slots;
      io::write_schedule(std::cout, instance, r.schedule);
    } else if (use_robust) {
      // Robust interval-time pipeline: nominal solve plus the
      // worst-case feasibility check and sandwich bounds for the whole
      // [p_lo, p_hi] box (docs/ROBUST.md).
      at::RobustSolveResult r = at::solve_robust(instance);
      summary.solver = at::to_string(r.nominal.backend);
      summary.active_slots = r.nominal.active_slots;
      summary.lp_objective = r.nominal.lp_value;
      summary.lp_iterations = r.nominal.lp_iterations;
      summary.repairs = r.nominal.repairs;
      summary.robust_lo = r.robust_lo;
      summary.robust_hi = r.robust_hi;
      if (r.degenerate) {
        std::cout << "point instance (no uncertainty intervals); robust "
                     "bounds collapse to the nominal solve\n";
      }
      std::cout << "robust sandwich: " << r.robust_lo
                << " <= ALG = " << r.nominal.active_slots
                << " <= " << r.robust_hi << '\n';
      io::write_schedule(std::cout, instance, r.nominal.schedule);
    } else {
      // Laminarity dispatch: the 9/5 nested pipeline when windows
      // nest, the LP-rounding 2-approx otherwise (docs/GENERAL.md).
      at::ActiveTimeResult r = at::solve_active_time(instance);
      summary.solver = at::to_string(r.backend);
      summary.active_slots = r.active_slots;
      summary.lp_objective = r.lp_value;
      summary.lp_iterations = r.lp_iterations;
      summary.repairs = r.repairs;
      if (r.backend != at::Backend::kNested) {
        std::cout << "windows are not nested; using the LP-rounding "
                     "2-approximation\n";
      }
      if (r.backend != at::Backend::kGreedy) {
        std::cout << "LP lower bound: " << r.lp_value << '\n';
      }
      io::write_schedule(std::cout, instance, r.schedule);
    }
  } catch (const std::exception& e) {
    std::cerr << "solve failed: " << e.what() << '\n';
    return 1;
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "cannot write report to " << report_path << '\n';
      return 1;
    }
    obs::write_report(out, summary);
    std::cout << "report written to " << report_path << '\n';
  }
  return 0;
}
