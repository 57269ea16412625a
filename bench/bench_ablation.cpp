// E5 — ablations of the paper's two LP/rounding ingredients:
//
//   (a) ceiling constraints (7)/(8): without them the LP drops to the
//       natural bound on overload windows and the *certified* ratio
//       active/LP blows past 9/5 (on the unit-overload family it
//       approaches 2g/(g+1) * ... = 2);
//   (b) the Lemma 3.1 transform + Algorithm 1: replaced by naive
//       per-region ceil rounding, which stays feasible but wastes
//       slots on fractional mass spread across the tree.
//
// This is the executable version of the paper's "why these pieces"
// argument (Section 1: "a different LP formulation is needed").
#include <iostream>
#include <mutex>

#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "util/thread_pool.hpp"

using namespace nat;

namespace {

struct Variant {
  std::string name;
  bool ceiling;
  bool naive;
  bool trim;
};

}  // namespace

int main() {
  const std::vector<Variant> variants = {
      {"paper algorithm", true, false, false},
      {"paper + trim (engineering)", true, false, true},
      {"no ceiling constraints", false, false, false},
      {"naive ceil rounding", true, true, false},
      {"neither", false, true, false},
  };

  // (a) the unit-overload family with the ceiling constraints ablated:
  // the LP drops to (g+1)/g, Algorithm 1's 9/5 budget is no longer
  // enough to reach a feasible vector once g >= 10, the repair loop has
  // to fire, and the LP-certified ratio blows past 9/5 toward 2.
  std::cout << "# E5a — ceiling-constraint ablation on unit overload\n\n";
  io::Table a({"g", "LP (with 7/8)", "LP (without)", "active (ablated)",
               "repairs", "cert. ratio with", "cert. ratio without"});
  for (std::int64_t g : {2, 4, 8, 12, 16}) {
    const at::Instance inst = at::gen::unit_overload(g);
    at::StrongLpOptions with, without;
    without.ceiling_constraints = false;
    const double lp_with = at::strong_lp_value(inst, with);
    const double lp_without = at::strong_lp_value(inst, without);
    at::ActiveTimeOptions ablated;
    ablated.lp.ceiling_constraints = false;
    at::NestedSolveResult r = at::solve_nested(inst, ablated);
    a.add_row({io::Table::num(g), io::Table::num(lp_with),
               io::Table::num(lp_without), io::Table::num(r.active_slots),
               io::Table::num(static_cast<std::int64_t>(r.repairs)),
               io::Table::ratio(static_cast<double>(r.active_slots),
                                lp_with),
               io::Table::ratio(static_cast<double>(r.active_slots),
                                lp_without)});
  }
  a.print_markdown(std::cout);
  std::cout << "\nWithout (7)/(8) the LP certificate exceeds 9/5 = 1.8 "
               "and approaches 2 — the integrality-gap wall the paper "
               "breaks through — and the rounding alone stops being "
               "feasible (repair column).\n\n";

  // (b) full pipeline vs ablated variants on contended instances,
  // measured against the exact optimum.
  std::cout << "# E5b — pipeline ablation on contended instances "
               "(avg ratio vs OPT over 50 instances, g=4)\n\n";
  io::Table b({"variant", "avg vs OPT", "max vs OPT", "avg slots",
               "total repairs"});
  for (const Variant& variant : variants) {
    bench::RatioStats stats;
    double slot_sum = 0.0;
    std::int64_t repairs = 0;
    std::mutex mu;
    util::parallel_for(0, 50, [&](std::size_t id) {
      const at::Instance inst =
          bench::contended_instance(static_cast<int>(id), 4);
      auto opt = at::baselines::exact_opt_laminar(inst);
      if (!opt.has_value()) return;
      at::ActiveTimeOptions options;
      options.lp.ceiling_constraints = variant.ceiling;
      options.naive_rounding = variant.naive;
      options.trim_rounded = variant.trim;
      at::NestedSolveResult r = at::solve_nested(inst, options);
      std::lock_guard lk(mu);
      stats.add(static_cast<double>(r.active_slots) /
                static_cast<double>(opt->optimum));
      slot_sum += static_cast<double>(r.active_slots);
      repairs += r.repairs;
    });
    b.add_row({variant.name, io::Table::num(stats.avg()),
               io::Table::num(stats.max),
               io::Table::num(slot_sum / stats.count),
               io::Table::num(repairs)});
  }
  b.print_markdown(std::cout);

  // The Lemma 5.1 family separates the variants most clearly.
  std::cout << "\n# E5c — variants on the Lemma 5.1 family\n\n";
  io::Table c({"g", "OPT", "paper", "paper+trim", "no ceiling",
               "naive ceil"});
  for (std::int64_t g : {4, 8, 12}) {
    const at::Instance inst = at::gen::lemma51_gap(g);
    const std::int64_t opt = g + (g + 1) / 2;
    std::vector<std::string> row{io::Table::num(g), io::Table::num(opt)};
    for (const Variant& variant :
         {variants[0], variants[1], variants[2], variants[3]}) {
      at::ActiveTimeOptions options;
      options.lp.ceiling_constraints = variant.ceiling;
      options.naive_rounding = variant.naive;
      options.trim_rounded = variant.trim;
      row.push_back(
          io::Table::num(at::solve_nested(inst, options).active_slots));
    }
    c.add_row(std::move(row));
  }
  c.print_markdown(std::cout);
  std::cout << "\nThe paper pipeline keeps its 9/5 certificate "
               "everywhere; the trim pass recovers the optimum on the "
               "gap family without giving up the guarantee.\n";
  return 0;
}
