// E4 — problem-history baselines vs the paper's algorithm.
//
// Reproduced shape: any minimal-feasible greedy stays within 3x OPT
// [CKM17]; careful orders behave like the 2-approximation of [KK18];
// the nested LP rounding wins on laminar instances. Since [KK18] is a
// brief announcement without a full rule specification, the harness
// additionally runs an adversarial random search for the worst greedy
// ratio per order (substitution documented in DESIGN.md §5).
#include <iostream>
#include <mutex>

#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "baselines/online.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "util/thread_pool.hpp"

using namespace nat;
using at::baselines::DeactivationOrder;

namespace {

struct FamilyRow {
  std::string name;
  at::Instance (*make)(int, std::int64_t);
  std::int64_t g;
  int instances;
};

}  // namespace

int main() {
  const std::vector<FamilyRow> families = {
      {"loose laminar (g=3)", bench::loose_instance, 3, 50},
      {"contended (g=4)", bench::contended_instance, 4, 50},
      {"contended (g=8)", bench::contended_instance, 8, 50},
      {"unit jobs (g=3)", bench::unit_instance, 3, 50},
  };
  const std::vector<DeactivationOrder> orders = {
      DeactivationOrder::kLeftToRight, DeactivationOrder::kRightToLeft,
      DeactivationOrder::kRandom};

  std::cout << "# E4 — baselines vs nested LP rounding (avg ratio vs "
               "OPT; max in parentheses)\n\n";
  io::Table table({"family", "greedy L2R", "greedy R2L", "greedy random",
                   "LP rounding (paper)", "LP rounding + trim"});
  for (const FamilyRow& family : families) {
    std::vector<bench::RatioStats> greedy(orders.size());
    bench::RatioStats lp_round, lp_trim;
    std::mutex mu;
    util::parallel_for(0, static_cast<std::size_t>(family.instances),
                       [&](std::size_t id) {
      const at::Instance inst = family.make(static_cast<int>(id), family.g);
      auto opt = at::baselines::exact_opt_laminar(inst);
      if (!opt.has_value()) return;
      const double optv = static_cast<double>(opt->optimum);
      std::vector<double> ratios;
      for (DeactivationOrder order : orders) {
        auto r = at::baselines::greedy_minimal_feasible(inst, order, id);
        ratios.push_back(static_cast<double>(r.active_slots) / optv);
      }
      at::NestedSolveResult nested = at::solve_nested(inst);
      at::ActiveTimeOptions trim_opt;
      trim_opt.trim_rounded = true;
      at::NestedSolveResult trimmed = at::solve_nested(inst, trim_opt);
      std::lock_guard lk(mu);
      for (std::size_t o = 0; o < orders.size(); ++o) {
        greedy[o].add(ratios[o]);
      }
      lp_round.add(static_cast<double>(nested.active_slots) / optv);
      lp_trim.add(static_cast<double>(trimmed.active_slots) / optv);
    });
    auto cell = [](const bench::RatioStats& s) {
      return io::Table::num(s.avg()) + " (" + io::Table::num(s.max) + ")";
    };
    table.add_row({family.name, cell(greedy[0]), cell(greedy[1]),
                   cell(greedy[2]), cell(lp_round), cell(lp_trim)});
  }
  table.print_markdown(std::cout);

  // Adversarial search: the worst greedy ratio found over a larger
  // randomized pool of contended instances (empirical stand-in for the
  // 2 - 1/g lower-bound family of [KK18]).
  std::cout << "\n# adversarial search (400 contended instances, g=4)\n\n";
  io::Table adv({"order", "worst ratio found", "3x bound intact"});
  for (DeactivationOrder order : orders) {
    bench::RatioStats stats;
    std::mutex mu;
    util::parallel_for(0, 400, [&](std::size_t id) {
      const at::Instance inst =
          bench::contended_instance(static_cast<int>(id), 4);
      auto opt = at::baselines::exact_opt_laminar(inst);
      if (!opt.has_value()) return;
      auto r = at::baselines::greedy_minimal_feasible(inst, order, id);
      std::lock_guard lk(mu);
      stats.add(static_cast<double>(r.active_slots) /
                static_cast<double>(opt->optimum));
    });
    adv.add_row({at::baselines::to_string(order),
                 io::Table::num(stats.max),
                 stats.max <= 3.0 + 1e-9 ? "yes" : "NO"});
  }
  adv.print_markdown(std::cout);

  // Price of non-clairvoyance: the lazy online heuristic vs offline
  // OPT — including how often adversarial arrivals defeat laziness
  // outright (the impossibility discussed in baselines/online.hpp).
  std::cout << "\n# online lazy activation (no competitive ratio "
               "claimed; see DESIGN.md §5)\n\n";
  io::Table online({"family", "survived", "failed", "avg ratio vs OPT",
                    "max ratio vs OPT"});
  for (const FamilyRow& family : families) {
    bench::RatioStats stats;
    int failed = 0;
    std::mutex mu;
    util::parallel_for(0, static_cast<std::size_t>(family.instances),
                       [&](std::size_t id) {
      const at::Instance inst = family.make(static_cast<int>(id), family.g);
      auto opt = at::baselines::exact_opt_laminar(inst);
      if (!opt.has_value()) return;
      auto r = at::baselines::lazy_online(inst);
      std::lock_guard lk(mu);
      if (!r.feasible) {
        ++failed;
        return;
      }
      stats.add(static_cast<double>(r.active_slots) /
                static_cast<double>(opt->optimum));
    });
    online.add_row({family.name,
                    io::Table::num(static_cast<std::int64_t>(stats.count)),
                    io::Table::num(static_cast<std::int64_t>(failed)),
                    io::Table::num(stats.avg()), io::Table::num(stats.max)});
  }
  online.print_markdown(std::cout);

  std::cout
      << "\nReading: on *random* instances every method is near-optimal "
         "— the paper's contribution is the worst-case certificate "
         "(9/5 < 2 [KK18] < 3 [CKM17]). The paper pipeline's rounding "
         "deliberately spends its whole 9/5 budget; the trim column "
         "shows the same algorithm with unneeded slots closed "
         "afterwards (guarantee preserved).\n";
  return 0;
}
