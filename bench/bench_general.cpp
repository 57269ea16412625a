// bench_general — the LP-rounding 2-approx on general (non-laminar)
// windows, plus the laminarity dispatcher's overhead on laminar input.
//
// Three cell families:
//
//  * random crossing: random_general instances (loose and tight), each
//    solved by solve_general; the headline number is the worst observed
//    ALG / LP ratio, which the 2-approx guarantee caps at 2 (+ float
//    slack). The CI perf gate enforces that ceiling on every run
//    (tools/perf_gate.py, DOC_CEILINGS).
//  * hard crossing chain: the Saha–Purohit-style gadget family
//    (instances/generators.hpp) at growing sizes — the fractional
//    regime where the threshold support sits near 1/2 everywhere and
//    the repair loop actually fires.
//  * laminar via dispatcher: single-group laminar instances through
//    solve_active_time, asserted bit-identical to solve_nested while
//    timing both — the dispatcher must stay a transparent wrapper.
//
// Results land in BENCH_general.json (--out) for the CI perf gate:
// structural integers exact, seconds gated when the hardware stamp
// matches, max_ratio_vs_lp gated at 2.0 + slack on any hardware.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "activetime/general.hpp"
#include "activetime/solver.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace nat;

namespace {

at::Instance crossing_instance(int id, bool tight) {
  util::Rng knobs(7000 + id);
  at::gen::RandomGeneralParams params;
  if (tight) {
    params.g = knobs.uniform_int(1, 3);
    params.jobs = static_cast<int>(knobs.uniform_int(8, 16));
    params.horizon = knobs.uniform_int(6, 12);
    params.max_length = params.horizon;
    params.max_processing = knobs.uniform_int(2, 5);
  } else {
    params.g = knobs.uniform_int(2, 5);
    params.jobs = static_cast<int>(knobs.uniform_int(10, 24));
    params.horizon = knobs.uniform_int(16, 40);
    params.max_length = knobs.uniform_int(4, 12);
    params.max_processing = knobs.uniform_int(1, 4);
  }
  util::Rng rng(500 + id);
  return at::gen::random_general(params, rng);
}

struct RoundingMix {
  std::int64_t threshold = 0;
  std::int64_t sweep = 0;
  std::int64_t greedy = 0;

  void add(at::GeneralRounding r) {
    switch (r) {
      case at::GeneralRounding::kThreshold: ++threshold; break;
      case at::GeneralRounding::kSweep: ++sweep; break;
      case at::GeneralRounding::kGreedy: ++greedy; break;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_general.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
  }

  obs::Json doc = obs::Json::object();
  doc["schema"] = "nat-bench-general-v1";
  doc["smoke"] = smoke;

  std::cout << "# bench_general — LP-rounding 2-approx on general"
               " windows\n\nWorst ALG/LP ratio per family (guarantee: 2),"
               " rounding-path mix, and the\ndispatcher's overhead on"
               " laminar input.\n\n";

  io::Table table({"cell", "instances", "jobs", "solve s", "avg ALG/LP",
                   "max ALG/LP", "repairs", "thr/sweep/greedy"});
  obs::Json cells_json = obs::Json::array();
  double doc_max_ratio = 0.0;

  struct CrossingSpec {
    std::string name;
    bool tight;
    int count;
  };
  const std::vector<CrossingSpec> crossing_specs = {
      {"random crossing loose", false, smoke ? 12 : 60},
      {"random crossing tight", true, smoke ? 12 : 60},
  };
  for (const CrossingSpec& spec : crossing_specs) {
    bench::RatioStats ratios;
    std::int64_t jobs = 0, repairs = 0;
    RoundingMix mix;
    util::Stopwatch watch;
    for (int id = 0; id < spec.count; ++id) {
      const at::Instance instance = crossing_instance(id, spec.tight);
      jobs += instance.num_jobs();
      const at::GeneralSolveResult res = at::solve_general(instance);
      NAT_CHECK_MSG(!res.lp_failed, spec.name << ": LP failed on id " << id);
      NAT_CHECK_MSG(res.lp_value > 0, spec.name << ": degenerate LP");
      ratios.add(static_cast<double>(res.active_slots) / res.lp_value);
      repairs += res.repairs;
      mix.add(res.rounding);
    }
    const double secs = watch.seconds();
    doc_max_ratio = std::max(doc_max_ratio, ratios.max);

    table.add_row({spec.name, io::Table::num(std::int64_t(spec.count)),
                   io::Table::num(jobs), io::Table::num(secs, 4),
                   io::Table::num(ratios.avg(), 3),
                   io::Table::num(ratios.max, 3), io::Table::num(repairs),
                   io::Table::num(mix.threshold) + "/" +
                       io::Table::num(mix.sweep) + "/" +
                       io::Table::num(mix.greedy)});

    obs::Json j = obs::Json::object();
    j["name"] = spec.name;
    j["instances"] = static_cast<std::int64_t>(spec.count);
    j["jobs"] = jobs;
    j["solve_seconds"] = secs;
    j["avg_ratio_vs_lp"] = ratios.avg();
    j["max_ratio_vs_lp"] = ratios.max;
    j["repairs"] = repairs;
    j["rounding_threshold"] = mix.threshold;
    j["rounding_sweep"] = mix.sweep;
    j["rounding_greedy"] = mix.greedy;
    cells_json.push_back(std::move(j));
  }

  // Hard crossing chain: deterministic gadget sizes.
  {
    struct ChainSpec {
      std::int64_t g;
      int k;
    };
    std::vector<ChainSpec> chain = {{2, 4}, {3, 8}, {4, 12}};
    if (!smoke) chain.push_back({4, 24});
    bench::RatioStats ratios;
    std::int64_t jobs = 0, repairs = 0;
    RoundingMix mix;
    util::Stopwatch watch;
    for (const ChainSpec& c : chain) {
      const at::Instance instance = at::gen::hard_crossing(c.g, c.k);
      jobs += instance.num_jobs();
      const at::GeneralSolveResult res = at::solve_general(instance);
      NAT_CHECK_MSG(!res.lp_failed, "hard_crossing: LP failed");
      ratios.add(static_cast<double>(res.active_slots) / res.lp_value);
      repairs += res.repairs;
      mix.add(res.rounding);
    }
    const double secs = watch.seconds();
    doc_max_ratio = std::max(doc_max_ratio, ratios.max);

    table.add_row({"hard crossing chain",
                   io::Table::num(std::int64_t(chain.size())),
                   io::Table::num(jobs), io::Table::num(secs, 4),
                   io::Table::num(ratios.avg(), 3),
                   io::Table::num(ratios.max, 3), io::Table::num(repairs),
                   io::Table::num(mix.threshold) + "/" +
                       io::Table::num(mix.sweep) + "/" +
                       io::Table::num(mix.greedy)});

    obs::Json j = obs::Json::object();
    j["name"] = "hard crossing chain";
    j["instances"] = static_cast<std::int64_t>(chain.size());
    j["jobs"] = jobs;
    j["solve_seconds"] = secs;
    j["avg_ratio_vs_lp"] = ratios.avg();
    j["max_ratio_vs_lp"] = ratios.max;
    j["repairs"] = repairs;
    j["rounding_threshold"] = mix.threshold;
    j["rounding_sweep"] = mix.sweep;
    j["rounding_greedy"] = mix.greedy;
    cells_json.push_back(std::move(j));
  }

  // Laminar through the dispatcher: identity asserted, overhead timed.
  {
    const int count = smoke ? 10 : 40;
    std::int64_t jobs = 0;
    util::Stopwatch direct_watch;
    std::vector<at::NestedSolveResult> direct;
    for (int id = 0; id < count; ++id) {
      direct.push_back(at::solve_nested(bench::contended_instance(id, 3)));
    }
    const double direct_s = direct_watch.seconds();
    util::Stopwatch via_watch;
    for (int id = 0; id < count; ++id) {
      const at::Instance instance = bench::contended_instance(id, 3);
      jobs += instance.num_jobs();
      const at::ActiveTimeResult via = at::solve_active_time(instance);
      NAT_CHECK_MSG(via.backend == at::Backend::kNested,
                    "dispatcher sent laminar input to "
                        << at::to_string(via.backend));
      NAT_CHECK_MSG(via.schedule.assignment ==
                            direct[static_cast<std::size_t>(id)]
                                .schedule.assignment &&
                        via.active_slots ==
                            direct[static_cast<std::size_t>(id)].active_slots,
                    "dispatcher diverged from solve_nested on id " << id);
    }
    const double via_s = via_watch.seconds();

    table.add_row({"laminar via dispatcher",
                   io::Table::num(std::int64_t(count)), io::Table::num(jobs),
                   io::Table::num(via_s, 4), "-", "-", "-", "-"});

    obs::Json j = obs::Json::object();
    j["name"] = "laminar via dispatcher";
    j["instances"] = static_cast<std::int64_t>(count);
    j["jobs"] = jobs;
    j["solve_seconds"] = via_s;
    j["direct_seconds"] = direct_s;
    cells_json.push_back(std::move(j));
  }

  table.print_markdown(std::cout);
  doc["general_cells"] = std::move(cells_json);
  doc["max_ratio_vs_lp"] = doc_max_ratio;
  std::cout << "\nworst ALG/LP ratio: " << doc_max_ratio
            << " (2-approx guarantee: 2)\n";

  bench::write_bench_json(doc, out_path);
  return 0;
}
