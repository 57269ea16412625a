// bench_oracle — the incremental feasibility oracle vs fresh
// per-query solves.
//
// The solver's real query traffic — feasibility precheck, trim to
// minimality, then a repair walk with probe scans — replayed once per
// instance against (a) fresh feasible_with_counts solves and (b) one
// warm-started FeasibilityOracle. Final count vectors are asserted
// identical. Recorded to BENCH_oracle.json (--out) so the perf
// trajectory accumulates across PRs (docs/PERFORMANCE.md).
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "activetime/feasibility.hpp"
#include "activetime/oracle.hpp"
#include "activetime/tree.hpp"
#include "bench/common.hpp"
#include "io/table.hpp"
#include "obs/report.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

using namespace nat;
using at::LaminarForest;
using at::Time;

namespace {

/// The three oracle operations the replay needs, so the same driver
/// runs against fresh solves and the incremental oracle.
struct Engine {
  std::function<bool(const std::vector<Time>&)> feasible;
  // Probe "+1 on region i" against `counts` (may briefly mutate it).
  std::function<bool(std::vector<Time>&, int)> probe;
  // Min-cut filter; the fresh engine has no certificate and probes all.
  std::function<bool(int)> can_help;
};

Engine fresh_engine(const LaminarForest& forest) {
  Engine e;
  e.feasible = [&forest](const std::vector<Time>& c) {
    return at::feasible_with_counts(forest, c);
  };
  e.probe = [&forest](std::vector<Time>& c, int i) {
    ++c[i];
    const bool ok = at::feasible_with_counts(forest, c);
    --c[i];
    return ok;
  };
  e.can_help = [](int) { return true; };
  return e;
}

Engine incremental_engine(at::FeasibilityOracle& oracle) {
  Engine e;
  e.feasible = [&oracle](const std::vector<Time>& c) {
    return oracle.feasible(c);
  };
  e.probe = [&oracle](std::vector<Time>&, int i) {
    return oracle.feasible_if_incremented(i);
  };
  e.can_help = [&oracle](int i) { return oracle.increment_can_help(i); };
  return e;
}

/// Replays the solver's oracle traffic on one forest: precheck at
/// all-open, trim to minimality, close every other open region, repair
/// back with probe scans. Returns the query count; writes the final
/// vector for cross-engine equality checks.
std::int64_t replay(const LaminarForest& forest, const Engine& eng,
                    std::vector<Time>* final_counts) {
  const int m = forest.num_nodes();
  std::int64_t queries = 0;
  auto feasible = [&](const std::vector<Time>& c) {
    ++queries;
    return eng.feasible(c);
  };

  std::vector<Time> counts(m);
  for (int i = 0; i < m; ++i) counts[i] = forest.node(i).length();
  NAT_CHECK_MSG(feasible(counts), "generator produced infeasible instance");
  for (int i = 0; i < m; ++i) {
    while (counts[i] > 0) {
      --counts[i];
      if (feasible(counts)) continue;
      ++counts[i];
      break;
    }
  }

  int closed = 0;
  for (int i = 0; i < m && closed < 8; i += 2) {
    if (counts[i] > 0) {
      --counts[i];
      ++closed;
    }
  }
  while (!feasible(counts)) {
    int chosen = -1;
    for (int i = 0; i < m; ++i) {
      if (counts[i] >= forest.node(i).length()) continue;
      if (chosen < 0) chosen = i;
      if (!eng.can_help(i)) continue;
      ++queries;
      if (eng.probe(counts, i)) {
        chosen = i;
        break;
      }
    }
    NAT_CHECK(chosen >= 0);
    ++counts[chosen];
  }
  *final_counts = counts;
  return queries;
}

at::Instance large_instance(int id, std::int64_t g) {
  at::gen::RandomLaminarParams params;
  params.g = g;
  params.max_depth = 5;
  params.max_children = 3;
  params.max_jobs_per_node = 4;
  params.max_processing = 6;
  util::Rng rng(700 + id);
  return at::gen::random_laminar(params, rng);
}

struct OracleCell {
  std::string name;
  at::Instance (*make)(int, std::int64_t);
  std::int64_t g;
  int instances;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_oracle.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") smoke = true;
    if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
  }

  obs::Json doc = obs::Json::object();
  // v3: the serial-vs-pooled ceiling-sweep cells are gone with the
  // pooled sweep itself (the sweep is serial); v2 added the cpu stamp.
  doc["schema"] = "nat-bench-oracle-v3";
  doc["smoke"] = smoke;

  // --- oracle replay: fresh vs incremental --------------------------------
  const std::vector<OracleCell> cells = {
      {"loose laminar (g=3)", bench::loose_instance, 3, 40},
      {"contended (g=6)", bench::contended_instance, 6, 40},
      {"large laminar (g=8)", large_instance, 8, 12},
  };

  std::cout << "# bench_oracle — incremental feasibility oracle\n\n"
            << "Replay of the solver's precheck/trim/repair query traffic"
               " per instance;\nfresh = rebuild + solve per query,"
               " incremental = one warm-started oracle.\n\n";
  io::Table table({"cell", "instances", "queries", "fresh s", "incr s",
                   "speedup", "warm hit rate"});
  obs::Json cells_json = obs::Json::array();
  for (const OracleCell& cell : cells) {
    const int instances = smoke ? std::min(cell.instances, 3) : cell.instances;
    std::vector<LaminarForest> forests;
    for (int id = 0; id < instances; ++id) {
      LaminarForest f = LaminarForest::build(cell.make(id, cell.g));
      f.canonicalize();
      forests.push_back(std::move(f));
    }

    std::int64_t queries = 0;
    std::vector<std::vector<Time>> fresh_counts(forests.size());
    util::Stopwatch fresh_watch;
    for (std::size_t k = 0; k < forests.size(); ++k) {
      Engine eng = fresh_engine(forests[k]);
      queries += replay(forests[k], eng, &fresh_counts[k]);
    }
    const double fresh_s = fresh_watch.seconds();

    bench::begin_cell_metrics();
    obs::counter("at.oracle.queries").reset();  // scope the hit rate
    obs::counter("at.oracle.warm_queries").reset();
    util::Stopwatch incr_watch;
    for (std::size_t k = 0; k < forests.size(); ++k) {
      at::FeasibilityOracle oracle(forests[k]);
      Engine eng = incremental_engine(oracle);
      std::vector<Time> counts;
      replay(forests[k], eng, &counts);
      NAT_CHECK_MSG(counts == fresh_counts[k],
                    "engines disagree on " << cell.name << " #" << k);
    }
    const double incr_s = incr_watch.seconds();
    const std::int64_t oracle_queries =
        obs::counter("at.oracle.queries").value();
    const double hit_rate =
        oracle_queries > 0
            ? static_cast<double>(
                  obs::counter("at.oracle.warm_queries").value()) /
                  static_cast<double>(oracle_queries)
            : 0.0;
    const double speedup = incr_s > 0 ? fresh_s / incr_s : 0.0;

    table.add_row({cell.name, io::Table::num(std::int64_t{instances}),
                   io::Table::num(queries), io::Table::num(fresh_s, 4),
                   io::Table::num(incr_s, 4), io::Table::num(speedup, 2),
                   io::Table::num(hit_rate, 3)});

    obs::Json j = obs::Json::object();
    j["name"] = cell.name;
    j["instances"] = std::int64_t{instances};
    j["queries"] = queries;
    j["fresh_seconds"] = fresh_s;
    j["incremental_seconds"] = incr_s;
    j["speedup"] = speedup;
    j["warm_hit_rate"] = hit_rate;
    cells_json.push_back(std::move(j));

    obs::RunSummary summary;
    summary.solver = "oracle_replay";
    summary.jobs = instances;
    bench::emit_cell_report("bench_oracle", cell.name, summary, incr_s);
  }
  table.print_markdown(std::cout);
  doc["oracle_cells"] = std::move(cells_json);

  bench::write_bench_json(doc, out_path);
  return 0;
}
