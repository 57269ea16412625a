#include "activetime/opt_bounds.hpp"

#include <algorithm>

#include "activetime/oracle.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"

namespace nat::at {

bool opt_le_1(const LaminarForest& forest, int node) {
  std::vector<int> bearing;  // job-bearing nodes under `node`
  std::int64_t count = 0;
  for (int v : forest.subtree(node)) {
    if (forest.node(v).jobs.empty()) continue;
    bearing.push_back(v);
    for (int j : forest.node(v).jobs) {
      if (forest.jobs()[j].processing != 1) return false;
      ++count;
    }
  }
  if (count == 0) return true;
  if (count > forest.g()) return false;
  // Chain test: every job-bearing node must be an ancestor of the
  // (then unique) deepest one.
  int deepest = bearing.front();
  for (int v : bearing) {
    if (forest.depth(v) > forest.depth(deepest)) deepest = v;
  }
  for (int v : bearing) {
    if (!forest.is_ancestor(v, deepest)) return false;
  }
  return true;
}

bool opt_le_2(const LaminarForest& forest, int node) {
  if (opt_le_1(forest, node)) return true;
  // Quick necessary conditions.
  std::int64_t volume = 0;
  for (int v : forest.subtree(node)) {
    for (int j : forest.node(v).jobs) {
      const std::int64_t p = forest.jobs()[j].processing;
      if (p > 2) return false;
      volume += p;
    }
  }
  if (volume > 2 * forest.g()) return false;

  const std::vector<int> des = forest.subtree(node);
  // One subtree-scoped oracle serves every candidate pair: consecutive
  // queries differ in at most four entries, so each probe is a tiny
  // capacity diff plus a warm-started augmentation instead of a fresh
  // graph build (this sweep is the strong LP's ceiling-constraint
  // bottleneck).
  FeasibilityOracle oracle(forest, node);
  std::vector<Time> open(forest.num_nodes(), 0);
  auto pair_feasible = [&](int a, Time ca, int b, Time cb) {
    open[a] += ca;
    open[b] += cb;
    const bool ok = oracle.feasible(open);
    open[a] -= ca;
    open[b] -= cb;
    return ok;
  };
  // Two slots in one region, or one in each of two regions.
  for (std::size_t ia = 0; ia < des.size(); ++ia) {
    const int a = des[ia];
    const Time la = forest.node(a).length();
    if (la >= 2 && pair_feasible(a, 2, a, 0)) return true;
    if (la < 1) continue;
    for (std::size_t ib = ia + 1; ib < des.size(); ++ib) {
      const int b = des[ib];
      if (forest.node(b).length() < 1) continue;
      if (pair_feasible(a, 1, b, 1)) return true;
    }
  }
  return false;
}

int opt_lower_bound(const LaminarForest& forest, int node) {
  if (opt_le_1(forest, node)) return 1;
  if (opt_le_2(forest, node)) return 2;
  return 3;
}

std::vector<int> ceiling_lower_bounds(const LaminarForest& forest) {
  static obs::Counter& c_serial = obs::counter("at.ceiling_sweep.serial");
  static obs::Counter& c_nodes = obs::counter("at.ceiling_sweep.nodes");
  const int m = forest.num_nodes();
  std::vector<int> lower(static_cast<std::size_t>(m), 1);
  for (int i = 0; i < m; ++i) lower[i] = opt_lower_bound(forest, i);
  c_nodes.add(m);
  c_serial.add(1);
  return lower;
}

}  // namespace nat::at
