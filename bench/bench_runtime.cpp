// E7 — runtime scaling of the pipeline stages (google-benchmark).
//
// The paper's algorithm is polynomial; this harness shows where the
// time goes as the instance grows: LP build, LP solve, transform +
// rounding, the flow oracle, and the end-to-end solve, plus the greedy
// baseline and (on small sizes) the exact B&B for contrast.
#include <benchmark/benchmark.h>

#include "activetime/feasibility.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/rounding.hpp"
#include "activetime/solver.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "instances/generators.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/sparse_simplex.hpp"
#include "util/rng.hpp"

using namespace nat;

namespace {

/// Deterministic laminar instance with roughly `groups * 3` jobs.
at::Instance sized_instance(int groups) {
  at::gen::ContendedParams params;
  params.g = 4;
  params.min_groups = groups;
  params.max_groups = groups;
  params.max_long_jobs = 2;
  util::Rng rng(77);
  return at::gen::random_contended(params, rng);
}

void BM_TreeBuild(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    at::LaminarForest f = at::LaminarForest::build(inst);
    f.canonicalize();
    benchmark::DoNotOptimize(f.num_nodes());
  }
  state.SetLabel("n=" + std::to_string(inst.num_jobs()));
}
BENCHMARK(BM_TreeBuild)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LpBuild(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  for (auto _ : state) {
    at::StrongLp lp = at::build_strong_lp(f);
    benchmark::DoNotOptimize(lp.model.num_rows());
  }
  state.SetLabel("n=" + std::to_string(inst.num_jobs()));
}
BENCHMARK(BM_LpBuild)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LpSolve(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  at::StrongLp lp = at::build_strong_lp(f);
  for (auto _ : state) {
    lp::Solution s = lp::solve(lp.model);
    benchmark::DoNotOptimize(s.objective);
  }
  state.SetLabel("rows=" + std::to_string(lp.model.num_rows()));
}
BENCHMARK(BM_LpSolve)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_TransformAndRound(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  at::StrongLp lp = at::build_strong_lp(f);
  lp::Solution s = lp::solve(lp.model);
  const at::FractionalSolution base = at::unpack(lp, s);
  for (auto _ : state) {
    at::FractionalSolution frac = base;
    at::push_down_transform(f, lp, frac);
    auto topmost = at::topmost_positive(f, frac.x);
    auto rounded = at::round_solution(f, frac.x, topmost);
    benchmark::DoNotOptimize(rounded.total);
  }
}
BENCHMARK(BM_TransformAndRound)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_FlowOracle(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  std::vector<at::Time> full(f.num_nodes());
  for (int i = 0; i < f.num_nodes(); ++i) full[i] = f.node(i).length();
  for (auto _ : state) {
    benchmark::DoNotOptimize(at::feasible_with_counts(f, full));
  }
}
BENCHMARK(BM_FlowOracle)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EndToEnd(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    at::NestedSolveResult r = at::solve_nested(inst);
    benchmark::DoNotOptimize(r.active_slots);
  }
  state.SetLabel("n=" + std::to_string(inst.num_jobs()));
}
BENCHMARK(BM_EndToEnd)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GreedyBaseline(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = at::baselines::greedy_minimal_feasible(inst);
    benchmark::DoNotOptimize(r.active_slots);
  }
}
BENCHMARK(BM_GreedyBaseline)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ExactBranchAndBound(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = at::baselines::exact_opt_laminar(inst);
    benchmark::DoNotOptimize(r.has_value());
  }
}
BENCHMARK(BM_ExactBranchAndBound)->Arg(4)->Arg(6)->Arg(8);

void BM_LpSolveSparse(benchmark::State& state) {
  const at::Instance inst = sized_instance(static_cast<int>(state.range(0)));
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  at::StrongLp lp = at::build_strong_lp(f);
  for (auto _ : state) {
    lp::Solution s = lp::solve_sparse(lp.model);
    benchmark::DoNotOptimize(s.objective);
  }
  state.SetLabel("rows=" + std::to_string(lp.model.num_rows()));
}
BENCHMARK(BM_LpSolveSparse)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_TimeIndexedCwLp(benchmark::State& state) {
  const at::Instance inst =
      at::gen::lemma51_gap(static_cast<std::int64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        at::cw_lp_value(inst, at::CeilingIntervals::kEventAligned));
  }
}
BENCHMARK(BM_TimeIndexedCwLp)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
