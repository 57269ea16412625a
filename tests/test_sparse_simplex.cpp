#include "lp/sparse_simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "activetime/lp_relaxation.hpp"
#include "activetime/solver.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "activetime/tree.hpp"
#include "helpers.hpp"
#include "instances/generators.hpp"
#include "lp/backend.hpp"
#include "lp/exact_simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nat::lp {
namespace {

TEST(SparseSimplex, TrivialAndBounds) {
  // min -x - y with x in [1, 2], y in [0, 3], x + y <= 4.
  Model m;
  int x = m.add_variable("x", 1.0, 2.0, -1.0);
  int y = m.add_variable("y", 0.0, 3.0, -1.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve_sparse(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
}

TEST(SparseSimplex, PureBoundFlipOptimum) {
  // Optimum reached by a single bound flip, no pivots.
  Model m;
  int x = m.add_variable("x", 0.0, 5.0, -1.0);
  m.add_row(Sense::kLe, 100.0, {{x, 1.0}});
  SparseStats stats;
  Solution s = solve_sparse(m, {}, &stats);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[x], 5.0, 1e-9);
  EXPECT_EQ(stats.pivots, 0);
  EXPECT_EQ(stats.bound_flips, 1);
}

TEST(SparseSimplex, StatusesMatchDenseBackend) {
  {
    Model m;
    int x = m.add_variable("x", 0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve_sparse(m).status, Status::kInfeasible);
  }
  {
    Model m;
    int x = m.add_variable("x", 0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{x, 1.0}});
    EXPECT_EQ(solve_sparse(m).status, Status::kUnbounded);
  }
  {
    Model m;
    int x = m.add_variable("x", 0.0, kInf, 1.0);
    int y = m.add_variable("y", 0.0, kInf, 1.0);
    m.add_row(Sense::kEq, 4.0, {{x, 1.0}, {y, 2.0}});
    m.add_row(Sense::kEq, 1.0, {{x, 1.0}, {y, -1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.x[x], 2.0, 1e-8);
    EXPECT_NEAR(s.x[y], 1.0, 1e-8);
  }
}

TEST(SparseSimplex, FixedAndFreeVariables) {
  {
    Model m;
    int x = m.add_variable("x", 3.0, 3.0, -10.0);  // fixed
    int y = m.add_variable("y", 0.0, kInf, 1.0);
    m.add_row(Sense::kGe, 5.0, {{x, 1.0}, {y, 1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.x[x], 3.0, 1e-9);
    EXPECT_NEAR(s.x[y], 2.0, 1e-8);
  }
  {
    Model m;
    int x = m.add_variable("x", -kInf, kInf, 1.0);
    m.add_row(Sense::kGe, -7.0, {{x, 1.0}});
    Solution s = solve_sparse(m);
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.objective, -7.0, 1e-8);
  }
}

TEST(SparseSimplex, RedundantRowsKeepArtificialsPinned) {
  // Duplicated equalities leave a basic artificial on a redundant row;
  // the revised backend pins it at zero instead of deleting the row.
  Model m;
  int x = m.add_variable("x", 0.0, kInf, 1.0);
  int y = m.add_variable("y", 0.0, kInf, 2.0);
  m.add_row(Sense::kEq, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEq, 6.0, {{x, 2.0}, {y, 2.0}});
  Solution s = solve_sparse(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
  EXPECT_NEAR(s.x[x], 3.0, 1e-8);
}

TEST(SparseSimplex, BealeCyclingInstance) {
  // Beale's classic cycling example: Dantzig pricing with most-negative
  // tie-breaks cycles forever without an anti-cycling rule; the Bland
  // fallback must terminate it at the optimum (-0.05).
  Model m;
  int x1 = m.add_variable("x1", 0.0, kInf, -0.75);
  int x2 = m.add_variable("x2", 0.0, kInf, 150.0);
  int x3 = m.add_variable("x3", 0.0, kInf, -0.02);
  int x4 = m.add_variable("x4", 0.0, kInf, 6.0);
  m.add_row(Sense::kLe, 0.0,
            {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}});
  m.add_row(Sense::kLe, 0.0,
            {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}});
  m.add_row(Sense::kLe, 1.0, {{x3, 1.0}});
  Solution sparse = solve_sparse(m);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, -0.05, 1e-9);
  Solution dense = solve(m);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-9);
}

TEST(SparseSimplex, HighlyDegenerateTransportation) {
  // Degenerate assignment polytope: every basic feasible solution has
  // many basic variables at zero, so most pivots make no progress.
  constexpr int kN = 6;
  Model m;
  std::vector<std::vector<int>> v(kN, std::vector<int>(kN));
  util::Rng rng(4242);
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      v[i][j] = m.add_variable("a", 0.0, 1.0,
                               static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
  for (int i = 0; i < kN; ++i) {
    std::vector<std::pair<int, double>> row, col;
    for (int j = 0; j < kN; ++j) {
      row.push_back({v[i][j], 1.0});
      col.push_back({v[j][i], 1.0});
    }
    m.add_row(Sense::kEq, 1.0, row);
    m.add_row(Sense::kEq, 1.0, col);
  }
  Solution sparse = solve_sparse(m);
  Solution dense = solve(m);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-8);
  EXPECT_LE(m.max_violation(sparse.x), 1e-7);
}

TEST(SparseSimplex, RefactorizationKeepsLongSolvesAccurate) {
  // A chain LP long enough to force several refactorization cycles;
  // the final objective must still match the exact rational optimum.
  constexpr int kLinks = 120;
  Model m;
  std::vector<int> x(kLinks);
  for (int i = 0; i < kLinks; ++i) {
    x[i] = m.add_variable("x", 0.0, 10.0, i % 3 == 0 ? 1.0 : -1.0);
  }
  for (int i = 0; i + 1 < kLinks; ++i) {
    m.add_row(Sense::kLe, 12.0, {{x[i], 1.0}, {x[i + 1], 1.0}});
  }
  m.add_row(Sense::kGe, 4.0, {{x[0], 1.0}, {x[kLinks - 1], 1.0}});
  SparseStats stats;
  Solution sparse = solve_sparse(m, {}, &stats);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ExactSolution exact = solve_exact(m);
  ASSERT_EQ(exact.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, exact.objective.to_double(),
              1e-9 * (1.0 + std::abs(sparse.objective)));
  EXPECT_LE(m.max_violation(sparse.x), 1e-7);
}

// --- differential sweep vs dense/exact on random LPs ---------------------

// Random LPs with heavy use of finite upper bounds, so the bound-flip
// branch of the ratio test runs on most of them. The parameter is the
// seed.
class SparseAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SparseAgreement, MatchesDenseAndExact) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int nvars = static_cast<int>(rng.uniform_int(1, 7));
  const int nrows = static_cast<int>(rng.uniform_int(1, 8));
  Model m;
  for (int i = 0; i < nvars; ++i) {
    const double lo = static_cast<double>(rng.uniform_int(0, 2));
    const double hi =
        rng.chance(0.7) ? lo + static_cast<double>(rng.uniform_int(0, 7))
                        : kInf;
    m.add_variable("v", lo, hi, static_cast<double>(rng.uniform_int(-4, 4)));
  }
  for (int r = 0; r < nrows; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < nvars; ++i) {
      if (rng.chance(0.6)) {
        row.push_back({i, static_cast<double>(rng.uniform_int(-3, 3))});
      }
    }
    if (row.empty()) row.push_back({0, 1.0});
    const Sense sense = rng.chance(0.3)   ? Sense::kEq
                        : rng.chance(0.5) ? Sense::kGe
                                          : Sense::kLe;
    m.add_row(sense, static_cast<double>(rng.uniform_int(-6, 10)), row);
  }
  Solution sparse = solve_sparse(m);
  Solution dense = solve(m);
  ASSERT_NE(sparse.status, Status::kIterLimit) << "sparse hit the cap";
  ASSERT_NE(dense.status, Status::kIterLimit);
  EXPECT_EQ(sparse.status, dense.status);
  if (dense.status == Status::kOptimal) {
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * (1.0 + std::abs(dense.objective)));
    EXPECT_LE(m.max_violation(sparse.x), 1e-6)
        << "sparse backend returned an infeasible point";
    ExactSolution exact = solve_exact(m);
    ASSERT_EQ(exact.status, Status::kOptimal);
    EXPECT_NEAR(sparse.objective, exact.objective.to_double(),
                1e-6 * (1.0 + std::abs(dense.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparseAgreement,
                         ::testing::Range(91000, 91200));
INSTANTIATE_TEST_SUITE_P(BoundHeavy, SparseAgreement,
                         ::testing::Range(81000, 81200));

// --- the repository's real LP corpus -------------------------------------

/// Solves the strong LP of `inst` through sparse and dense and checks
/// the 1e-9-relative agreement the CI perf gate also relies on.
void check_strong_lp_agreement(const at::Instance& inst) {
  at::LaminarForest f = at::LaminarForest::build(inst);
  f.canonicalize();
  at::StrongLp lp = at::build_strong_lp(f);
  Solution sparse = solve_sparse(lp.model);
  Solution dense = solve(lp.model);
  ASSERT_EQ(sparse.status, Status::kOptimal);
  ASSERT_EQ(dense.status, Status::kOptimal);
  EXPECT_NEAR(sparse.objective, dense.objective,
              1e-9 * (1.0 + std::abs(dense.objective)));
  EXPECT_LE(lp.model.max_violation(sparse.x), 1e-7);
}

TEST(SparseSimplexCorpus, StrongLpFamilies) {
  for (int id = 0; id < 8; ++id) {
    {
      at::gen::RandomLaminarParams params;
      params.g = 3;
      params.max_depth = 3;
      params.max_children = 3;
      params.max_jobs_per_node = 3;
      params.max_processing = 4;
      util::Rng rng(100 + id);
      check_strong_lp_agreement(at::gen::random_laminar(params, rng));
    }
    {
      at::gen::ContendedParams params;
      params.g = 6;
      params.min_groups = 2;
      params.max_groups = 6;
      util::Rng rng(300 + id);
      check_strong_lp_agreement(at::gen::random_contended(params, rng));
    }
  }
}

TEST(SparseSimplexCorpus, MixedStrongLps) {
  // The strong LPs of the shared mixed test family: loose random
  // laminar (even ids) and contended (odd ids) instances.
  for (int id = 0; id < 30; ++id) {
    SCOPED_TRACE("mixed instance " + std::to_string(id));
    check_strong_lp_agreement(at::testing::mixed(id));
  }
}

TEST(SparseSimplexCorpus, TimeIndexedLps) {
  for (int id = 0; id < 6; ++id) {
    at::gen::ContendedParams params;
    params.g = 4;
    params.min_groups = 2;
    params.max_groups = 4;
    util::Rng rng(500 + id);
    const at::Instance inst = at::gen::random_contended(params, rng);
    at::TimeIndexedLp lp =
        at::build_time_indexed_lp(inst, at::CeilingIntervals::kEventAligned);
    Solution sparse = solve_sparse(lp.model);
    Solution dense = solve(lp.model);
    ASSERT_EQ(sparse.status, Status::kOptimal);
    ASSERT_EQ(dense.status, Status::kOptimal);
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)));
  }
}

// --- warm-import ladder (solve_sparse_warm) -------------------------------

/// The strong LP of a contended instance: big enough to refactorize,
/// fractional enough that its optimal face is not a single vertex.
Model contended_strong_lp(std::uint64_t seed, int groups) {
  at::gen::ContendedParams params;
  params.g = 4;
  params.min_groups = groups;
  params.max_groups = groups;
  util::Rng rng(seed);
  at::LaminarForest f =
      at::LaminarForest::build(at::gen::random_contended(params, rng));
  f.canonicalize();
  return at::build_strong_lp(f).model;
}

TEST(SparseSimplexWarm, OwnExportedBasisIsAWarmHit) {
  // A Basis snapshot records structural statuses only; the import
  // completes uncovered rows with logical columns. Here y (the only
  // basic structural; x and z sit at their upper bounds) pivots on row
  // 0, its largest entry, which leaves rows 1 and 2 to their slacks,
  // both basic at the optimum: the re-import rebuilds the exporting
  // basis exactly, so nothing moves.
  Model m;
  const int x = m.add_variable("x", 0.0, 3.0, -1.0);
  const int y = m.add_variable("y", 0.0, kInf, -1.0);
  const int z = m.add_variable("z", 0.0, 2.0, -3.0);
  m.add_row(Sense::kLe, 5.0, {{x, 1.0}, {y, 2.0}});
  m.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  m.add_row(Sense::kGe, 1.0, {{y, 1.0}, {z, 1.0}});
  Basis basis;
  const Solution cold = solve_sparse_warm(m, {}, {nullptr, &basis, false});
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_EQ(basis.variables[y], VarStatus::kBasic);

  SparseStats stats;
  const Solution warm =
      solve_sparse_warm(m, {}, {&basis, nullptr, false}, &stats);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_EQ(stats.warm_hit, 1);
  EXPECT_EQ(stats.warm_repair, 0);
  EXPECT_EQ(stats.cold_fallback, 0);
  EXPECT_EQ(stats.pivots, 0);
  EXPECT_EQ(stats.bound_flips, 0);
  EXPECT_EQ(stats.dual_pivots, 0);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.x, cold.x);
}

TEST(SparseSimplexWarm, OwnExportedBasisNeverFallsBackCold) {
  // On strong LPs the import's logical completion usually differs from
  // the exporting basis (partial pivoting picks the rows), so the
  // ladder may need dual pivots: a hit or a repair, never a cold
  // fallback, and the optimum is the same.
  for (std::uint64_t seed = 7110; seed < 7118; ++seed) {
    const Model m = contended_strong_lp(seed, 6);
    Basis basis;
    const Solution cold = solve_sparse_warm(m, {}, {nullptr, &basis, false});
    ASSERT_EQ(cold.status, Status::kOptimal);
    SparseStats stats;
    const Solution warm =
        solve_sparse_warm(m, {}, {&basis, nullptr, false}, &stats);
    ASSERT_EQ(warm.status, Status::kOptimal);
    EXPECT_EQ(stats.cold_fallback, 0) << "seed " << seed;
    EXPECT_EQ(stats.warm_hit + stats.warm_repair, 1) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::abs(cold.objective)));
  }
}

TEST(SparseSimplexWarm, DependentBasicColumnsRepairThroughDrops) {
  // x and y have identical columns, so a hint marking both basic is
  // singular: the import drops one, patches its row with a logical
  // column, and the primal phase finishes from there.
  Model m;
  const int x = m.add_variable("x", 0.0, 4.0, -1.0);
  const int y = m.add_variable("y", 0.0, 4.0, -1.0);
  const int z = m.add_variable("z", 0.0, 3.0, -2.0);
  m.add_row(Sense::kLe, 5.0, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  m.add_row(Sense::kLe, 3.0, {{x, 2.0}, {y, 2.0}});
  m.add_row(Sense::kGe, 1.0, {{x, 1.0}, {y, 1.0}, {z, -1.0}});
  const Solution cold = solve_sparse(m);
  ASSERT_EQ(cold.status, Status::kOptimal);

  Basis hint;
  hint.variables = {VarStatus::kBasic, VarStatus::kBasic,
                    VarStatus::kAtLower};
  SparseStats stats;
  const Solution warm =
      solve_sparse_warm(m, {}, {&hint, nullptr, false}, &stats);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_EQ(stats.warm_repair, 1);
  EXPECT_EQ(stats.warm_hit, 0);
  EXPECT_EQ(stats.cold_fallback, 0);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_LE(m.max_violation(warm.x), 1e-9);
}

TEST(SparseSimplexWarm, WrongSizeHintFallsBackToCold) {
  const Model m = contended_strong_lp(7200, 5);
  SparseStats cold_stats;
  const Solution cold = solve_sparse(m, {}, &cold_stats);
  ASSERT_EQ(cold.status, Status::kOptimal);

  Basis hint;
  hint.variables.assign(static_cast<std::size_t>(m.num_variables()) + 3,
                        VarStatus::kBasic);
  SparseStats stats;
  const Solution warm =
      solve_sparse_warm(m, {}, {&hint, nullptr, false}, &stats);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_EQ(stats.cold_fallback, 1);
  EXPECT_EQ(stats.warm_hit, 0);
  EXPECT_EQ(stats.warm_repair, 0);
  // The fallback is the cold path itself: same pivots, same point.
  EXPECT_EQ(stats.pivots, cold_stats.pivots);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.x, cold.x);
}

TEST(SparseSimplexWarm, CanonicalWarmAndColdReachTheSameVertex) {
  // The face walk makes the vertex independent of the starting basis.
  // The warm and cold solves reach it through different eta files, so
  // basic values may differ in the last few ulps, not more.
  for (std::uint64_t seed : {7300u, 7301u, 7302u}) {
    const Model m = contended_strong_lp(seed, 6);
    // The hint is the non-canonical optimum: the warm solve starts from
    // another vertex of the optimal face than the one the walk ends on.
    Basis hint;
    ASSERT_EQ(solve_sparse_warm(m, {}, {nullptr, &hint, false}).status,
              Status::kOptimal);
    const Solution cold = solve_sparse_warm(m, {}, {nullptr, nullptr, true});
    SparseStats stats;
    const Solution warm =
        solve_sparse_warm(m, {}, {&hint, nullptr, true}, &stats);
    ASSERT_EQ(cold.status, Status::kOptimal);
    ASSERT_EQ(warm.status, Status::kOptimal);
    EXPECT_EQ(stats.cold_fallback, 0) << "seed " << seed;
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (std::size_t i = 0; i < cold.x.size(); ++i) {
      EXPECT_NEAR(warm.x[i], cold.x[i], 1e-12)
          << "seed " << seed << " var " << i;
    }
  }
}

// --- pinned solver statistics ----------------------------------------------

/// Pivot-level statistics of a cold solve_sparse on seeded corpus LPs,
/// pinned exactly. The pivot sequence is a pure function of the model
/// and the factorization's arithmetic, so a change to either that moves
/// one pivot or one eta entry shows up here. If a change means to move
/// them, re-record the table and say so in the change description.
struct PinnedStats {
  std::int64_t pivots, bound_flips, degenerate, refactorizations,
      eta_nonzeros;
};

void expect_pinned(const char* name, const Model& m,
                   const PinnedStats& want) {
  SparseStats got;
  ASSERT_EQ(solve_sparse(m, {}, &got).status, Status::kOptimal) << name;
  EXPECT_EQ(got.pivots, want.pivots) << name;
  EXPECT_EQ(got.bound_flips, want.bound_flips) << name;
  EXPECT_EQ(got.degenerate, want.degenerate) << name;
  EXPECT_EQ(got.refactorizations, want.refactorizations) << name;
  EXPECT_EQ(got.eta_nonzeros, want.eta_nonzeros) << name;
}

TEST(SparseSimplexPinned, SpanningTreeStrongLps) {
  // One long job spanning 24 saturated sibling groups: a single window
  // tree, the shape whose LP dominates a one-group solve.
  const PinnedStats want[] = {
      {274, 59, 202, 3, 2263},
      {175, 53, 127, 1, 837},
      {267, 52, 161, 2, 2330},
  };
  for (int k = 0; k < 3; ++k) {
    const std::string name = "contended-24 seed " + std::to_string(7400 + k);
    expect_pinned(name.c_str(), contended_strong_lp(7400 + k, 24), want[k]);
  }
}

TEST(SparseSimplexPinned, TimeIndexedLps) {
  const PinnedStats want[] = {
      {360, 57, 278, 3, 2532},
      {479, 72, 376, 4, 3593},
      {390, 60, 295, 3, 4368},
  };
  for (int k = 0; k < 3; ++k) {
    at::gen::RandomGeneralParams params;
    params.g = 4;
    params.jobs = 60;
    params.horizon = 80;
    params.max_length = 10;
    util::Rng rng(7500 + k);
    const at::Instance inst = at::gen::random_general(params, rng);
    const std::string name = "general-60 seed " + std::to_string(7500 + k);
    expect_pinned(name.c_str(),
                  at::build_time_indexed_lp(inst).model, want[k]);
  }
}

// --- backend dispatch -----------------------------------------------------

TEST(LpBackend, ParseAndNames) {
  EXPECT_EQ(parse_backend(nullptr), BackendKind::kSparse);
  EXPECT_EQ(parse_backend(""), BackendKind::kSparse);
  EXPECT_EQ(parse_backend("sparse"), BackendKind::kSparse);
  EXPECT_EQ(parse_backend("check"), BackendKind::kCheck);
  EXPECT_THROW(parse_backend("tableau"), util::CheckError);
  // Names of removed backends must fail, not fall back to sparse.
  EXPECT_THROW(parse_backend("dense"), util::CheckError);
  EXPECT_THROW(parse_backend("bounded"), util::CheckError);
  EXPECT_STREQ(backend_name(BackendKind::kSparse), "sparse");
  EXPECT_STREQ(backend_name(BackendKind::kCheck), "check");
}

TEST(LpBackend, AllKindsAgreeOnAModel) {
  Model m;
  int x = m.add_variable("x", 0.0, 4.0, -1.0);
  int y = m.add_variable("y", 0.0, kInf, -2.0);
  m.add_row(Sense::kLe, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 2.0}});
  const double expected = -10.0;  // x=2, y=4
  for (BackendKind kind : {BackendKind::kSparse, BackendKind::kCheck}) {
    Solution s = solve_with(kind, m);
    ASSERT_EQ(s.status, Status::kOptimal) << backend_name(kind);
    EXPECT_NEAR(s.objective, expected, 1e-8) << backend_name(kind);
  }
}

TEST(LpBackend, CheckModeCoversInfeasibleAndUnbounded) {
  {
    Model m;
    int x = m.add_variable("x", 0.0, 1.0, 1.0);
    m.add_row(Sense::kGe, 2.0, {{x, 1.0}});
    EXPECT_EQ(solve_with(BackendKind::kCheck, m).status, Status::kInfeasible);
  }
  {
    Model m;
    int x = m.add_variable("x", 0.0, kInf, -1.0);
    m.add_row(Sense::kGe, 0.0, {{x, 1.0}});
    EXPECT_EQ(solve_with(BackendKind::kCheck, m).status, Status::kUnbounded);
  }
}

// --- end-to-end: the solver pipeline on the sparse default ---------------

TEST(SparseSimplexPipeline, SolveNestedMatchesAcrossBackends) {
  // The full 9/5 pipeline (including the exact-arithmetic verify layer
  // in Debug builds) must produce the same LP value regardless of the
  // LP backend driving it.
  for (int id = 0; id < 4; ++id) {
    at::gen::ContendedParams params;
    params.g = 4;
    params.min_groups = 2;
    params.max_groups = 5;
    util::Rng rng(700 + id);
    const at::Instance inst = at::gen::random_contended(params, rng);
    const double sparse_value = at::strong_lp_value(inst);
    at::LaminarForest f = at::LaminarForest::build(inst);
    f.canonicalize();
    at::StrongLp lp = at::build_strong_lp(f);
    Solution dense = solve(lp.model);
    ASSERT_EQ(dense.status, Status::kOptimal);
    EXPECT_NEAR(sparse_value, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)));
    at::NestedSolveResult result = at::solve_nested(inst);
    EXPECT_NEAR(result.lp_value, dense.objective,
                1e-7 * (1.0 + std::abs(dense.objective)));
    EXPECT_LE(static_cast<double>(result.active_slots),
              1.8 * result.lp_value + 1e-5);
  }
}

}  // namespace
}  // namespace nat::lp
