#include "activetime/opt_bounds.hpp"

#include <gtest/gtest.h>

#include "baselines/exact.hpp"
#include "helpers.hpp"
#include "instances/generators.hpp"

namespace nat::at {
namespace {

/// Exact OPT_i: restrict the instance to the jobs of Des(i) and solve.
std::int64_t subtree_opt(const LaminarForest& forest, int node) {
  Instance sub;
  sub.g = forest.g();
  for (int v : forest.subtree(node)) {
    for (int j : forest.node(v).jobs) sub.jobs.push_back(forest.jobs()[j]);
  }
  if (sub.jobs.empty()) return 0;
  auto r = baselines::exact_opt_laminar(sub);
  EXPECT_TRUE(r.has_value());
  return r->optimum;
}

TEST(OptBounds, SingleUnitJob) {
  Instance inst;
  inst.g = 1;
  inst.jobs = {Job{0, 3, 1}};
  LaminarForest f = LaminarForest::build(inst);
  EXPECT_TRUE(opt_le_1(f, f.roots()[0]));
  EXPECT_EQ(opt_lower_bound(f, f.roots()[0]), 1);
}

TEST(OptBounds, CapacityForcesTwoSlots) {
  Instance inst;
  inst.g = 2;
  inst.jobs = {Job{0, 2, 1}, Job{0, 2, 1}, Job{0, 2, 1}};  // 3 > g
  LaminarForest f = LaminarForest::build(inst);
  EXPECT_FALSE(opt_le_1(f, f.roots()[0]));
  EXPECT_TRUE(opt_le_2(f, f.roots()[0]));
}

TEST(OptBounds, DisjointChildrenForceTwoSlots) {
  Instance inst;
  inst.g = 5;
  inst.jobs = {Job{0, 10, 1}, Job{1, 3, 1}, Job{5, 7, 1}};
  LaminarForest f = LaminarForest::build(inst);
  // The two children are disjoint, so no single slot serves both.
  EXPECT_FALSE(opt_le_1(f, f.roots()[0]));
  EXPECT_TRUE(opt_le_2(f, f.roots()[0]));
}

TEST(OptBounds, LongJobForcesThree) {
  Instance inst;
  inst.g = 4;
  inst.jobs = {Job{0, 6, 3}};
  LaminarForest f = LaminarForest::build(inst);
  EXPECT_FALSE(opt_le_2(f, f.roots()[0]));
  EXPECT_EQ(opt_lower_bound(f, f.roots()[0]), 3);
}

TEST(OptBounds, ChainOfNestedUnitJobsIsOneSlot) {
  Instance inst;
  inst.g = 3;
  inst.jobs = {Job{0, 9, 1}, Job{2, 6, 1}, Job{3, 5, 1}};
  LaminarForest f = LaminarForest::build(inst);
  EXPECT_TRUE(opt_le_1(f, f.roots()[0]));
}

// Property sweep: the cheap decision procedures agree exactly with the
// exact solver on every subtree of random instances (this is the
// separation oracle for LP constraints (7)/(8), so exactness matters).
class OptBoundAgreement : public ::testing::TestWithParam<int> {};

TEST_P(OptBoundAgreement, MatchesExactSolverOnEverySubtree) {
  const Instance inst = testing::random_small(GetParam());
  LaminarForest f = LaminarForest::build(inst);
  f.canonicalize();
  for (int i = 0; i < f.num_nodes(); ++i) {
    const std::int64_t opt = subtree_opt(f, i);
    if (opt == 0) continue;  // virtual-path subtrees with no jobs
    EXPECT_EQ(opt_le_1(f, i), opt <= 1) << "node " << i;
    EXPECT_EQ(opt_le_2(f, i), opt <= 2) << "node " << i;
    EXPECT_LE(opt_lower_bound(f, i), opt);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptBoundAgreement, ::testing::Range(0, 40));

/// A forest of at least 96 nodes with uneven subtree sizes.
LaminarForest big_sweep_forest() {
  gen::RandomLaminarParams params;
  params.g = 3;
  params.max_depth = 5;
  params.max_children = 4;
  params.max_jobs_per_node = 2;
  params.max_processing = 3;
  util::Rng rng(2026);
  for (int attempt = 0; attempt < 64; ++attempt) {
    LaminarForest f = LaminarForest::build(gen::random_laminar(params, rng));
    f.canonicalize();
    if (f.num_nodes() >= 96) return f;
  }
  ADD_FAILURE() << "could not generate a forest of 96+ nodes";
  return LaminarForest::build(Instance{1, {Job{0, 1, 1}}});
}

TEST(CeilingSweep, MatchesPerNodeBounds) {
  const LaminarForest f = big_sweep_forest();
  const std::vector<int> lower = ceiling_lower_bounds(f);
  ASSERT_EQ(static_cast<int>(lower.size()), f.num_nodes());
  for (int i = 0; i < f.num_nodes(); ++i) {
    EXPECT_EQ(lower[i], opt_lower_bound(f, i)) << "node " << i;
  }
}

}  // namespace
}  // namespace nat::at
