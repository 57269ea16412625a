#include "activetime/solver.hpp"

#include <gtest/gtest.h>

#include "baselines/exact.hpp"
#include "helpers.hpp"
#include "util/check.hpp"

namespace nat::at {
namespace {

TEST(NestedSolver, EmptyInstance) {
  NestedSolveResult r = solve_nested(Instance{1, {}});
  EXPECT_EQ(r.active_slots, 0);
}

TEST(NestedSolver, SingleJob) {
  Instance inst;
  inst.g = 3;
  inst.jobs = {Job{0, 7, 4}};
  NestedSolveResult r = solve_nested(inst);
  EXPECT_EQ(r.active_slots, 4);  // trivially optimal
  EXPECT_EQ(r.repairs, 0);
}

TEST(NestedSolver, UnitOverloadFamilyIsSolvedOptimally) {
  for (std::int64_t g = 1; g <= 6; ++g) {
    NestedSolveResult r = solve_nested(gen::unit_overload(g));
    EXPECT_EQ(r.active_slots, 2) << "g=" << g;
    EXPECT_EQ(r.repairs, 0);
  }
}

TEST(NestedSolver, RejectsNonLaminar) {
  EXPECT_THROW(solve_nested(testing::crossing()), util::CheckError);
}

TEST(NestedSolver, RejectsInfeasible) {
  Instance inst;
  inst.g = 1;
  inst.jobs = {Job{0, 2, 2}, Job{0, 2, 2}};  // volume 4 > capacity 2
  EXPECT_THROW(solve_nested(inst), util::CheckError);
}

TEST(NestedSolver, Lemma51FamilyWithinBound) {
  for (std::int64_t g : {2, 3, 4, 5}) {
    const Instance inst = gen::lemma51_gap(g);
    NestedSolveResult r = solve_nested(inst);
    EXPECT_EQ(r.repairs, 0) << "g=" << g;
    // OPT = 3g/2 rounded up (Lemma 5.1's integral argument).
    EXPECT_LE(static_cast<double>(r.active_slots), 1.8 * r.lp_value + 1e-6);
  }
}

// The headline guarantee (Theorem 4.15), end to end, on sweeps:
// valid schedule, no repairs, active <= 9/5 * LP <= 9/5 * OPT.
class SolverSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweep, TheoremFourFifteen) {
  const Instance inst = testing::mixed(GetParam());
  NestedSolveResult r = solve_nested(inst);
  validate_schedule(inst, r.schedule);
  EXPECT_EQ(r.repairs, 0) << "fp repair should never trigger";
  EXPECT_LE(static_cast<double>(r.active_slots), 1.8 * r.lp_value + 1e-5)
      << "9/5 bound against the LP value";
  auto opt = baselines::exact_opt_laminar(inst);
  ASSERT_TRUE(opt.has_value());
  EXPECT_GE(r.active_slots, opt->optimum);
  EXPECT_LE(static_cast<double>(r.active_slots),
            1.8 * static_cast<double>(opt->optimum) + 1e-9)
      << "9/5 bound against OPT on instance " << GetParam();
  EXPECT_LE(r.lp_value, static_cast<double>(opt->optimum) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverSweep, ::testing::Range(0, 200));

// Unit processing times (E8): the poly-solvable special case; the
// solver stays within the bound and typically hits OPT.
class UnitSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnitSweep, UnitJobsStayWithinBound) {
  gen::RandomLaminarParams params;
  params.g = 3;
  params.max_depth = 2;
  util::Rng rng(700 + GetParam());
  const Instance inst = gen::random_laminar_unit(params, rng);
  NestedSolveResult r = solve_nested(inst);
  validate_schedule(inst, r.schedule);
  auto opt = baselines::exact_opt_laminar(inst);
  ASSERT_TRUE(opt.has_value());
  EXPECT_LE(static_cast<double>(r.active_slots),
            1.8 * static_cast<double>(opt->optimum) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitSweep, ::testing::Range(0, 30));

TEST(NestedSolver, NaiveRoundingAblationStillValid) {
  for (int id = 0; id < 10; ++id) {
    const Instance inst = testing::random_small(id);
    ActiveTimeOptions opt;
    opt.naive_rounding = true;
    NestedSolveResult r = solve_nested(inst, opt);
    validate_schedule(inst, r.schedule);
  }
}

}  // namespace
}  // namespace nat::at
