// Cross-module integration tests: forests with several roots, the
// Section 6 reduction instances run through the 9/5 solver, large
// instances end to end, and independent re-verification of solver
// results.
#include <gtest/gtest.h>

#include "activetime/certificates.hpp"
#include "activetime/feasibility.hpp"
#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "baselines/exact_unit.hpp"
#include "baselines/greedy.hpp"
#include "helpers.hpp"
#include "reductions/transforms.hpp"

namespace nat::at {
namespace {

TEST(ForestSolving, MultipleRootsSolvedJointly) {
  // Three disjoint components; the solver handles the forest in one
  // pass and the result decomposes per component.
  Instance inst;
  inst.g = 2;
  inst.jobs = {
      Job{0, 4, 2},  Job{0, 4, 1},    // component A
      Job{10, 13, 3},                 // component B (rigid)
      Job{20, 26, 2}, Job{21, 23, 1}  // component C
  };
  ASSERT_TRUE(inst.is_laminar());
  NestedSolveResult r = solve_nested(inst);
  validate_schedule(inst, r.schedule);
  auto opt = baselines::exact_opt_laminar(inst);
  ASSERT_TRUE(opt.has_value());
  EXPECT_LE(static_cast<double>(r.active_slots),
            1.8 * static_cast<double>(opt->optimum) + 1e-9);
  // Component sums: per-component OPT is 2 + 3 + 2.
  EXPECT_EQ(opt->optimum, 7);
}

TEST(ForestSolving, RandomForests) {
  // Concatenate independent components at disjoint offsets.
  for (int id = 0; id < 12; ++id) {
    Instance forest;
    forest.g = 3;
    Time offset = 0;
    for (int c = 0; c < 3; ++c) {
      Instance comp = testing::random_small(3 * id + c, forest.g);
      const Time span = comp.horizon().hi;
      for (Job job : comp.jobs) {
        job.release += offset;
        job.deadline += offset;
        forest.jobs.push_back(job);
      }
      offset += span + 2;
    }
    ASSERT_TRUE(forest.is_laminar());
    NestedSolveResult r = solve_nested(forest);
    validate_schedule(forest, r.schedule);
    EXPECT_LE(static_cast<double>(r.active_slots), 1.8 * r.lp_value + 1e-5);
  }
}

TEST(ReductionInstances, NinthFifthsSolverHandlesThem) {
  // The hop-2 instances are laminar, so the paper's algorithm applies;
  // its output must respect the 9/5 bound against the reduction's
  // exactly-known optimum.
  red::PscInstance psc;
  psc.u = {{2, 1}, {3, 2}, {1, 1}};
  psc.v = {3, 2};
  psc.k = 2;
  const auto r = red::psc_to_active_time(psc);
  const auto min_k = red::psc_minimum_brute_force(psc);
  ASSERT_TRUE(min_k.has_value());
  const std::int64_t opt = r.non_special_slots + *min_k;

  NestedSolveResult solved = solve_nested(r.instance);
  validate_schedule(r.instance, solved.schedule);
  EXPECT_GE(solved.active_slots, opt);
  EXPECT_LE(static_cast<double>(solved.active_slots),
            1.8 * static_cast<double>(opt) + 1e-9);
}

TEST(LargeInstances, EndToEndStaysFeasibleAndCertified) {
  // A few hundred jobs: LP in the thousands of rows. No exact OPT —
  // the certificate is the LP bound and the flow-validated schedule.
  gen::RandomLaminarParams params;
  params.g = 8;
  params.max_depth = 4;
  params.max_children = 4;
  params.min_jobs_per_node = 2;
  params.max_jobs_per_node = 5;
  params.max_processing = 6;
  params.child_probability = 0.9;
  util::Rng rng(99);
  Instance inst;
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::Rng r2(99 + attempt);
    inst = gen::random_laminar(params, r2);
    if (inst.num_jobs() >= 150) break;
  }
  NestedSolveResult r = solve_nested(inst);
  validate_schedule(inst, r.schedule);
  EXPECT_EQ(r.repairs, 0);
  EXPECT_LE(static_cast<double>(r.active_slots), 1.8 * r.lp_value + 1e-4);
  EXPECT_GE(r.lp_value, static_cast<double>(inst.total_volume()) /
                            static_cast<double>(inst.g) -
                            1e-6);
}

TEST(LargeInstances, ContendedAtScale) {
  gen::ContendedParams params;
  params.g = 16;
  params.min_groups = 12;
  params.max_groups = 12;
  params.max_long_jobs = 4;
  util::Rng rng(7);
  const Instance inst = gen::random_contended(params, rng);
  EXPECT_GE(inst.num_jobs(), 150);
  NestedSolveResult r = solve_nested(inst);
  validate_schedule(inst, r.schedule);
  EXPECT_LE(static_cast<double>(r.active_slots), 1.8 * r.lp_value + 1e-4);
}

TEST(IndependentVerification, SolverResultsRecheckedFromScratch) {
  // Re-verify a solver result using only public oracles: schedule
  // validity, slot count consistency, and the Lemma 4.1 certificate on
  // the rounded counts.
  for (int id = 0; id < 10; ++id) {
    const Instance inst = testing::mixed(id);
    if (inst.num_jobs() > 14) continue;
    NestedSolveResult r = solve_nested(inst);
    validate_schedule(inst, r.schedule);
    EXPECT_LE(r.schedule.active_slots(), r.active_slots);

    LaminarForest f = LaminarForest::build(inst);
    f.canonicalize();
    EXPECT_FALSE(find_violating_subset(f, r.x_rounded).has_value())
        << "rounded counts violate the Lemma 4.1 condition";
  }
}

TEST(TrimOption, NeverWorseAndStillValid) {
  for (int id = 0; id < 20; ++id) {
    const Instance inst = testing::mixed(id);
    NestedSolveResult paper = solve_nested(inst);
    ActiveTimeOptions opt;
    opt.trim_rounded = true;
    NestedSolveResult trimmed = solve_nested(inst, opt);
    validate_schedule(inst, trimmed.schedule);
    EXPECT_LE(trimmed.active_slots, paper.active_slots);
  }
}

}  // namespace
}  // namespace nat::at
