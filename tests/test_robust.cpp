// Robust interval-time scheduling (activetime/robust.hpp): corner
// materialization, validation of uncertainty boxes, v2 serialization,
// and the sandwich LP(p_lo) <= ALG(p) <= robust_hi certified by
// solve_robust — including the contract that point instances take a
// degenerate path bit-identical to solve_active_time.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "activetime/robust.hpp"
#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "helpers.hpp"
#include "instances/generators.hpp"
#include "io/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace nat::at {
namespace {

/// small_nested with an uncertainty box on two of its jobs: the base
/// draw is the hi corner, so worst-case feasibility is inherited.
Instance boxed_nested() {
  Instance instance = testing::small_nested();
  instance.jobs[0].processing_lo = 1;  // nominal 3
  instance.jobs[0].processing_hi = 3;
  instance.jobs[3].processing_lo = 1;  // nominal 2
  instance.jobs[3].processing_hi = 2;
  return instance;
}

Instance strip(Instance instance) {
  for (Job& job : instance.jobs) {
    job.processing_lo = 0;
    job.processing_hi = 0;
  }
  return instance;
}

TEST(RobustInstance, ValidateAcceptsAndRejectsBoxes) {
  Instance ok = boxed_nested();
  ok.validate();

  // p_lo must stay >= 1.
  Instance bad = boxed_nested();
  bad.jobs[0].processing_lo = 0;
  bad.jobs[0].processing_hi = 3;
  // lo=0 with hi!=0 is an interval with an out-of-range endpoint.
  EXPECT_THROW(bad.validate(), util::CheckError);

  // The box must bracket the nominal value: lo <= p <= hi.
  bad = boxed_nested();
  bad.jobs[0].processing_lo = 4;  // above nominal 3
  bad.jobs[0].processing_hi = 5;
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = boxed_nested();
  bad.jobs[0].processing_hi = 2;  // below nominal 3
  bad.jobs[0].processing_lo = 1;
  EXPECT_THROW(bad.validate(), util::CheckError);

  // The hi corner must still fit the window.
  bad = testing::small_nested();
  bad.jobs[2].processing_lo = 1;  // window [2, 3) has length 1
  bad.jobs[2].processing_hi = 2;
  EXPECT_THROW(bad.validate(), util::CheckError);
}

// Hostile int64 inputs must fail validation, naming the quantity that
// would wrap, instead of wrapping inside the tree, flow or LP stages.
TEST(RobustInstance, ValidateRejectsOverflowingQuantities) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  const auto rejects = [](const Instance& instance, const std::string& what) {
    try {
      instance.validate();
    } catch (const util::CheckError& e) {
      return std::string(e.what()).find(what) != std::string::npos;
    }
    return false;
  };
  // r + p wraps.
  EXPECT_TRUE(rejects(Instance{1, {Job{kMax - 7, kMax, 100}}},
                      "release + processing"));
  EXPECT_TRUE(rejects(Instance{1, {Job{kMax - 7, kMax, 1, 1, 100}}},
                      "release + processing_hi"));
  // d - r wraps.
  EXPECT_TRUE(rejects(Instance{1, {Job{-kMax, kMax, 3}}}, "horizon length"));
  // sum p wraps.
  const Job huge{0, kHuge, kHuge};
  EXPECT_TRUE(rejects(Instance{1, {huge, huge, huge}},
                      "total processing volume"));
  // g * L(i) wraps.
  EXPECT_TRUE(rejects(Instance{kHuge, testing::small_nested().jobs},
                      "g * horizon length"));
  // The worst-case corner's volume wraps although the nominal one fits.
  const Job boxed{0, kHuge, 1, 1, kHuge};
  EXPECT_TRUE(rejects(Instance{1, {boxed, boxed, boxed}},
                      "total processing volume"));
  // The horizon wraps although every window is short.
  EXPECT_TRUE(rejects(Instance{1, {Job{-kMax, -kMax + 2, 1},
                                   Job{kMax - 2, kMax, 1}}},
                      "horizon length"));
  // The largest quantities that fit are accepted.
  EXPECT_NO_THROW((Instance{1, {Job{kMax - 7, kMax, 7}}}.validate()));
  EXPECT_NO_THROW((Instance{kMax / 4, {Job{0, 4, 2}}}.validate()));
}

TEST(RobustInstance, CornersMaterializePointInstances) {
  const Instance boxed = boxed_nested();
  EXPECT_TRUE(boxed.has_processing_intervals());
  EXPECT_FALSE(testing::small_nested().has_processing_intervals());

  const Instance lo = boxed.lo_corner();
  const Instance hi = boxed.hi_corner();
  EXPECT_FALSE(lo.has_processing_intervals());
  EXPECT_FALSE(hi.has_processing_intervals());
  EXPECT_EQ(lo.jobs[0].processing, 1);
  EXPECT_EQ(hi.jobs[0].processing, 3);
  EXPECT_EQ(lo.jobs[3].processing, 1);
  EXPECT_EQ(hi.jobs[3].processing, 2);
  // Point jobs pass through both corners untouched.
  EXPECT_EQ(lo.jobs[1].processing, boxed.jobs[1].processing);
  EXPECT_EQ(hi.jobs[1].processing, boxed.jobs[1].processing);
  lo.validate();
  hi.validate();
}

TEST(RobustSerialize, PointInstancesStayByteIdenticalV1) {
  // The pre-robust corpus format must not change underneath anyone:
  // a point instance serializes with the v1 header, byte for byte.
  const Instance point = testing::small_nested();
  const std::string text = io::to_string(point);
  EXPECT_EQ(text.rfind("activetime v1\n", 0), 0u);
  EXPECT_EQ(text.find("v2"), std::string::npos);
  const Instance back = io::instance_from_string(text);
  EXPECT_EQ(back.jobs, point.jobs);
}

TEST(RobustSerialize, IntervalInstancesRoundTripV2) {
  const Instance boxed = boxed_nested();
  const std::string text = io::to_string(boxed);
  EXPECT_EQ(text.rfind("activetime v2\n", 0), 0u);
  const Instance back = io::instance_from_string(text);
  EXPECT_EQ(back.g, boxed.g);
  EXPECT_EQ(back.jobs, boxed.jobs);  // includes the lo/hi fields
}

TEST(RobustSolve, DegeneratePathIsBitIdenticalToPointSolver) {
  for (int id = 0; id < 12; ++id) {
    const Instance instance = testing::mixed(id);
    const ActiveTimeResult point = solve_active_time(instance);
    const RobustSolveResult res = solve_robust(instance);
    EXPECT_TRUE(res.degenerate);
    EXPECT_EQ(res.nominal.schedule.assignment, point.schedule.assignment);
    EXPECT_EQ(res.nominal.active_slots, point.active_slots);
    EXPECT_EQ(res.nominal.backend, point.backend);
    EXPECT_EQ(res.hi_backend, point.backend);
    EXPECT_EQ(res.robust_hi, point.active_slots);
    EXPECT_LE(res.robust_lo, static_cast<double>(point.active_slots) + 1e-9);
  }
}

TEST(RobustSolve, SandwichHoldsOnBoxedFixture) {
  const Instance boxed = boxed_nested();
  const RobustSolveResult res = solve_robust(boxed);
  EXPECT_FALSE(res.degenerate);
  // The nominal leg matches the plain dispatcher on the stripped
  // instance (the solvers only ever read `processing`).
  const ActiveTimeResult point = solve_active_time(strip(boxed));
  EXPECT_EQ(res.nominal.schedule.assignment, point.schedule.assignment);
  EXPECT_EQ(res.nominal.active_slots, point.active_slots);
  // LP(p_lo) <= ALG(p) <= robust_hi.
  EXPECT_LE(res.robust_lo,
            static_cast<double>(res.nominal.active_slots) + 1e-9);
  EXPECT_GE(res.robust_hi, res.nominal.active_slots);
  // The corners bracket the brute-force optima.
  const auto lo_opt = baselines::exact_opt_brute_force(boxed.lo_corner());
  const auto hi_opt = baselines::exact_opt_brute_force(boxed.hi_corner());
  ASSERT_TRUE(lo_opt.has_value());
  ASSERT_TRUE(hi_opt.has_value());
  EXPECT_LE(res.robust_lo, static_cast<double>(*lo_opt) + 1e-9);
  EXPECT_GE(res.robust_hi, *hi_opt);
}

TEST(RobustSolve, GeneralWindowsTakeTheGeneralBackend) {
  Instance instance = testing::crossing();
  instance.jobs[0].processing_lo = 1;
  instance.jobs[0].processing_hi = 1;
  instance.validate();
  const RobustSolveResult res = solve_robust(instance);
  EXPECT_FALSE(res.degenerate);
  EXPECT_EQ(res.nominal.backend, Backend::kGeneral);
  EXPECT_EQ(res.hi_backend, Backend::kGeneral);
  EXPECT_LE(res.robust_lo,
            static_cast<double>(res.nominal.active_slots) + 1e-9);
  EXPECT_GE(res.robust_hi, res.nominal.active_slots);
}

TEST(RobustSolve, InfeasibleWorstCornerThrows) {
  // Nominal corner fits (two unit jobs, two slots, g=2) but the hi
  // corner asks for 2+2 units in a 2-slot window with g=2.
  Instance instance;
  instance.g = 2;
  instance.jobs = {Job{0, 2, 1, 1, 2}, Job{0, 2, 1, 1, 2},
                   Job{0, 2, 1, 1, 2}};
  instance.validate();
  EXPECT_EQ(solve_active_time(strip(instance)).active_slots, 2);
  try {
    solve_robust(instance);
    FAIL() << "worst-case corner should be infeasible";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos);
  }
}

TEST(RobustSolve, RandomIntervalFamilySandwiches) {
  for (int id = 0; id < 24; ++id) {
    gen::RandomIntervalParams params;
    params.laminar = (id % 2 == 0);
    params.interval_probability = 0.8;
    if (!params.laminar) {
      params.general_params.jobs = 8;
      params.general_params.horizon = 16;
    }
    util::Rng rng(4242 + id);
    const Instance instance = gen::random_interval(params, rng);
    const RobustSolveResult res = solve_robust(instance);
    EXPECT_LE(res.robust_lo,
              static_cast<double>(res.nominal.active_slots) + 1e-9)
        << "id " << id;
    EXPECT_GE(res.robust_hi, res.nominal.active_slots) << "id " << id;
    EXPECT_EQ(res.degenerate, !instance.has_processing_intervals())
        << "id " << id;
  }
}

TEST(RobustVerify, SandwichCheckCatchesViolations) {
  // A valid sandwich passes...
  EXPECT_TRUE(verify::check_robust_sandwich(3.5, 4, 5, 16).empty());
  EXPECT_TRUE(verify::check_robust_sandwich(4.0, 4, 4, 16).empty());
  // ...a lower bound above the algorithm's cost fails...
  EXPECT_FALSE(verify::check_robust_sandwich(4.5, 4, 5, 16).empty());
  // ...and an upper bound below it fails too.
  EXPECT_FALSE(verify::check_robust_sandwich(3.0, 4, 3, 16).empty());
}

}  // namespace
}  // namespace nat::at
