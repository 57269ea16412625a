#include "baselines/exact.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "activetime/time_indexed_lp.hpp"
#include "baselines/exact_unit.hpp"
#include "helpers.hpp"

namespace nat::at::baselines {
namespace {

TEST(ExactBruteForce, KnownTinyOptima) {
  // One job of length 3 alone: OPT = 3.
  Instance a;
  a.g = 2;
  a.jobs = {Job{0, 5, 3}};
  EXPECT_EQ(exact_opt_brute_force(a).value(), 3);

  // g+1 unit jobs in [0,2): OPT = 2 (unit-overload family).
  Instance b;
  b.g = 3;
  b.jobs = {Job{0, 2, 1}, Job{0, 2, 1}, Job{0, 2, 1}, Job{0, 2, 1}};
  EXPECT_EQ(exact_opt_brute_force(b).value(), 2);

  // Two disjoint unit jobs: OPT = 2.
  Instance c;
  c.g = 5;
  c.jobs = {Job{0, 2, 1}, Job{4, 6, 1}};
  EXPECT_EQ(exact_opt_brute_force(c).value(), 2);

  // g jobs of size 1 sharing one slot of slack: OPT = 1.
  Instance d;
  d.g = 4;
  d.jobs = {Job{3, 4, 1}, Job{3, 4, 1}, Job{3, 4, 1}, Job{3, 4, 1}};
  EXPECT_EQ(exact_opt_brute_force(d).value(), 1);
}

TEST(ExactBruteForce, HorizonGuard) {
  Instance wide;
  wide.g = 1;
  wide.jobs = {Job{0, 100, 1}};
  EXPECT_FALSE(exact_opt_brute_force(wide, 22).has_value());
}

TEST(ExactLaminar, EmptyInstance) {
  EXPECT_EQ(exact_opt_laminar(Instance{1, {}})->optimum, 0);
}

TEST(ExactLaminar, MatchesBruteForceOnKnownFamilies) {
  for (std::int64_t g = 1; g <= 4; ++g) {
    Instance inst;
    inst.g = g;
    for (std::int64_t j = 0; j <= g; ++j) inst.jobs.push_back(Job{0, 2, 1});
    auto bb = exact_opt_laminar(inst);
    ASSERT_TRUE(bb.has_value());
    EXPECT_EQ(bb->optimum, 2) << "unit overload, g=" << g;
    validate_schedule(inst, bb->schedule);
  }
}

TEST(ExactCommonWindow, ClosedFormMatchesBruteForce) {
  util::Rng rng(246);
  for (int iter = 0; iter < 60; ++iter) {
    Instance inst;
    inst.g = rng.uniform_int(1, 4);
    const Time len = rng.uniform_int(1, 8);
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    std::int64_t volume = 0;
    for (int j = 0; j < n; ++j) {
      const std::int64_t p = rng.uniform_int(1, len);
      inst.jobs.push_back(Job{0, len, p});
      volume += p;
    }
    if (volume > inst.g * len) continue;  // infeasible draw
    const auto brute = exact_opt_brute_force(inst, 16);
    if (!brute.has_value()) continue;
    EXPECT_EQ(exact_opt_common_window(inst), *brute)
        << "g=" << inst.g << " len=" << len;
  }
  EXPECT_EQ(exact_opt_common_window(Instance{3, {}}), 0);
}

TEST(ExactCommonWindow, RejectsMixedWindows) {
  Instance inst;
  inst.g = 1;
  inst.jobs = {Job{0, 3, 1}, Job{1, 3, 1}};
  EXPECT_THROW(exact_opt_common_window(inst), util::CheckError);
}

// Property sweep: B&B optimum equals brute-force optimum on random
// small instances, and its schedule is valid with exactly that many
// active slots.
class ExactAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ExactAgreement, BranchAndBoundMatchesBruteForce) {
  const Instance inst = testing::random_small(GetParam());
  auto brute = exact_opt_brute_force(inst, 20);
  if (!brute.has_value()) GTEST_SKIP() << "horizon too wide for brute force";
  auto bb = exact_opt_laminar(inst);
  ASSERT_TRUE(bb.has_value());
  EXPECT_EQ(bb->optimum, *brute);
  validate_schedule(inst, bb->schedule);
  EXPECT_EQ(bb->schedule.active_slots(), bb->optimum);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactAgreement, ::testing::Range(0, 80));

// g near 2^63 passes validation on a one-slot horizon; every
// ceil(volume / g) bound must be formed without volume + g - 1.
TEST(ExactLaminar, HugeGCeilingsDoNotWrap) {
  const Instance inst{std::numeric_limits<std::int64_t>::max(),
                      {Job{0, 1, 1}, Job{0, 1, 1}}};
  inst.validate();
  EXPECT_EQ(inst.volume_lower_bound(), 1);
  EXPECT_EQ(exact_opt_laminar(inst)->optimum, 1);
  EXPECT_EQ(exact_opt_unit_laminar(inst).optimum, 1);
  EXPECT_EQ(exact_opt_common_window(inst), 1);
  EXPECT_NEAR(cw_lp_value(inst), 1.0, 1e-9);
}

}  // namespace
}  // namespace nat::at::baselines
