// The general (non-laminar) LP-rounding 2-approx backend
// (activetime/general.hpp) and the per-group dispatcher
// (at::solve_active_time): differential 2-approx vs the brute-force
// optimum, bit-identity with per-group solve_nested on laminar input,
// mixed laminar/crossing instances, the hard crossing family,
// cancellation, and the O(n log n) is_laminar rewrite.
#include "activetime/general.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "activetime/instance.hpp"
#include "activetime/solver.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "baselines/exact.hpp"
#include "helpers.hpp"
#include "instances/generators.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace nat::at {
namespace {

ActiveTimeOptions full_verify() {
  ActiveTimeOptions options;
  options.verify_level = verify::VerifyLevel::kFull;
  return options;
}

/// LP <= ALG <= 2*LP (+ float slack), schedule valid, slots consistent.
void expect_certified(const Instance& instance,
                      const GeneralSolveResult& res) {
  ASSERT_FALSE(res.lp_failed);
  validate_schedule(instance, res.schedule);
  EXPECT_EQ(res.active_slots,
            static_cast<std::int64_t>(res.open_slots.size()));
  EXPECT_GE(static_cast<double>(res.active_slots), res.lp_value - 1e-6);
  EXPECT_LE(static_cast<double>(res.active_slots),
            2.0 * res.lp_value + 1e-6 * (1.0 + res.lp_value));
}

TEST(General, EmptyInstanceSolvesToZero) {
  const GeneralSolveResult res = solve_general(Instance{3, {}});
  EXPECT_EQ(res.active_slots, 0);
  EXPECT_TRUE(res.open_slots.empty());
}

TEST(General, CrossingFixtureCertifies) {
  const Instance instance = testing::crossing();
  ASSERT_FALSE(instance.is_laminar());
  const GeneralSolveResult res = solve_general(instance, full_verify());
  expect_certified(instance, res);
  const auto opt = baselines::exact_opt_brute_force(instance);
  ASSERT_TRUE(opt.has_value());
  EXPECT_GE(res.active_slots, *opt);
  EXPECT_LE(res.active_slots, 2 * *opt);
}

TEST(General, InfeasibleInstanceThrows) {
  Instance instance;
  instance.g = 1;
  instance.jobs = {Job{0, 2, 2}, Job{0, 2, 1}};  // volume 3 > g * 2
  EXPECT_THROW(solve_general(instance), util::CheckError);
}

TEST(General, SingleSaturatedWindow) {
  // g+1 unit jobs in one window of length 2: LP = (g+1)/g, OPT = 2.
  const Instance instance = gen::unit_overload(4);
  const GeneralSolveResult res = solve_general(instance, full_verify());
  expect_certified(instance, res);
  EXPECT_EQ(res.active_slots, 2);
}

TEST(General, TwoApproxVsExactBruteForce) {
  // The differential core: random general instances small enough for
  // the slot-subset oracle; assert LP <= OPT <= ALG <= 2*OPT.
  for (int id = 0; id < 40; ++id) {
    util::Rng knobs(7100 + id);
    gen::RandomGeneralParams params;
    params.g = knobs.uniform_int(1, 4);
    params.jobs = static_cast<int>(knobs.uniform_int(3, 12));
    params.horizon = knobs.uniform_int(5, 14);
    params.max_length = knobs.uniform_int(2, 6);
    params.max_processing = knobs.uniform_int(1, 4);
    util::Rng rng(400 + id);
    const Instance instance = gen::random_general(params, rng);
    const GeneralSolveResult res = solve_general(instance, full_verify());
    expect_certified(instance, res);
    const auto opt = baselines::exact_opt_brute_force(instance, 16);
    ASSERT_TRUE(opt.has_value()) << "id " << id;
    EXPECT_GE(res.active_slots, *opt) << "id " << id;
    EXPECT_LE(res.active_slots, 2 * *opt) << "id " << id;
    EXPECT_LE(res.lp_value, static_cast<double>(*opt) + 1e-6) << "id " << id;
  }
}

TEST(General, HardCrossingFamilyCertifies) {
  for (std::int64_t g = 2; g <= 4; ++g) {
    for (int k = 2; k <= 5; ++k) {
      const Instance instance = gen::hard_crossing(g, k);
      ASSERT_FALSE(instance.is_laminar());
      const GeneralSolveResult res = solve_general(instance, full_verify());
      expect_certified(instance, res);
      // Each of the k chained windows needs two open slots somewhere in
      // its three slots; windows overlap in one slot, so at least
      // ceil(3k/2)-ish slots are forced — k+1 is a safe lower bound.
      EXPECT_GE(res.active_slots, k + 1) << "g " << g << " k " << k;
    }
  }
}

TEST(General, LaminarInputAcceptedToo) {
  // solve_general does not require crossing windows.
  const Instance instance = testing::small_nested();
  ASSERT_TRUE(instance.is_laminar());
  const GeneralSolveResult res = solve_general(instance, full_verify());
  expect_certified(instance, res);
}

TEST(General, CancellationPollsInsideRoundingLoop) {
  // A pre-fired token must abort the solve with CancelledError, not a
  // wrong result — the poll sites include the oracle feasibility test
  // inside the repair/trim loops.
  const Instance instance = gen::hard_crossing(3, 4);
  util::CancelToken token;
  token.cancel();
  ActiveTimeOptions options;
  options.cancel = &token;
  EXPECT_THROW(solve_general(instance, options), util::CancelledError);
}

// ---------------------------------------------------------------------------
// The dispatcher.

/// Shifts every window of `instance` right by `offset` slots.
Instance shifted(Instance instance, Time offset) {
  for (Job& j : instance.jobs) {
    j.release += offset;
    j.deadline += offset;
  }
  return instance;
}

/// Two mixed-family instances side by side (the larger g for both, which
/// keeps each feasible), so every draw has several window groups.
Instance two_groups(int id) {
  Instance a = testing::mixed(id);
  const Instance b = testing::mixed(id + 20);
  a.g = std::max(a.g, b.g);
  const Time gap = a.horizon().hi + 1 - b.horizon().lo;
  for (const Job& j : shifted(b, gap).jobs) a.jobs.push_back(j);
  return a;
}

TEST(Dispatch, LaminarBitIdenticalToPerGroupSolveNested) {
  int multi_group = 0;
  for (int id = 0; id < 20; ++id) {
    for (const Instance& instance : {testing::mixed(id), two_groups(id)}) {
      ASSERT_TRUE(instance.is_laminar());
      const ActiveTimeResult via = solve_active_time(instance);
      EXPECT_EQ(via.backend, Backend::kNested) << "id " << id;
      const auto groups = window_groups(instance);
      multi_group += groups.size() > 1 ? 1 : 0;
      Schedule concatenated;
      concatenated.assignment.resize(instance.jobs.size());
      double lp_value = 0.0;
      int repairs = 0;
      for (const std::vector<int>& members : groups) {
        const NestedSolveResult direct =
            solve_nested(group_instance(instance, members));
        for (std::size_t p = 0; p < members.size(); ++p) {
          concatenated.assignment[static_cast<std::size_t>(members[p])] =
              direct.schedule.assignment[p];
        }
        lp_value += direct.lp_value;
        repairs += direct.repairs;
      }
      EXPECT_EQ(via.schedule.assignment, concatenated.assignment)
          << "id " << id;
      EXPECT_EQ(via.active_slots, concatenated.active_slots()) << "id " << id;
      EXPECT_EQ(via.repairs, repairs) << "id " << id;
      EXPECT_EQ(via.lp_value, lp_value) << "id " << id;
      if (groups.size() == 1) {
        // One group: exactly one monolithic solve_nested call.
        const NestedSolveResult direct = solve_nested(instance);
        EXPECT_EQ(via.schedule.assignment, direct.schedule.assignment)
            << "id " << id;
        EXPECT_EQ(via.lp_value, direct.lp_value) << "id " << id;
      }
    }
  }
  EXPECT_GE(multi_group, 20);  // every two_groups draw splits
}

TEST(Dispatch, MixedInstanceSolvesEachGroupOnItsOwnBackend) {
  // A crossing group listed first, then a laminar group placed earlier
  // in time: per-group dispatch must map rows back to job positions.
  const Instance crossing = shifted(gen::hard_crossing(2, 3), 40);
  // g+1 unit jobs in one window: the ceiling rows lift the strong LP to
  // 2 while the natural LP stays at (g+1)/g, so the LP sum below tells
  // per-group dispatch apart from one natural LP over everything.
  const Instance laminar = gen::unit_overload(3);
  ASSERT_FALSE(crossing.is_laminar());
  ASSERT_TRUE(laminar.is_laminar());
  ASSERT_LT(laminar.horizon().hi, crossing.horizon().lo);
  Instance mixed = crossing;
  mixed.g = laminar.g;
  for (const Job& j : laminar.jobs) mixed.jobs.push_back(j);
  Instance crossing_group = crossing;
  crossing_group.g = laminar.g;

  const ActiveTimeResult res = solve_active_time(mixed);
  EXPECT_EQ(res.backend, Backend::kGeneral);
  validate_schedule(mixed, res.schedule);

  // The laminar group keeps the 9/5 pipeline: its rows are exactly
  // solve_nested on that group alone.
  const NestedSolveResult nested = solve_nested(laminar);
  const std::size_t first = crossing.jobs.size();
  for (std::size_t k = 0; k < laminar.jobs.size(); ++k) {
    EXPECT_EQ(res.schedule.assignment[first + k], nested.schedule.assignment[k])
        << "laminar job " << k;
  }

  // LP value adds up across groups: strong LP on the laminar group,
  // natural time-indexed LP on the crossing one.
  ASSERT_GT(strong_lp_value(laminar), natural_lp_value(laminar) + 0.5);
  const double expected_lp =
      strong_lp_value(laminar) + natural_lp_value(crossing_group);
  EXPECT_NEAR(res.lp_value, expected_lp, 1e-9 * (1.0 + expected_lp));

  // The general 2·LP certificate holds on the sum.
  EXPECT_EQ(verify::check_general_budget(res.active_slots, res.lp_value,
                                         mixed.horizon().length()),
            "");
}

TEST(Dispatch, CrossingRoutesToGeneralBackend) {
  const Instance instance = testing::crossing();
  const ActiveTimeResult res = solve_active_time(instance);
  EXPECT_EQ(res.backend, Backend::kGeneral);
  validate_schedule(instance, res.schedule);
  EXPECT_GE(static_cast<double>(res.active_slots), res.lp_value - 1e-6);
}

// Degenerate laminarity shapes must keep routing to the nested solver:
// a false-negative is_laminar would silently downgrade them to the
// 2-approx general backend (still correct, but no longer exact-LP
// certified), so the backend choice is pinned here.
TEST(Dispatch, DegenerateLaminarShapesRouteToNested) {
  // Empty instance.
  EXPECT_EQ(solve_active_time(Instance{2, {}}).backend, Backend::kNested);
  // Single job.
  const Instance single{2, {Job{1, 5, 2}}};
  EXPECT_TRUE(single.is_laminar());
  EXPECT_EQ(solve_active_time(single).backend, Backend::kNested);
  // All windows identical.
  const Instance same{2, {Job{0, 4, 1}, Job{0, 4, 2}, Job{0, 4, 1}}};
  EXPECT_TRUE(same.is_laminar());
  EXPECT_EQ(solve_active_time(same).backend, Backend::kNested);
  // Touching half-open windows are disjoint, not crossing.
  const Instance touching{2, {Job{0, 3, 2}, Job{3, 6, 2}}};
  EXPECT_TRUE(touching.is_laminar());
  EXPECT_EQ(solve_active_time(touching).backend, Backend::kNested);
  // Control: an actual crossing pair leaves the nested path.
  EXPECT_EQ(solve_active_time(testing::crossing()).backend,
            Backend::kGeneral);
}

TEST(Dispatch, CancelReachesBothBackends) {
  util::CancelToken token;
  token.cancel();
  ActiveTimeOptions options;
  options.cancel = &token;
  EXPECT_THROW(solve_active_time(testing::small_nested(), options),
               util::CancelledError);
  EXPECT_THROW(solve_active_time(testing::crossing(), options),
               util::CancelledError);
}

// ---------------------------------------------------------------------------
// The O(n log n) is_laminar sweep (satellite of the same PR): randomized
// differential test against the obvious quadratic reference.

bool is_laminar_quadratic(const Instance& instance) {
  for (std::size_t a = 0; a < instance.jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < instance.jobs.size(); ++b) {
      const Interval wa = instance.jobs[a].window();
      const Interval wb = instance.jobs[b].window();
      if (wa.disjoint(wb) || wa.inside(wb) || wb.inside(wa)) continue;
      return false;
    }
  }
  return true;
}

TEST(IsLaminar, MatchesQuadraticReferenceOn1kRandomInstances) {
  util::Rng rng(20260808);
  int laminar_seen = 0, crossing_seen = 0;
  for (int it = 0; it < 1000; ++it) {
    Instance instance;
    instance.g = 1;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    // Small coordinate range so nesting, duplication, touching, and
    // crossing all occur with useful frequency.
    for (int j = 0; j < n; ++j) {
      const Time lo = rng.uniform_int(0, 8);
      const Time hi = lo + rng.uniform_int(1, 6);
      instance.jobs.push_back(Job{lo, hi, 1});
    }
    const bool fast = instance.is_laminar();
    ASSERT_EQ(fast, is_laminar_quadratic(instance)) << "iteration " << it;
    (fast ? laminar_seen : crossing_seen) += 1;
  }
  // The distribution must exercise both answers.
  EXPECT_GT(laminar_seen, 50);
  EXPECT_GT(crossing_seen, 50);
}

TEST(IsLaminar, EdgeCases) {
  Instance empty{2, {}};
  EXPECT_TRUE(empty.is_laminar());
  // Equal-lo windows sorted hi-descending: [0,4) then [0,2) nests.
  Instance equal_lo{2, {Job{0, 2, 1}, Job{0, 4, 1}}};
  EXPECT_TRUE(equal_lo.is_laminar());
  // Touching half-open windows are disjoint, not crossing.
  Instance touching{2, {Job{0, 3, 1}, Job{3, 5, 1}}};
  EXPECT_TRUE(touching.is_laminar());
  // A window crossing a *grandparent* (popped ancestor stays relevant).
  Instance deep{2, {Job{0, 10, 1}, Job{1, 3, 1}, Job{4, 12, 1}}};
  EXPECT_FALSE(deep.is_laminar());
}

}  // namespace
}  // namespace nat::at
