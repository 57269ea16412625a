// Exact-arithmetic verify layer (src/verify/) and differential fuzz
// harness: validators certify every artifact of the correct pipeline,
// reject tampered ones, and the fuzzer catches + minimizes the
// deliberately injected Algorithm 1 budget off-by-one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "activetime/exact_pipeline.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/rounding.hpp"
#include "activetime/solver.hpp"
#include "activetime/tree.hpp"
#include "helpers.hpp"
#include "io/serialize.hpp"
#include "lp/dense_simplex.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"
#include "verify/fuzz.hpp"
#include "verify/verify.hpp"

namespace nat {
namespace {

using at::testing::contended;
using at::testing::mixed;

/// Pipeline artifacts up to (and including) the transform, for tests
/// that tamper with individual stages.
struct PipelineArtifacts {
  at::LaminarForest forest;
  at::StrongLp lp;
  at::FractionalSolution sol;
  double lp_value = 0.0;
};

PipelineArtifacts run_to_transform(const at::Instance& instance,
                                   bool push_down) {
  PipelineArtifacts a{at::LaminarForest::build(instance), {}, {}, 0.0};
  a.forest.canonicalize();
  a.lp = at::build_strong_lp(a.forest);
  const lp::Solution s = lp::solve(a.lp.model);
  NAT_CHECK(s.status == lp::Status::kOptimal);
  a.lp_value = s.objective;
  a.sol = at::unpack(a.lp, s);
  if (push_down) at::push_down_transform(a.forest, a.lp, a.sol);
  return a;
}

TEST(VerifyLevel, ResolvesExplicitLevelsUnchanged) {
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kOff),
            verify::VerifyLevel::kOff);
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kLight),
            verify::VerifyLevel::kLight);
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kFull),
            verify::VerifyLevel::kFull);
}

TEST(VerifyLevel, DefaultHonorsEnvironmentOverride) {
  ::setenv("NAT_VERIFY", "light", 1);
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kDefault),
            verify::VerifyLevel::kLight);
  ::setenv("NAT_VERIFY", "off", 1);
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kDefault),
            verify::VerifyLevel::kOff);
  ::setenv("NAT_VERIFY", "full", 1);
  EXPECT_EQ(verify::resolve_level(verify::VerifyLevel::kDefault),
            verify::VerifyLevel::kFull);
  ::setenv("NAT_VERIFY", "bogus", 1);
  EXPECT_THROW(verify::resolve_level(verify::VerifyLevel::kDefault),
               util::CheckError);
  ::unsetenv("NAT_VERIFY");
}

TEST(Validators, FullVerificationPassesAcrossTheSweep) {
  const std::int64_t checks_before =
      obs::counter("at.verify.checks").value();
  at::ActiveTimeOptions options;
  options.verify_level = verify::VerifyLevel::kFull;
  for (int id = 0; id < 16; ++id) {
    EXPECT_NO_THROW(at::solve_nested(mixed(id), options))
        << "full verification rejected a correct pipeline on mixed(" << id
        << ")";
  }
  EXPECT_GT(obs::counter("at.verify.checks").value(), checks_before);
}

TEST(Validators, LightLevelChecksTheSchedule) {
  at::ActiveTimeOptions options;
  options.verify_level = verify::VerifyLevel::kLight;
  EXPECT_NO_THROW(at::solve_nested(at::testing::small_nested(), options));
}

TEST(Validators, LpSolutionCertifiesAndTamperingIsRejected) {
  const PipelineArtifacts a = run_to_transform(contended(3), false);
  EXPECT_EQ(verify::check_lp_solution(a.forest, a.lp, a.sol, a.lp_value),
            "");
  // Shift one open count: the objective re-derivation (and usually a
  // constraint) must notice.
  at::FractionalSolution tampered = a.sol;
  tampered.x[0] += 0.5;
  EXPECT_NE(verify::check_lp_solution(a.forest, a.lp, tampered, a.lp_value),
            "");
}

TEST(Validators, PushDownCertifiesAndMassCreationIsRejected) {
  const PipelineArtifacts before = run_to_transform(contended(4), false);
  PipelineArtifacts after = before;
  at::push_down_transform(after.forest, after.lp, after.sol);
  EXPECT_EQ(verify::check_push_down(after.forest, before.sol.x,
                                    after.sol.x),
            "");
  // Mass appearing at a root out of thin air must be rejected (either
  // as broken conservation or as an out-of-bounds open count).
  std::vector<double> forged = after.sol.x;
  for (int i = 0; i < after.forest.num_nodes(); ++i) {
    if (after.forest.node(i).parent < 0) {
      forged[i] += 0.5;
      break;
    }
  }
  EXPECT_NE(verify::check_push_down(after.forest, before.sol.x, forged),
            "");
  // Mass vanishing from a subtree must be rejected too.
  std::vector<double> drained = after.sol.x;
  for (int i = 0; i < after.forest.num_nodes(); ++i) {
    if (drained[i] >= 0.5) {
      drained[i] -= 0.5;
      break;
    }
  }
  EXPECT_NE(verify::check_push_down(after.forest, before.sol.x, drained),
            "");
}

TEST(Validators, RoundingCertifiesAndTamperingIsRejected) {
  const PipelineArtifacts a = run_to_transform(contended(5), true);
  const std::vector<int> topmost =
      at::topmost_positive(a.forest, a.sol.x);
  const at::RoundingResult rounded =
      at::round_solution(a.forest, a.sol.x, topmost);
  EXPECT_EQ(verify::check_rounding(a.forest, a.sol.x, rounded.x_tilde,
                                   topmost),
            "");
  // A +1 on a node outside I is not the value the transform produced.
  std::vector<bool> in_topmost(a.forest.num_nodes(), false);
  for (int t : topmost) in_topmost[t] = true;
  std::vector<at::Time> forged = rounded.x_tilde;
  for (int i = 0; i < a.forest.num_nodes(); ++i) {
    if (!in_topmost[i]) {
      forged[i] += 1;
      break;
    }
  }
  EXPECT_NE(verify::check_rounding(a.forest, a.sol.x, forged, topmost),
            "");
}

TEST(Validators, ScheduleChecksCountsWindowsAndBudget) {
  const at::Instance instance = at::testing::small_nested();
  at::ActiveTimeOptions options;
  options.verify_level = verify::VerifyLevel::kOff;
  const at::NestedSolveResult r = at::solve_nested(instance, options);
  EXPECT_EQ(verify::check_schedule(instance, r.schedule, r.active_slots),
            "");
  // Wrong claimed count.
  EXPECT_NE(
      verify::check_schedule(instance, r.schedule, r.active_slots + 1),
      "");
  // Active slots above the opened budget.
  EXPECT_NE(verify::check_schedule(instance, r.schedule, r.active_slots,
                                   r.active_slots - 1),
            "");
  // A slot moved outside its job's window.
  at::Schedule forged = r.schedule;
  forged.assignment[0][0] = instance.jobs[0].deadline + 5;
  EXPECT_NE(verify::check_schedule(instance, forged, r.active_slots), "");
}

TEST(Validators, ExactPipelineRunsZeroToleranceChecks) {
  // solve_nested_exact wires check_rounding_exact + check_schedule
  // unconditionally; a clean run on fractional instances is the test.
  EXPECT_NO_THROW(at::solve_nested_exact(at::testing::small_nested()));
  EXPECT_NO_THROW(at::solve_nested_exact(contended(1)));
}

TEST(Fuzz, SmokeRunIsCleanAndDeterministic) {
  verify::fuzz::FuzzOptions options;
  options.instances = 40;
  options.seed = 3;
  const verify::fuzz::FuzzReport report = verify::fuzz::run_fuzz(options);
  EXPECT_EQ(report.instances_run, 40);
  for (const auto& v : report.violations) {
    ADD_FAILURE() << "fuzz violation [" << v.failure_class
                  << "] at iteration " << v.index << ": " << v.detail;
  }
}

TEST(Fuzz, InjectedBudgetBugIsCaughtAndMinimized) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nat_verify_fuzz_repros";
  std::filesystem::remove_all(dir);

  verify::fuzz::FuzzOptions options;
  options.instances = 10;  // seed 1 trips the fault within 10 iterations
  options.seed = 1;
  options.inject_budget_fault = true;
  options.regression_dir = dir.string();
  const verify::fuzz::FuzzReport report = verify::fuzz::run_fuzz(options);

  ASSERT_FALSE(report.violations.empty())
      << "the injected Algorithm 1 budget off-by-one went undetected";
  int smallest = report.violations.front().instance.num_jobs();
  for (const auto& v : report.violations) {
    EXPECT_EQ(v.failure_class, "verify:rounding")
        << "expected the rounding-stage validator to catch the fault, "
           "got: "
        << v.detail;
    smallest = std::min(smallest, v.instance.num_jobs());
    ASSERT_FALSE(v.repro_path.empty());
    EXPECT_TRUE(std::filesystem::exists(v.repro_path));
  }
  EXPECT_LE(smallest, 6)
      << "delta-debugging failed to minimize the repro to <= 6 jobs";

  // The persisted repro is a loadable instance that still fails the
  // same way.
  const auto& v = report.violations.front();
  std::ifstream is(v.repro_path);
  const at::Instance reloaded = io::read_instance(is);
  EXPECT_EQ(reloaded.num_jobs(), v.instance.num_jobs());
  const auto [cls, detail] = verify::fuzz::check_instance(reloaded, options);
  EXPECT_EQ(cls, v.failure_class) << detail;

  // Without the fault the minimized instance is handled cleanly.
  verify::fuzz::FuzzOptions clean = options;
  clean.inject_budget_fault = false;
  EXPECT_EQ(verify::fuzz::check_instance(reloaded, clean).first, "");

  std::filesystem::remove_all(dir);
}

TEST(DeltaFuzz, SmokeRunIsClean) {
  verify::fuzz::DeltaFuzzOptions options;
  options.streams = 10;
  options.steps = 12;
  options.seed = 5;
  const verify::fuzz::DeltaFuzzReport report =
      verify::fuzz::run_delta_fuzz(options);
  EXPECT_EQ(report.streams_run, 10);
  for (const auto& v : report.violations) {
    ADD_FAILURE() << "delta fuzz violation [" << v.failure_class
                  << "] at stream " << v.index << ": " << v.detail;
  }
}

TEST(DeltaFuzz, StreamValiditySimulation) {
  at::Instance base;
  base.g = 2;
  base.jobs = {at::Job{0, 4, 2}, at::Job{1, 3, 1}};

  // A well-formed stream replays cleanly end to end.
  const std::vector<at::Delta> good = {
      at::AddJob{at::Job{0, 4, 1}},
      at::ShrinkWindow{0, at::Interval{0, 3}},
      at::RemoveJob{2},
  };
  EXPECT_TRUE(verify::fuzz::delta_stream_valid(base, good));
  const auto [cls, detail] = verify::fuzz::check_delta_stream(base, good);
  EXPECT_EQ(cls, "") << detail;

  // Out-of-range indices, broken nesting, and emptied instances are
  // all rejected by the simulation (no solver involved).
  EXPECT_FALSE(verify::fuzz::delta_stream_valid(
      base, {at::RemoveJob{5}}));
  EXPECT_FALSE(verify::fuzz::delta_stream_valid(
      base, {at::ExtendWindow{1, at::Interval{2, 3}}}));  // drops release
  EXPECT_FALSE(verify::fuzz::delta_stream_valid(
      base, {at::RemoveJob{0}, at::RemoveJob{0}}));  // nothing left
  // A remove that is valid only before an earlier drop shifts indices:
  // the simulation tracks the evolving instance, not the base.
  EXPECT_TRUE(verify::fuzz::delta_stream_valid(
      base, {at::RemoveJob{1}}));
}

TEST(DeltaFuzz, MinimizerKeepsValidityAndIsNoOpOnPassingStreams) {
  verify::fuzz::DeltaViolation v;
  v.base.g = 2;
  v.base.jobs = {at::Job{0, 4, 2}, at::Job{1, 3, 1}};
  v.deltas = {at::AddJob{at::Job{0, 4, 1}}, at::RemoveJob{2}};
  v.failure_class = "session:divergence";  // never produced by this stream
  v.original_jobs = 2;
  v.original_steps = 2;
  verify::fuzz::minimize_delta_violation(v);
  // No candidate reproduces a class the stream does not fail with, so
  // the violation is returned unchanged.
  EXPECT_EQ(v.base.num_jobs(), 2);
  EXPECT_EQ(v.deltas.size(), 2u);
}

TEST(Fuzz, MinimizerPreservesTheFailureClass) {
  // Minimizing a *passing* instance is a no-op contract: with no
  // failure class to preserve, every candidate "fails differently", so
  // the instance is returned unchanged.
  verify::fuzz::FuzzOptions options;
  const at::Instance instance = at::testing::small_nested();
  const at::Instance out =
      verify::fuzz::minimize_violation(instance, "verify:rounding",
                                       options);
  EXPECT_EQ(out.num_jobs(), instance.num_jobs());
}

}  // namespace
}  // namespace nat
