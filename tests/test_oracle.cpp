// FeasibilityOracle: the incremental oracle must be indistinguishable
// from fresh feasible_with_counts solves across arbitrary query
// sequences — that equivalence is what lets the solver, the exact
// baseline, and opt_bounds share one warm network. Also covers the
// per-node OPT_i bounds computed on pool workers (deterministic for
// every worker count) and thread-pool reentrancy.
#include "activetime/oracle.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "activetime/feasibility.hpp"
#include "activetime/opt_bounds.hpp"
#include "activetime/tree.hpp"
#include "helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nat::at {
namespace {

using util::Rng;

LaminarForest forest_for(const Instance& instance) {
  LaminarForest f = LaminarForest::build(instance);
  f.canonicalize();
  return f;
}

TEST(Oracle, AgreesOnSmallNested) {
  const LaminarForest f = forest_for(testing::small_nested());
  FeasibilityOracle oracle(f);
  const int m = f.num_nodes();

  std::vector<Time> closed(m, 0);
  EXPECT_FALSE(oracle.feasible(closed));
  EXPECT_EQ(oracle.deficit(), oracle.volume());

  std::vector<Time> full(m);
  for (int i = 0; i < m; ++i) full[i] = f.node(i).length();
  EXPECT_TRUE(oracle.feasible(full));
  EXPECT_EQ(oracle.deficit(), 0);
  EXPECT_EQ(oracle.current_open(), full);
}

TEST(Oracle, RejectsOutOfRangeCounts) {
  const LaminarForest f = forest_for(testing::small_nested());
  FeasibilityOracle oracle(f);
  std::vector<Time> open(f.num_nodes(), 0);
  open[0] = f.node(0).length() + 1;
  EXPECT_THROW(oracle.feasible(open), util::CheckError);
  open[0] = -1;
  EXPECT_THROW(oracle.feasible(open), util::CheckError);
  EXPECT_THROW(oracle.feasible(std::vector<Time>(f.num_nodes() + 1, 0)),
               util::CheckError);
}

/// Random increment/decrement walk: at every step the warm oracle must
/// return exactly what a fresh region-network solve returns. The sweep
/// below runs 10 walks x 100 steps = 1k differential checks over the
/// mixed generator family (loose laminar + contended).
class OracleWalks : public ::testing::TestWithParam<int> {};

TEST_P(OracleWalks, MatchesFreshSolveOnRandomWalk) {
  const LaminarForest f = forest_for(testing::mixed(GetParam()));
  const int m = f.num_nodes();
  FeasibilityOracle oracle(f);
  Rng rng(7100 + GetParam());

  std::vector<Time> open(m, 0);
  for (int step = 0; step < 100; ++step) {
    const int i = static_cast<int>(rng.uniform_int(0, m - 1));
    const Time len = f.node(i).length();
    if (rng.uniform_int(0, 1) == 1) {
      if (open[i] < len) ++open[i];
    } else {
      if (open[i] > 0) --open[i];
    }
    const bool fresh = feasible_with_counts(f, open);
    ASSERT_EQ(oracle.feasible(open), fresh)
        << "instance " << GetParam() << " step " << step;
    ASSERT_EQ(oracle.deficit() == 0, fresh);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleWalks, ::testing::Range(0, 10));

/// Probes answer the +1 question without disturbing the oracle: the
/// result equals a fresh solve on the incremented vector, and the
/// current vector's answer is unchanged afterwards.
class OracleProbes : public ::testing::TestWithParam<int> {};

TEST_P(OracleProbes, ProbeMatchesFreshAndLeavesStateIntact) {
  const LaminarForest f = forest_for(testing::mixed(GetParam()));
  const int m = f.num_nodes();
  FeasibilityOracle oracle(f);
  Rng rng(7400 + GetParam());

  // A mid-density vector so probes see both answers.
  std::vector<Time> open(m, 0);
  for (int i = 0; i < m; ++i) {
    open[i] = rng.uniform_int(0, f.node(i).length());
  }
  const bool base = oracle.feasible(open);

  for (int i = 0; i < m; ++i) {
    if (open[i] >= f.node(i).length()) continue;
    ++open[i];
    const bool fresh = feasible_with_counts(f, open);
    --open[i];
    ASSERT_EQ(oracle.feasible_if_incremented(i), fresh)
        << "instance " << GetParam() << " region " << i;
    // State invariance: same vector, same answer, no rebuild.
    ASSERT_EQ(oracle.feasible(open), base);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleProbes, ::testing::Range(0, 10));

/// increment_can_help is a sound filter: when it rules a region out,
/// the incremented vector is provably still infeasible.
class OracleCutFilter : public ::testing::TestWithParam<int> {};

TEST_P(OracleCutFilter, RuledOutIncrementsNeverHelp) {
  const LaminarForest f = forest_for(testing::mixed(GetParam()));
  const int m = f.num_nodes();
  FeasibilityOracle oracle(f);
  Rng rng(7700 + GetParam());

  std::vector<Time> open(m, 0);
  for (int i = 0; i < m; ++i) {
    open[i] = rng.uniform_int(0, f.node(i).length() / 2);
  }
  if (oracle.feasible(open)) return;  // filter only matters when short

  for (int i = 0; i < m; ++i) {
    if (open[i] >= f.node(i).length()) continue;
    if (oracle.increment_can_help(i)) continue;
    ++open[i];
    ASSERT_FALSE(feasible_with_counts(f, open))
        << "cut filter wrongly ruled out region " << i;
    --open[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleCutFilter, ::testing::Range(0, 10));

TEST(Oracle, SubtreeScopeMatchesFullOracleOnSingleTree) {
  // small_nested canonicalizes to a single tree, so the root-scoped
  // oracle sees exactly the same jobs and regions as the full one.
  const LaminarForest f = forest_for(testing::small_nested());
  ASSERT_EQ(f.roots().size(), 1u);
  const int root = f.roots()[0];
  FeasibilityOracle full(f);
  FeasibilityOracle scoped(f, root);
  EXPECT_EQ(full.volume(), scoped.volume());

  Rng rng(8000);
  std::vector<Time> open(f.num_nodes(), 0);
  for (int step = 0; step < 50; ++step) {
    const int i = static_cast<int>(rng.uniform_int(0, f.num_nodes() - 1));
    open[i] = rng.uniform_int(0, f.node(i).length());
    ASSERT_EQ(scoped.feasible(open), full.feasible(open)) << "step " << step;
  }
}

// --- OPT_i bounds on pool workers ------------------------------------------

TEST(CeilingSweep, DeterministicAcrossWorkerCountsAndGrains) {
  for (int id : {0, 1, 2, 3}) {
    const LaminarForest f = forest_for(testing::mixed(id));
    const int m = f.num_nodes();
    std::vector<int> serial(m);
    for (int i = 0; i < m; ++i) serial[i] = opt_lower_bound(f, i);

    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(workers);
      for (std::size_t grain : {1u, 4u, 16u}) {
        std::vector<int> pooled(m);
        util::parallel_for(
            pool, 0, static_cast<std::size_t>(m),
            [&](std::size_t i) {
              pooled[i] = opt_lower_bound(f, static_cast<int>(i));
            },
            grain);
        ASSERT_EQ(pooled, serial)
            << "instance " << id << " workers " << workers << " grain "
            << grain;
      }
    }
  }
}

TEST(CeilingSweep, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  util::parallel_for(pool, 0, 8, [&](std::size_t) {
    // From inside a worker this must run inline (submitting back to the
    // pool and waiting would deadlock once all workers are blocked).
    util::parallel_for(pool, 0, 8, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(CeilingSweep, SolverIdenticalAcrossGlobalPoolUse) {
  // Batch and daemon cells build strong LPs on global-pool workers; the
  // per-node bounds feeding the ceiling rows must not depend on which
  // thread computed them.
  const LaminarForest f = forest_for(testing::mixed(1));
  const int m = f.num_nodes();
  std::vector<int> first(m), second(m);
  util::parallel_for(0, static_cast<std::size_t>(m), [&](std::size_t i) {
    first[i] = opt_lower_bound(f, static_cast<int>(i));
  });
  for (int i = 0; i < m; ++i) second[i] = opt_lower_bound(f, i);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace nat::at
