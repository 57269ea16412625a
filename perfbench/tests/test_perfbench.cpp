// Tests of the benchmark itself: generators, statistics, metric names
// and the live correctness gate.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "activetime/session.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr Family kFamilies[] = {Family::kForest, Family::kTree,
                                Family::kCrossing};

TEST(Workloads, BatchFamiliesAreDeterministicPerSeed) {
  for (Family family : kFamilies) {
    for (std::int64_t index : {0, 5, 41}) {
      const std::string a = cell_line(batch_instance(family, 3, index), "x");
      const std::string b = cell_line(batch_instance(family, 3, index), "x");
      const std::string c = cell_line(batch_instance(family, 4, index), "x");
      EXPECT_EQ(a, b) << family_name(family) << " cell " << index;
      EXPECT_NE(a, c) << family_name(family) << " cell " << index;
    }
  }
}

TEST(Workloads, SessionStreamIsDeterministicPerSeed) {
  const auto stream = [](std::uint64_t seed) {
    std::vector<SessionMirror> mirrors = session_mirrors(seed);
    nat::util::Rng rng(seed);
    std::string out;
    for (const SessionMirror& m : mirrors) out += m.open_line("t") + "\n";
    for (std::int64_t step = 0; step < 200; ++step) {
      SessionMirror& m = mirrors[static_cast<std::size_t>(
          session_for_step(step))];
      const nat::at::Delta delta = m.draw_delta(rng);
      out += delta_line("t", m.name(), delta) + "\n";
      m.apply(delta);
    }
    return out;
  };
  EXPECT_EQ(stream(11), stream(11));
  EXPECT_NE(stream(11), stream(12));
}

TEST(Workloads, LaminarityMatchesTheFamily) {
  for (std::int64_t index = 0; index < 40; ++index) {
    EXPECT_TRUE(batch_instance(Family::kForest, 9, index).is_laminar());
    EXPECT_TRUE(batch_instance(Family::kTree, 9, index).is_laminar());
    EXPECT_FALSE(batch_instance(Family::kCrossing, 9, index).is_laminar());
  }
}

TEST(Workloads, TreeHasOneWindowGroupAndForestOnePerRoot) {
  for (std::int64_t index = 0; index < 21; ++index) {
    EXPECT_EQ(nat::at::window_groups(batch_instance(Family::kTree, 5, index))
                  .size(),
              1u);
    const Instance forest = batch_instance(Family::kForest, 5, index);
    EXPECT_EQ(nat::at::window_groups(forest).size(),
              static_cast<std::size_t>(cell_shape(Family::kForest, 5, index)
                                           .size));
  }
}

TEST(Workloads, ShapesAreStratified) {
  for (Family family : kFamilies) {
    const auto all = shapes(family);
    std::multiset<std::pair<int, std::int64_t>> seen;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const CellShape s =
          cell_shape(family, 17, static_cast<std::int64_t>(all.size() + i));
      seen.insert({s.size, s.stretch});
    }
    std::multiset<std::pair<int, std::int64_t>> expected;
    for (const CellShape& s : all) expected.insert({s.size, s.stretch});
    EXPECT_EQ(seen, expected) << family_name(family);
  }
}

TEST(Workloads, SessionDeltasKeepSessionsLaminar) {
  std::vector<SessionMirror> mirrors = session_mirrors(2);
  nat::util::Rng rng(2);
  for (std::int64_t step = 0; step < 2000; ++step) {
    SessionMirror& m = mirrors[static_cast<std::size_t>(
        session_for_step(step))];
    m.apply(m.draw_delta(rng));
  }
  for (const SessionMirror& m : mirrors) {
    EXPECT_TRUE(m.instance().is_laminar()) << m.name();
    EXPECT_NO_THROW(m.instance().validate()) << m.name();
  }
  EXPECT_EQ(nat::at::window_groups(mirrors.back().instance()).size(), 1u);
}

TEST(Workloads, FourInFiveDeltasGoToForestSessions) {
  std::vector<int> hits(kForestSessions + kTreeSessions, 0);
  for (std::int64_t step = 0; step < 400; ++step) {
    ++hits[session_for_step(step)];
  }
  for (int k = 0; k < kForestSessions; ++k) EXPECT_EQ(hits[k], 80) << k;
  for (int k = 0; k < kTreeSessions; ++k) {
    EXPECT_EQ(hits[kForestSessions + k], 20) << k;
  }
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_THROW(percentile(v, 0.90), nat::util::CheckError);
  v.push_back(99);
  EXPECT_DOUBLE_EQ(percentile(v, 0.90), 89.1);
  EXPECT_THROW(percentile(v, 0.99), nat::util::CheckError);
  EXPECT_THROW(percentile(std::vector<double>(19, 1.0), 0.5),
               nat::util::CheckError);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>(20, 1.0), 0.5), 1.0);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
}

TEST(Stats, LogLogSlopeRecoversAPowerLaw) {
  std::vector<double> x, y;
  for (double n : {100.0, 200.0, 400.0, 800.0}) {
    x.push_back(n);
    y.push_back(3e-9 * n * n * n);
  }
  EXPECT_NEAR(loglog_slope(x, y), 3.0, 1e-9);
  EXPECT_EQ(loglog_slope({5.0, 5.0}, {1.0, 2.0}), 0.0);
}

TEST(Metrics, NamesAreValidAndUnique) {
  std::set<std::string> names;
  for (const auto& list : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const auto& [name, unit] : list) {
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
      EXPECT_FALSE(unit.empty()) << name;
    }
  }
  EXPECT_FALSE(valid_metric_name("lp solve"));
  EXPECT_FALSE(valid_metric_name("_lp"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("p99/ms"));
}

TEST(Gate, SelfTestCatchesCorruptedOutputs) {
  std::ostringstream log;
  EXPECT_EQ(self_test(log), 0) << log.str();
}

}  // namespace
}  // namespace perfbench
