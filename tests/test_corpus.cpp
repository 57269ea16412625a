// Golden-corpus regression suite: fixed instance files under corpus/
// with exactly-known optima (MANIFEST.txt). Guards against silent
// behavioural drift anywhere in the stack: solvers must keep their
// guarantees on these exact inputs forever.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "activetime/solver.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "io/serialize.hpp"

namespace nat::at {
namespace {

std::string corpus_dir() {
  // CMake passes the source directory; fall back to a relative path
  // when run by hand from the repo root.
#ifdef NAT_CORPUS_DIR
  return NAT_CORPUS_DIR;
#else
  return "corpus";
#endif
}

std::map<std::string, std::int64_t> load_manifest() {
  std::ifstream in(corpus_dir() + "/MANIFEST.txt");
  EXPECT_TRUE(static_cast<bool>(in)) << "corpus manifest not found";
  std::map<std::string, std::int64_t> manifest;
  std::string name;
  while (in >> name) {
    if (name[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    std::int64_t opt = 0;
    in >> opt;
    manifest[name] = opt;
  }
  return manifest;
}

Instance load(const std::string& name) {
  std::ifstream in(corpus_dir() + "/" + name + ".txt");
  EXPECT_TRUE(static_cast<bool>(in)) << "missing corpus file " << name;
  return io::read_instance(in);
}

TEST(Corpus, ManifestIsNonTrivial) {
  EXPECT_GE(load_manifest().size(), 15u);
}

TEST(Corpus, ExactSolverReproducesRecordedOptima) {
  for (const auto& [name, opt] : load_manifest()) {
    const Instance inst = load(name);
    auto r = baselines::exact_opt_laminar(inst);
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_EQ(r->optimum, opt) << name;
  }
}

TEST(Corpus, NestedSolverKeepsItsGuarantees) {
  for (const auto& [name, opt] : load_manifest()) {
    const Instance inst = load(name);
    NestedSolveResult r = solve_nested(inst);
    validate_schedule(inst, r.schedule);
    EXPECT_EQ(r.repairs, 0) << name;
    EXPECT_GE(r.active_slots, opt) << name;
    EXPECT_LE(static_cast<double>(r.active_slots),
              1.8 * static_cast<double>(opt) + 1e-9)
        << name;
    EXPECT_LE(r.lp_value, static_cast<double>(opt) + 1e-6) << name;
  }
}

TEST(Corpus, TrimmedSolverDominatesPaperPipeline) {
  for (const auto& [name, opt] : load_manifest()) {
    const Instance inst = load(name);
    ActiveTimeOptions options;
    options.trim_rounded = true;
    NestedSolveResult r = solve_nested(inst, options);
    validate_schedule(inst, r.schedule);
    EXPECT_GE(r.active_slots, opt) << name;
  }
}

TEST(Corpus, GreedyStaysWithinThreeTimesOpt) {
  for (const auto& [name, opt] : load_manifest()) {
    const Instance inst = load(name);
    auto r = baselines::greedy_minimal_feasible(inst);
    EXPECT_LE(r.active_slots, 3 * opt) << name;
  }
}

}  // namespace
}  // namespace nat::at
