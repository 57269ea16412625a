// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload forest|tree|crossing|session --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --self-test
//
// Prints a stamp line, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics". Exit codes: 0 when
// every output check passed, 1 when one failed (the result is still
// printed), 2 on a usage error or a refused environment (no result).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "runner.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload forest|tree|crossing|session "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool self_test = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }

  if (const std::string refusal = perfbench::environment_refusal();
      !refusal.empty()) {
    std::cerr << "perfbench: refusing to run: " << refusal << "\n";
    return 2;
  }
  if (self_test) {
    const int broken = perfbench::self_test(std::cerr);
    std::cerr << (broken == 0 ? "self-test passed\n" : "self-test FAILED\n");
    return broken == 0 ? 0 : 1;
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return usage("--workload, --seed and --seconds are required");
  }

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "perfbench: check failed: " << problem << "\n";
  }
  std::cout << result.stamp << "\n" << perfbench::result_line(result) << "\n";
  std::cout.flush();
  return result.correct ? 0 : 1;
}
