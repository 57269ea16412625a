// Workload runs, output checks and metric reports of the benchmark.
//
// An untraced run measures one workload end to end: closed-loop
// clients feed generated JSONL lines to the program's public entry
// points and time each line from call to record. A traced run replays
// each request stage by stage (replay.hpp) to break that time down by
// layer. Both check every output outside the timed phase.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // forest | tree | crossing | session
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump path ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::string stamp;  // one JSON object: build, environment, samples
  std::vector<std::string> problems;  // one line per failed check
};

/// Metric names and units reported untraced / traced, in report order.
std::vector<std::pair<std::string, std::string>> end_to_end_metrics();
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

/// Non-empty (the reason) when the environment selects a different
/// program than the one the benchmark measures.
std::string environment_refusal();

/// Runs one workload. Throws util::CheckError on a bad workload name
/// or a run too short for the reported percentiles.
RunResult run_workload(const RunOptions& options);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunResult& result);

/// Runs the output checks on clean outputs, then corrupts one batch
/// record's cost and one session mirror. Returns the number of
/// expectations that failed (0 when the correctness gate is live: clean
/// outputs pass and both corruptions are caught). Progress goes to `log`.
int self_test(std::ostream& log);

}  // namespace perfbench
