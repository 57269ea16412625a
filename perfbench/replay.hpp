// Traced replay of one request, stage by stage, from the benchmark's
// own code.
//
// The untraced run times whole requests through the public entry
// points. The traced run re-executes the same request by calling each
// layer's public functions in the order the program does (solve_nested
// and solve_general for batch cells, SolverSession::apply for session
// deltas) and records a span around every call. Spans stay in memory
// and are written out when the run ends. The replay's cost must equal
// the untraced record's; a difference counts as a replica mismatch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "activetime/session.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

/// In-memory span buffer: name, start, duration, and the enclosing span.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t request = -1;  // spans of one request share this id
    int parent = -1;            // index of the enclosing span, -1 at root
    std::int64_t start_ns = 0;  // relative to the log's epoch
    std::int64_t dur_ns = 0;
  };

  /// Opens a span whose parent is the innermost open span.
  int open(std::string_view name, std::int64_t request);
  /// Closes span `index` (must be the innermost open one); returns its
  /// duration in seconds.
  double close(int index);

  /// Runs `fn` inside a span and returns the span's seconds. The span
  /// is closed even when `fn` throws, so the log stays well nested.
  template <class Fn>
  double time(std::string_view name, std::int64_t request, Fn&& fn) {
    const int index = open(name, request);
    try {
      fn();
    } catch (...) {
      close(index);
      throw;
    }
    return close(index);
  }

  /// One JSON object per span and line.
  void write_jsonl(std::ostream& out) const;

 private:
  nat::util::Stopwatch epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Stage seconds and counts of one replayed batch cell. Stages that a
/// backend does not run stay 0.
struct CellReplay {
  std::string backend;  // "nested" | "general"
  int jobs = 0;
  std::int64_t active_slots = -1;
  double lp_value = -1.0;

  double parse_s = 0;       // parse_json_instance + Instance::validate
  double dispatch_s = 0;    // is_laminar + window_groups
  double tree_build_s = 0;  // LaminarForest::build + canonicalize
  double precheck_s = 0;    // FeasibilityOracle + all-open feasibility
  double lp_build_s = 0;    // build_strong_lp
  double lp_solve_s = 0;    // lp::solve_auto (strong or time-indexed LP)
  double push_down_s = 0;   // unpack + push_down_transform
  double rounding_s = 0;    // topmost_positive + round_solution
  double repair_s = 0;      // repair_open_counts
  double extract_s = 0;     // schedule_with_counts + validate_schedule
  double ti_lp_build_s = 0;     // build_time_indexed_lp
  double general_rest_s = 0;    // solve_general minus its LP build+solve
  double serialize_s = 0;   // cell_to_json
  double total_s = 0;       // the whole replay, instrumentation included

  std::int64_t groups = 0;
  std::int64_t lp_pivots = 0;
  std::int64_t lp_rows = 0;
  std::int64_t lp_cols = 0;
  std::int64_t repairs = 0;
  std::int64_t oracle_queries = 0;  // at.oracle.queries delta
  std::int64_t oracle_warm = 0;     // at.oracle.warm_queries delta
};

/// Replays one JSON cell line. Counter deltas are only meaningful when
/// no other thread solves concurrently.
CellReplay replay_cell(const std::string& line, std::int64_t request,
                       SpanLog& log);

/// Stage seconds of one replayed session delta.
struct DeltaReplay {
  std::int64_t active_slots = -1;
  double parse_s = 0;      // Json::parse + service::parse_delta
  double apply_s = 0;      // SolverSession::apply
  double serialize_s = 0;  // session_op_to_json
  double total_s = 0;
  nat::at::SessionStats before;  // replica stats around the apply
  nat::at::SessionStats after;
};

/// Replays one session delta line against the benchmark's replica
/// session, which must hold the program's pre-delta state.
DeltaReplay replay_delta(const std::string& line,
                         nat::at::SolverSession& replica,
                         std::int64_t request, SpanLog& log);

}  // namespace perfbench
