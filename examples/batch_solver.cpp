// Fault-isolated batch solver over the service layer.
//
// Reads one instance per line (JSONL) or a list of instance files, fans
// the cells across a thread pool, and streams one JSON record per cell
// to stdout in completion order. A malformed, infeasible, or
// deadline-blown cell becomes a structured error record; the process
// exits 0 as long as the *batch machinery* worked, so pipelines can
// grep the records instead of parsing a crash.
//
//   $ ./examples/batch_solver batch.jsonl
//   $ ./examples/batch_solver --files a.txt b.txt c.txt
//   $ generate | ./examples/batch_solver - --solver exact --timeout-ms 500
//
// Flags:
//   --solver auto|nested|general|greedy|exact   (default auto)
//   --timeout-ms N    per-cell deadline; 0 = none (default)
//   --threads N       pool width; 0 = hardware concurrency (default)
//   --keep-going / --no-keep-going      (default --keep-going)
//   --files f1 f2 ... remaining args are native-format instance files
//   --robust          robust interval-time mode (docs/ROBUST.md): cells
//                     route through solve_robust and records carry
//                     robust_lo / robust_hi; requires --solver auto
//   --summary         print a batch summary line to stderr at the end
//   --sessions        stateful mode: lines are session ops
//                     (open/delta/close, docs/INCREMENTAL.md) routed
//                     through persistent incremental SolverSessions
//                     instead of independent cells
//
// Record schema: docs/SERVICE.md (cells), docs/INCREMENTAL.md (sessions).
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lp/backend.hpp"
#include "service/batch.hpp"
#include "service/jsonl.hpp"
#include "service/sessions.hpp"

namespace {

void usage() {
  std::cerr << "usage: batch_solver [batch.jsonl | -] [--files f1 f2 ...]\n"
            << "         [--solver auto|nested|general|greedy|exact] [--timeout-ms N]\n"
            << "         [--threads N] [--no-keep-going] [--robust]\n"
            << "         [--summary] [--sessions]\n";
}

/// Stateful mode: every line is one session op (open/delta/close),
/// processed strictly in order through a SessionManager. One record per
/// line, same fault-boundary contract as the batch cells.
int run_sessions(std::istream& in, bool summary) {
  nat::service::SessionManager manager;
  std::string line;
  int index = 0;
  int solved = 0;
  int errors = 0;
  bool over_cap = false;
  while (nat::service::read_jsonl_record(in, &line, &over_cap)) {
    nat::service::SessionOpResult r;
    if (over_cap) {
      r.index = index++;
      r.failure_class = nat::service::kLineLimitsClass;
      r.error = nat::service::line_limits_error();
    } else {
      r = manager.process_line(line, index++);
    }
    (r.status == nat::service::CellStatus::kSolved ? solved : errors) += 1;
    nat::service::write_jsonl_record(std::cout,
                                     nat::service::session_op_to_json(r));
  }
  if (summary) {
    std::cerr << "sessions: " << index << " ops, " << solved << " ok, "
              << errors << " errors, " << manager.open_sessions()
              << " left open\n";
  }
  return 0;
}

bool read_stream(std::istream& in, std::vector<nat::service::BatchItem>* out) {
  std::string line;
  bool over_cap = false;
  while (nat::service::read_jsonl_record(in, &line, &over_cap)) {
    nat::service::BatchItem item;
    item.text = line;
    item.format = nat::service::BatchItem::Format::kJson;
    item.over_cap = over_cap;
    out->push_back(std::move(item));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nat;

  // A stale NAT_LP_BACKEND would fail every solve; refuse it before
  // reading any input.
  try {
    lp::default_backend();
  } catch (const std::exception& e) {
    std::cerr << "batch_solver: " << e.what() << '\n';
    return 2;
  }

  service::BatchOptions options;
  std::vector<service::BatchItem> items;
  std::string jsonl_path;
  bool summary = false;
  bool sessions = false;
  bool reading_files = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--solver" && i + 1 < argc) {
      options.solver = argv[++i];
      reading_files = false;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      options.timeout_ms = std::strtoll(argv[++i], nullptr, 10);
      reading_files = false;
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      reading_files = false;
    } else if (arg == "--keep-going") {
      options.keep_going = true;
      reading_files = false;
    } else if (arg == "--no-keep-going") {
      options.keep_going = false;
      reading_files = false;
    } else if (arg == "--robust") {
      options.robust = true;
      reading_files = false;
    } else if (arg == "--summary") {
      summary = true;
      reading_files = false;
    } else if (arg == "--sessions") {
      sessions = true;
      reading_files = false;
    } else if (arg == "--files") {
      reading_files = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (reading_files) {
      // Each file is one cell in the native text format. A missing
      // file still becomes a cell: the unreadable payload fails inside
      // the cell's fault boundary as input:parse, keeping "one input =
      // one record" true for driver scripts.
      service::BatchItem item;
      item.id = arg;
      item.format = service::BatchItem::Format::kNative;
      std::ifstream in(arg);
      if (in.good()) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        item.text = buffer.str();
      }
      items.push_back(std::move(item));
    } else if (jsonl_path.empty()) {
      jsonl_path = arg;
    } else {
      std::cerr << "batch_solver: unexpected argument \"" << arg << "\"\n";
      usage();
      return 2;
    }
  }

  if (sessions) {
    if (!items.empty()) {
      std::cerr << "batch_solver: --sessions reads a JSONL op stream, not "
                   "--files\n";
      return 2;
    }
    if (jsonl_path.empty() || jsonl_path == "-") {
      return run_sessions(std::cin, summary);
    }
    std::ifstream in(jsonl_path);
    if (!in.good()) {
      std::cerr << "batch_solver: cannot open " << jsonl_path << "\n";
      return 2;
    }
    return run_sessions(in, summary);
  }

  if (!jsonl_path.empty()) {
    if (jsonl_path == "-") {
      read_stream(std::cin, &items);
    } else {
      std::ifstream in(jsonl_path);
      if (!in.good()) {
        std::cerr << "batch_solver: cannot open " << jsonl_path << "\n";
        return 2;
      }
      read_stream(in, &items);
    }
  }
  if (items.empty()) {
    std::cerr << "batch_solver: no cells to solve\n";
    usage();
    return 2;
  }

  const service::BatchReport report = service::solve_batch(
      items, options, [](const service::CellResult& cell) {
        service::write_jsonl_record(std::cout, service::cell_to_json(cell));
      });

  if (summary) {
    std::cerr << "batch: " << report.cells.size() << " cells, "
              << report.solved << " solved, " << report.errors << " errors, "
              << report.timeouts << " timeouts, " << report.skipped
              << " skipped\n";
  }
  return 0;
}
