#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <ostream>

#include "activetime/feasibility.hpp"
#include "activetime/general.hpp"
#include "activetime/lp_relaxation.hpp"
#include "activetime/lp_transform.hpp"
#include "activetime/oracle.hpp"
#include "activetime/rounding.hpp"
#include "activetime/solver.hpp"
#include "activetime/time_indexed_lp.hpp"
#include "activetime/tree.hpp"
#include "lp/backend.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "service/batch.hpp"
#include "service/sessions.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace at = nat::at;

int SpanLog::open(std::string_view name, std::int64_t request) {
  Span span;
  span.name = std::string(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = epoch_.nanos();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanLog::close(int index) {
  NAT_CHECK_MSG(!open_.empty() && open_.back() == index,
                "SpanLog: spans must close innermost first");
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.dur_ns = epoch_.nanos() - span.start_ns;
  return static_cast<double>(span.dur_ns) / 1e9;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    nat::obs::Json j = nat::obs::Json::object();
    j["name"] = s.name;
    j["request"] = s.request;
    j["parent"] = s.parent;
    j["start_ns"] = s.start_ns;
    j["dur_ns"] = s.dur_ns;
    out << j.dump() << '\n';
  }
}

namespace {

// solve_nested, stage by stage, with its default options (verify off in
// optimized builds, no trim, no naive rounding).
void replay_nested(const at::Instance& instance, std::int64_t request,
                   SpanLog& log, CellReplay& r) {
  std::optional<at::LaminarForest> forest;
  r.tree_build_s = log.time("activetime.tree_build", request, [&] {
    forest.emplace(at::LaminarForest::build(instance));
    forest->canonicalize();
  });

  std::optional<at::FeasibilityOracle> oracle;
  r.precheck_s = log.time("flow.precheck", request, [&] {
    oracle.emplace(*forest);
    std::vector<at::Time> full(static_cast<std::size_t>(forest->num_nodes()));
    for (int i = 0; i < forest->num_nodes(); ++i) {
      full[static_cast<std::size_t>(i)] = forest->node(i).length();
    }
    NAT_CHECK_MSG(oracle->feasible(full), "replay: instance is infeasible");
  });

  std::optional<at::StrongLp> lp;
  r.lp_build_s = log.time("activetime.lp_build", request,
                          [&] { lp.emplace(at::build_strong_lp(*forest)); });
  r.lp_rows = lp->model.num_rows();
  r.lp_cols = lp->model.num_variables();

  nat::lp::Solution lps;
  r.lp_solve_s = log.time("lp.solve", request,
                          [&] { lps = nat::lp::solve_auto(lp->model); });
  NAT_CHECK_MSG(lps.status == nat::lp::Status::kOptimal,
                "replay: strong LP did not solve");
  r.lp_value = lps.objective;
  r.lp_pivots = lps.iterations;

  at::FractionalSolution frac;
  r.push_down_s = log.time("activetime.push_down", request, [&] {
    frac = at::unpack(*lp, lps);
    at::push_down_transform(*forest, *lp, frac);
  });

  std::vector<at::Time> counts;
  r.rounding_s = log.time("activetime.rounding", request, [&] {
    const std::vector<int> topmost = at::topmost_positive(*forest, frac.x);
    counts = at::round_solution(*forest, frac.x, topmost).x_tilde;
  });

  r.repair_s = log.time("flow.repair", request, [&] {
    r.repairs = at::repair_open_counts(*forest, *oracle, counts);
  });

  r.extract_s = log.time("activetime.extract", request, [&] {
    auto schedule = at::schedule_with_counts(*forest, counts);
    NAT_CHECK_MSG(schedule.has_value(), "replay: extraction failed");
    at::validate_schedule(instance, *schedule);
    r.active_slots = schedule->active_slots();
  });
}

// solve_general with its LP build and solve timed separately; the rest
// of the backend (slot oracle, rounding, repair, trim, extraction) is
// the full call minus those two.
void replay_general(const at::Instance& instance, std::int64_t request,
                    SpanLog& log, CellReplay& r) {
  std::optional<at::TimeIndexedLp> lp;
  r.ti_lp_build_s = log.time("activetime.ti_lp_build", request, [&] {
    lp.emplace(at::build_time_indexed_lp(instance));
  });
  r.lp_rows = lp->model.num_rows();
  r.lp_cols = lp->model.num_variables();
  nat::lp::Solution lps;
  r.lp_solve_s = log.time("lp.solve", request,
                          [&] { lps = nat::lp::solve_auto(lp->model); });
  r.lp_pivots = lps.iterations;

  at::GeneralSolveResult res;
  const double full_s = log.time("activetime.solve_general", request,
                                 [&] { res = at::solve_general(instance); });
  r.general_rest_s = std::max(0.0, full_s - r.ti_lp_build_s - r.lp_solve_s);
  r.backend = res.lp_failed ? "greedy" : "general";
  r.active_slots = res.active_slots;
  r.lp_value = res.lp_failed ? -1.0 : res.lp_value;
  r.repairs = res.repairs;
}

}  // namespace

CellReplay replay_cell(const std::string& line, std::int64_t request,
                       SpanLog& log) {
  static nat::obs::Counter& c_queries =
      nat::obs::counter("at.oracle.queries");
  static nat::obs::Counter& c_warm =
      nat::obs::counter("at.oracle.warm_queries");
  const std::int64_t queries0 = c_queries.value();
  const std::int64_t warm0 = c_warm.value();

  CellReplay r;
  r.total_s = log.time("record", request, [&] {
    at::Instance instance;
    r.parse_s = log.time("service.parse", request, [&] {
      instance = nat::service::parse_json_instance(line);
      instance.validate();
    });
    r.jobs = instance.num_jobs();

    bool laminar = false;
    r.dispatch_s = log.time("activetime.dispatch", request, [&] {
      laminar = instance.is_laminar();
      r.groups =
          static_cast<std::int64_t>(at::window_groups(instance).size());
    });

    if (laminar) {
      r.backend = "nested";
      replay_nested(instance, request, log, r);
    } else {
      replay_general(instance, request, log, r);
    }

    nat::service::CellResult cell;
    cell.id = "replay";
    cell.status = nat::service::CellStatus::kSolved;
    cell.solver = r.backend;
    cell.backend = r.backend;
    cell.jobs = r.jobs;
    cell.active_slots = r.active_slots;
    cell.lp_value = r.lp_value;
    std::string record;
    r.serialize_s = log.time("service.serialize", request, [&] {
      record = nat::service::cell_to_json(cell);
    });
  });
  r.oracle_queries = c_queries.value() - queries0;
  r.oracle_warm = c_warm.value() - warm0;
  return r;
}

DeltaReplay replay_delta(const std::string& line, at::SolverSession& replica,
                         std::int64_t request, SpanLog& log) {
  DeltaReplay r;
  r.total_s = log.time("record", request, [&] {
    at::Delta delta;
    r.parse_s = log.time("service.parse", request, [&] {
      delta = nat::service::parse_delta(nat::obs::Json::parse(line));
    });

    r.before = replica.stats();
    const at::SessionResult* result = nullptr;
    r.apply_s = log.time("session.apply", request,
                         [&] { result = &replica.apply(delta); });
    r.after = replica.stats();
    r.active_slots = result->active_slots;

    nat::service::SessionOpResult op;
    op.op = "delta";
    op.status = nat::service::CellStatus::kSolved;
    op.backend = at::to_string(result->backend);
    op.jobs = replica.num_jobs();
    op.active_slots = result->active_slots;
    op.lp_value = result->lp_value;
    op.groups_resolved = r.after.groups_resolved - r.before.groups_resolved;
    op.groups_reused = r.after.groups_reused - r.before.groups_reused;
    op.lp_warm_hits = r.after.lp_warm_hits - r.before.lp_warm_hits;
    op.lp_warm_repairs = r.after.lp_warm_repairs - r.before.lp_warm_repairs;
    op.lp_cold_fallbacks =
        r.after.lp_cold_fallbacks - r.before.lp_cold_fallbacks;
    std::string record;
    r.serialize_s = log.time("service.serialize", request, [&] {
      record = nat::service::session_op_to_json(op);
    });
  });
  return r;
}

}  // namespace perfbench
