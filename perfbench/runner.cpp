#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

#include "activetime/schedule.hpp"
#include "activetime/session.hpp"
#include "activetime/solver.hpp"
#include "daemon/daemon.hpp"
#include "lp/backend.hpp"
#include "obs/report.hpp"
#include "replay.hpp"
#include "service/batch.hpp"
#include "stats.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace at = nat::at;
namespace service = nat::service;
using Clock = std::chrono::steady_clock;
using nat::obs::Json;

namespace {

/// Fields of one program record that the checks and metrics read.
struct ParsedRecord {
  std::string status;
  std::string backend;
  std::int64_t active_slots = -1;
  double lp_value = -1.0;
  double queue_ms = 0.0;  // daemon envelope (0 for batch records)
  double solve_ms = 0.0;
  double wall_ms = 0.0;
};

ParsedRecord parse_record(const std::string& record);

/// One batch line's outcome: its stream index and the record text.
struct BatchRecord {
  std::int64_t index = 0;
  std::string record;
  double latency_s = 0.0;
};

struct CheckReport {
  std::int64_t failed = 0;  // records that failed at least one check
  std::vector<std::string> problems;
};

/// Every record must be solved by the family's backend with
/// lp_value <= active_slots; every kResolveEvery-th line (at most
/// kMaxResolves) is re-solved through at::solve_active_time, and its
/// validated schedule's cost must equal the record's.
CheckReport check_batch(Family family, std::uint64_t seed,
                        const std::vector<BatchRecord>& records);

/// Each session's last reported cost must equal a fresh SolverSession
/// built on the benchmark's mirror of that session.
CheckReport check_sessions(const std::vector<SessionMirror>& mirrors,
                           const std::vector<std::int64_t>& last_costs);

// Closed-loop client counts: two batch clients leave two of four cores
// for everything else on the host; the session workload keeps one
// request outstanding, so its daemon needs one worker.
constexpr int kBatchClients = 2;
constexpr std::size_t kDaemonThreads = 1;
constexpr int kSetupRepetitions = 7;
constexpr std::int64_t kResolveEvery = 16;
constexpr int kMaxResolves = 16;
constexpr double kLpSlack = 1e-6;
constexpr std::size_t kMaxProblems = 20;  // check failures echoed to stderr
const std::string kTenant = "bench";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

std::string expected_backend(Family family) {
  return family == Family::kCrossing ? "general" : "nested";
}

// The first failed check of one record, or "" when it passes.
std::string record_problem(const ParsedRecord& r, const std::string& backend) {
  if (r.status != "solved") return "status " + r.status;
  if (r.backend != backend) {
    return "backend " + r.backend + " (expected " + backend + ")";
  }
  if (r.active_slots < 0 || r.lp_value < 0) return "no cost or lp_value";
  if (r.lp_value > static_cast<double>(r.active_slots) + kLpSlack) {
    return "lp_value " + std::to_string(r.lp_value) + " > active_slots " +
           std::to_string(r.active_slots);
  }
  return "";
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Timed stages of the traced run; each reports a per-record median
// (<stage>_s) and a share of the traced total (<stage>_share).
const std::vector<std::string>& traced_stages() {
  static const std::vector<std::string> stages = {
      "service.parse",          "service.serialize",
      "activetime.dispatch",    "activetime.tree_build",
      "activetime.lp_build",    "activetime.push_down",
      "activetime.rounding",    "activetime.extract",
      "activetime.ti_lp_build", "activetime.general_rest",
      "lp.solve",               "flow.precheck",
      "flow.repair",            "session.apply",
      "daemon.queue",           "daemon.solve",
      "daemon.framing"};
  return stages;
}

// Counts and ratios of the traced run, in report order.
const std::vector<std::pair<std::string, std::string>>& traced_counts() {
  static const std::vector<std::pair<std::string, std::string>> counts = {
      {"activetime.groups", "count"},
      {"activetime.repairs", "count"},
      {"lp.pivots", "count"},
      {"lp.rows", "count"},
      {"lp.cols", "count"},
      {"lp.solve_exponent", "slope"},
      {"flow.oracle_queries", "count"},
      {"flow.oracle_warm_ratio", "ratio"},
      {"session.groups_reused_ratio", "ratio"},
      {"session.lp_warm_ratio", "ratio"},
      {"session.cold_fallbacks", "count"},
      {"trace.overhead", "ratio"},
      {"trace.replica_mismatch", "count"},
      {"trace.records", "count"}};
  return counts;
}

/// Everything a run accumulates before it becomes a RunResult.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<double> latency_ms;
  double phase_s = 0;
  std::vector<double> setup_s;
  double cost_sum = 0;
  double lp_sum = 0;
  int clients = 0;
  std::size_t daemon_threads = 0;

  // Traced run only.
  SpanLog spans;
  std::map<std::string, std::vector<double>> stage_s;
  std::vector<double> traced_total_s;
  std::map<std::string, std::vector<double>> count_samples;
  std::map<std::string, double> count_values;
  std::vector<double> overhead;
  std::int64_t mismatches = 0;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < kMaxProblems) problems.push_back(what);
  }
  void absorb(const CheckReport& report) {
    failed += report.failed;
    for (const std::string& p : report.problems) {
      if (problems.size() < kMaxProblems) problems.push_back(p);
    }
  }
  void add_record(const ParsedRecord& r) {
    cost_sum += static_cast<double>(r.active_slots);
    lp_sum += r.lp_value;
  }
};

/// A daemon with one closed-loop client: each request waits for its
/// record. Latency runs from submit_line to the sink receiving the
/// record.
class SessionClient {
 public:
  SessionClient() {
    nat::daemon::DaemonOptions options;
    options.threads = kDaemonThreads;
    options.sink = [this](const std::string& record) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      record_ = record;
      received_at_ = now;
      ready_ = true;
      cv_.notify_one();
    };
    daemon_ = std::make_unique<nat::daemon::Daemon>(std::move(options));
  }
  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  std::string request(const std::string& line, double* latency_s) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_ = false;
    }
    const Clock::time_point sent = Clock::now();
    daemon_->submit_line(line);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ready_; });
    *latency_s = seconds_between(sent, received_at_);
    return std::move(record_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  std::string record_;
  Clock::time_point received_at_;
  // Last member: destroyed (drained) before the state its sink writes.
  std::unique_ptr<nat::daemon::Daemon> daemon_;
};

/// Opens every mirror's session; returns each session's opening cost.
std::vector<std::int64_t> open_sessions(
    SessionClient& client, const std::vector<SessionMirror>& mirrors,
    Tally& tally) {
  std::vector<std::int64_t> costs;
  for (const SessionMirror& m : mirrors) {
    double latency = 0;
    const ParsedRecord r =
        parse_record(client.request(m.open_line(kTenant), &latency));
    const std::string problem = record_problem(r, "nested");
    if (!problem.empty()) tally.fail("open " + m.name() + ": " + problem);
    costs.push_back(r.active_slots);
  }
  return costs;
}

void add_stage(Tally& t, const std::string& stage, double seconds) {
  t.stage_s[stage].push_back(seconds);
}

// Folds one traced batch cell into the tally. Shares are taken of the
// stage sum: the general replay also re-runs solve_general's own LP,
// which no stage reports.
void tally_replay(Tally& tally, const CellReplay& r, const std::string& record,
                  double latency) {
  const ParsedRecord p = parse_record(record);
  if (r.active_slots != p.active_slots || r.backend != p.backend) {
    ++tally.mismatches;
  }
  const std::pair<const char*, double> stages[] = {
      {"service.parse", r.parse_s},
      {"service.serialize", r.serialize_s},
      {"activetime.dispatch", r.dispatch_s},
      {"activetime.tree_build", r.tree_build_s},
      {"activetime.lp_build", r.lp_build_s},
      {"activetime.push_down", r.push_down_s},
      {"activetime.rounding", r.rounding_s},
      {"activetime.extract", r.extract_s},
      {"activetime.ti_lp_build", r.ti_lp_build_s},
      {"activetime.general_rest", r.general_rest_s},
      {"lp.solve", r.lp_solve_s},
      {"flow.precheck", r.precheck_s},
      {"flow.repair", r.repair_s}};
  double stage_total = 0;
  for (const auto& [stage, seconds] : stages) {
    add_stage(tally, stage, seconds);
    stage_total += seconds;
  }
  tally.traced_total_s.push_back(stage_total);
  auto& cs = tally.count_samples;
  cs["activetime.groups"].push_back(static_cast<double>(r.groups));
  cs["lp.pivots"].push_back(static_cast<double>(r.lp_pivots));
  cs["lp.rows"].push_back(static_cast<double>(r.lp_rows));
  cs["lp.cols"].push_back(static_cast<double>(r.lp_cols));
  cs["flow.oracle_queries"].push_back(static_cast<double>(r.oracle_queries));
  cs["jobs"].push_back(r.jobs);
  auto& cv = tally.count_values;
  cv["activetime.repairs"] += static_cast<double>(r.repairs);
  cv["oracle.queries"] += static_cast<double>(r.oracle_queries);
  cv["oracle.warm"] += static_cast<double>(r.oracle_warm);
  tally.overhead.push_back(r.total_s / latency);
}

// ---- batch workloads ---------------------------------------------------

void run_batch(Family family, const RunOptions& options, Tally& tally) {
  const service::BatchOptions batch;  // auto dispatch, no deadline

  std::vector<std::string> warmup;
  for (const at::Instance& instance : warmup_instances(family)) {
    warmup.push_back(cell_line(instance, "warmup"));
  }
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const nat::util::Stopwatch sw;
    for (const std::string& line : warmup) {
      const service::CellResult cell =
          service::solve_cell({"warmup", line}, 0, batch);
      service::cell_to_json(cell);
      if (cell.status != service::CellStatus::kSolved) {
        tally.fail("warm-up cell: " + cell.error);
      }
    }
    tally.setup_s.push_back(sw.seconds());
  }

  tally.clients = options.trace ? 1 : kBatchClients;
  std::atomic<std::int64_t> next{0};
  std::vector<std::vector<BatchRecord>> per_client(
      static_cast<std::size_t>(tally.clients));
  std::vector<Clock::time_point> finished(
      static_cast<std::size_t>(tally.clients));
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(tally.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  const auto client = [&](int c) {
    try {
      while (Clock::now() < deadline) {
        const std::int64_t index = next.fetch_add(1);
        const std::string id = "c" + std::to_string(index);
        const std::string line =
            cell_line(batch_instance(family, options.seed, index), id);
        const Clock::time_point t0 = Clock::now();
        const service::CellResult cell =
            service::solve_cell({id, line}, static_cast<int>(index), batch);
        std::string record = service::cell_to_json(cell);
        const double latency = seconds_between(t0, Clock::now());
        if (options.trace) {
          try {
            tally_replay(tally, replay_cell(line, index, tally.spans), record,
                         latency);
          } catch (const std::exception&) {
            ++tally.mismatches;
          }
        }
        per_client[static_cast<std::size_t>(c)].push_back(
            {index, std::move(record), latency});
      }
    } catch (...) {
      errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
    finished[static_cast<std::size_t>(c)] = Clock::now();
  };
  if (tally.clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < tally.clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  tally.phase_s = seconds_between(
      start, *std::max_element(finished.begin(), finished.end()));

  std::vector<BatchRecord> records;
  for (auto& recs : per_client) {
    for (BatchRecord& r : recs) records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const BatchRecord& a, const BatchRecord& b) {
              return a.index < b.index;
            });
  for (const BatchRecord& b : records) {
    ++tally.attempted;
    tally.latency_ms.push_back(b.latency_s * 1e3);
    const ParsedRecord r = parse_record(b.record);
    if (r.status == "solved" && r.lp_value >= 0) tally.add_record(r);
  }
  tally.absorb(check_batch(family, options.seed, records));
}

// ---- session workload --------------------------------------------------

void run_session(const RunOptions& options, Tally& tally) {
  tally.clients = 1;
  tally.daemon_threads = kDaemonThreads;

  std::unique_ptr<SessionClient> client;
  std::vector<SessionMirror> mirrors;
  std::vector<std::int64_t> last_costs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    client.reset();  // the previous daemon drains outside the timing
    mirrors = session_mirrors(options.seed);
    Tally scratch;  // only the last repetition's opens are checked
    const nat::util::Stopwatch sw;
    client = std::make_unique<SessionClient>();
    last_costs = open_sessions(*client, mirrors,
                               rep + 1 == kSetupRepetitions ? tally : scratch);
    tally.setup_s.push_back(sw.seconds());
  }

  std::vector<std::unique_ptr<at::SolverSession>> replicas;
  if (options.trace) {
    for (const SessionMirror& m : mirrors) {
      replicas.push_back(std::make_unique<at::SolverSession>(m.instance()));
      replicas.back()->solve();
    }
  }

  nat::util::Rng rng(options.seed ^ 0xDE17AULL);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (std::int64_t step = 0; Clock::now() < deadline; ++step) {
    const int k = session_for_step(step);
    SessionMirror& mirror = mirrors[static_cast<std::size_t>(k)];
    const at::Delta delta = mirror.draw_delta(rng);
    const std::string line = delta_line(kTenant, mirror.name(), delta);
    double latency = 0;
    const ParsedRecord r = parse_record(client->request(line, &latency));
    ++tally.attempted;
    tally.latency_ms.push_back(latency * 1e3);
    const std::string problem = record_problem(r, "nested");
    if (!problem.empty()) {
      tally.fail("delta " + std::to_string(step) + " on " + mirror.name() +
                 ": " + problem);
    }
    if (r.status != "solved") continue;
    mirror.apply(delta);
    last_costs[static_cast<std::size_t>(k)] = r.active_slots;
    tally.add_record(r);

    if (!options.trace) continue;
    try {
      const DeltaReplay d = replay_delta(
          line, *replicas[static_cast<std::size_t>(k)], step, tally.spans);
      if (d.active_slots != r.active_slots) ++tally.mismatches;
      add_stage(tally, "service.parse", d.parse_s);
      add_stage(tally, "session.apply", d.apply_s);
      add_stage(tally, "service.serialize", d.serialize_s);
      tally.overhead.push_back(d.total_s / latency);
      auto& cv = tally.count_values;
      cv["session.groups_total"] +=
          d.after.groups_total - d.before.groups_total;
      cv["session.groups_reused"] +=
          d.after.groups_reused - d.before.groups_reused;
      cv["lp.warm_hits"] += d.after.lp_warm_hits - d.before.lp_warm_hits;
      cv["lp.warm_repairs"] +=
          d.after.lp_warm_repairs - d.before.lp_warm_repairs;
      cv["session.cold_fallbacks"] +=
          d.after.lp_cold_fallbacks - d.before.lp_cold_fallbacks;
    } catch (const std::exception&) {
      ++tally.mismatches;
    }
    add_stage(tally, "daemon.queue", r.queue_ms / 1e3);
    add_stage(tally, "daemon.solve", r.solve_ms / 1e3);
    add_stage(tally, "daemon.framing", latency - r.wall_ms / 1e3);
    tally.traced_total_s.push_back(latency);
  }
  tally.phase_s = seconds_between(start, Clock::now());
  tally.absorb(check_sessions(mirrors, last_costs));
}

// ---- reports -----------------------------------------------------------

std::vector<Metric> end_to_end_values(const Tally& t) {
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double value) {
    for (const auto& [n, unit] : end_to_end_metrics()) {
      if (n == name) out.push_back({name, value, unit});
    }
  };
  add("records_per_s", static_cast<double>(t.latency_ms.size()) / t.phase_s);
  add("latency_p50_ms", percentile(t.latency_ms, 0.50));
  add("latency_p90_ms", percentile(t.latency_ms, 0.90));
  add("alg_over_lp", t.lp_sum > 0 ? t.cost_sum / t.lp_sum : 0.0);
  add("solved_share",
      t.attempted > 0 ? 1.0 - static_cast<double>(t.failed) /
                                  static_cast<double>(t.attempted)
                      : 0.0);
  add("setup_s", median(t.setup_s));
  add("peak_rss_mb", peak_rss_mb());
  return out;
}

std::vector<Metric> per_layer_values(const Tally& t) {
  std::vector<Metric> out;
  const double total = sum(t.traced_total_s);
  const auto median_or_zero = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  for (const std::string& stage : traced_stages()) {
    const auto it = t.stage_s.find(stage);
    const std::vector<double> none;
    const std::vector<double>& v = it == t.stage_s.end() ? none : it->second;
    out.push_back({stage + "_s", median_or_zero(v), "s"});
    out.push_back(
        {stage + "_share", total > 0 ? sum(v) / total : 0.0, "share"});
  }
  const auto sample = [&](const std::string& name) {
    const auto it = t.count_samples.find(name);
    return it == t.count_samples.end() ? std::vector<double>{} : it->second;
  };
  const auto value = [&](const std::string& name) {
    const auto it = t.count_values.find(name);
    return it == t.count_values.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto lp_solve = t.stage_s.find("lp.solve");
  const double exponent =
      lp_solve == t.stage_s.end()
          ? 0.0
          : loglog_slope(sample("jobs"), lp_solve->second);
  const double warm_ladder = value("lp.warm_hits") + value("lp.warm_repairs") +
                             value("session.cold_fallbacks");
  const std::map<std::string, double> counts = {
      {"activetime.groups", median_or_zero(sample("activetime.groups"))},
      {"activetime.repairs", value("activetime.repairs")},
      {"lp.pivots", median_or_zero(sample("lp.pivots"))},
      {"lp.rows", median_or_zero(sample("lp.rows"))},
      {"lp.cols", median_or_zero(sample("lp.cols"))},
      {"lp.solve_exponent", exponent},
      {"flow.oracle_queries", median_or_zero(sample("flow.oracle_queries"))},
      {"flow.oracle_warm_ratio",
       ratio(value("oracle.warm"), value("oracle.queries"))},
      {"session.groups_reused_ratio",
       ratio(value("session.groups_reused"), value("session.groups_total"))},
      {"session.lp_warm_ratio", ratio(value("lp.warm_hits"), warm_ladder)},
      {"session.cold_fallbacks", value("session.cold_fallbacks")},
      {"trace.overhead", median_or_zero(t.overhead)},
      {"trace.replica_mismatch", static_cast<double>(t.mismatches)},
      {"trace.records", static_cast<double>(t.traced_total_s.size())}};
  for (const auto& [name, unit] : traced_counts()) {
    out.push_back({name, counts.at(name), unit});
  }
  return out;
}

std::string stamp_json(const RunOptions& options, const Tally& t) {
  Json s = Json::object();
  s["workload"] = options.workload;
  s["seed"] = static_cast<std::int64_t>(options.seed);
  s["seconds"] = options.seconds;
  s["trace"] = options.trace;
  s["build_type"] = PERFBENCH_BUILD_TYPE;
  s["NAT_VERIFY"] = env_or("NAT_VERIFY", "unset");
  s["NAT_LP_BACKEND"] = env_or("NAT_LP_BACKEND", "unset");
  s["lp_backend"] = nat::lp::backend_name(nat::lp::default_backend());
  s["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  s["clients"] = t.clients;
  s["daemon_threads"] = static_cast<std::int64_t>(t.daemon_threads);
  s["latency_samples"] = static_cast<std::int64_t>(t.latency_ms.size());
  s["setup_samples"] = static_cast<std::int64_t>(t.setup_s.size());
  s["failed_share"] =
      t.attempted > 0
          ? static_cast<double>(t.failed) / static_cast<double>(t.attempted)
          : 0.0;
  // p99 is reported where the run has ten samples beyond it (in
  // practice the session workload); it is informational, not gated.
  if (percentile_supported(t.latency_ms.size(), 0.99)) {
    s["latency_p99_ms"] = percentile(t.latency_ms, 0.99);
  }
  Json wrapper = Json::object();
  wrapper["stamp"] = std::move(s);
  return wrapper.dump();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> end_to_end_metrics() {
  return {{"records_per_s", "1/s"}, {"latency_p50_ms", "ms"},
          {"latency_p90_ms", "ms"}, {"alg_over_lp", "ratio"},
          {"solved_share", "share"}, {"setup_s", "s"},
          {"peak_rss_mb", "MiB"}};
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& stage : traced_stages()) {
    out.emplace_back(stage + "_s", "s");
    out.emplace_back(stage + "_share", "share");
  }
  for (const auto& entry : traced_counts()) out.push_back(entry);
  return out;
}

std::string environment_refusal() {
  if (env_or("NAT_LP_BACKEND", "") == "check") {
    return "NAT_LP_BACKEND=check cross-checks every LP against the dense "
           "backend; unset it to measure the shipped program";
  }
  if (env_or("NAT_VERIFY", "") == "full") {
    return "NAT_VERIFY=full runs the exact-arithmetic validators; unset it "
           "to measure the shipped program";
  }
  return "";
}

RunResult run_workload(const RunOptions& options) {
  NAT_CHECK_MSG(options.seconds > 0, "--seconds must be positive");
  Tally tally;
  if (options.workload == "session") {
    run_session(options, tally);
  } else if (options.workload == "forest") {
    run_batch(Family::kForest, options, tally);
  } else if (options.workload == "tree") {
    run_batch(Family::kTree, options, tally);
  } else if (options.workload == "crossing") {
    run_batch(Family::kCrossing, options, tally);
  } else {
    NAT_CHECK_MSG(false, "unknown workload '" << options.workload << "'");
  }

  RunResult result;
  result.attempted = tally.attempted;
  result.failed = std::min(tally.failed, tally.attempted);
  result.correct = tally.failed == 0 && tally.attempted > 0;
  result.problems = tally.problems;
  result.metrics =
      options.trace ? per_layer_values(tally) : end_to_end_values(tally);
  result.stamp = stamp_json(options, tally);
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    NAT_CHECK_MSG(out.good(), "cannot write " << options.trace_out);
    out << result.stamp << '\n';
    tally.spans.write_jsonl(out);
  }
  return result;
}

std::string result_line(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

ParsedRecord parse_record(const std::string& record) {
  ParsedRecord r;
  try {
    const Json j = Json::parse(record);
    const auto str = [&](const char* key) {
      const Json* v = j.find(key);
      return v != nullptr ? v->as_string() : std::string();
    };
    const auto num = [&](const char* key, double fallback) {
      const Json* v = j.find(key);
      return v != nullptr && v->is_number() ? v->as_double() : fallback;
    };
    r.status = str("status");
    r.backend = str("backend");
    const Json* slots = j.find("active_slots");
    if (slots != nullptr && slots->is_number()) {
      r.active_slots = slots->as_int();
    }
    r.lp_value = num("lp_value", -1.0);
    r.queue_ms = num("queue_ms", 0.0);
    r.solve_ms = num("solve_ms", 0.0);
    r.wall_ms = num("wall_ms", 0.0);
  } catch (const std::exception&) {
    r.status = "unparseable record";
  }
  return r;
}

CheckReport check_batch(Family family, std::uint64_t seed,
                        const std::vector<BatchRecord>& records) {
  CheckReport out;
  int resolves = 0;
  for (const BatchRecord& b : records) {
    const ParsedRecord r = parse_record(b.record);
    std::string problem = record_problem(r, expected_backend(family));
    if (problem.empty() && b.index % kResolveEvery == 0 &&
        resolves < kMaxResolves) {
      ++resolves;
      try {
        const at::Instance instance = batch_instance(family, seed, b.index);
        const at::ActiveTimeResult res = at::solve_active_time(instance);
        at::validate_schedule(instance, res.schedule);
        if (res.schedule.active_slots() != r.active_slots ||
            res.active_slots != r.active_slots) {
          problem = "re-solve cost " + std::to_string(res.active_slots) +
                    " != record cost " + std::to_string(r.active_slots);
        }
      } catch (const std::exception& e) {
        problem = std::string("re-solve failed: ") + e.what();
      }
    }
    if (!problem.empty()) {
      ++out.failed;
      out.problems.push_back("line " + std::to_string(b.index) + ": " +
                             problem);
    }
  }
  return out;
}

CheckReport check_sessions(const std::vector<SessionMirror>& mirrors,
                           const std::vector<std::int64_t>& last_costs) {
  NAT_CHECK(mirrors.size() == last_costs.size());
  CheckReport out;
  for (std::size_t k = 0; k < mirrors.size(); ++k) {
    std::string problem;
    try {
      at::SolverSession fresh(mirrors[k].instance());
      const std::int64_t cost = fresh.solve().active_slots;
      if (cost != last_costs[k]) {
        problem = "fresh session cost " + std::to_string(cost) +
                  " != last reported cost " + std::to_string(last_costs[k]);
      }
    } catch (const std::exception& e) {
      problem = std::string("fresh session failed: ") + e.what();
    }
    if (!problem.empty()) {
      ++out.failed;
      out.problems.push_back("session " + mirrors[k].name() + ": " + problem);
    }
  }
  return out;
}

}  // namespace

int self_test(std::ostream& log) {
  int broken = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    log << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++broken;
  };
  constexpr std::uint64_t kSeed = 7;

  // Batch: clean records pass; one corrupted cost is caught.
  std::vector<BatchRecord> records;
  for (std::int64_t index = 0; index < 3; ++index) {
    const std::string line =
        cell_line(batch_instance(Family::kForest, kSeed, index), "t");
    const service::CellResult cell =
        service::solve_cell({"t", line}, static_cast<int>(index), {});
    records.push_back({index, service::cell_to_json(cell), 0.0});
  }
  expect(check_batch(Family::kForest, kSeed, records).failed == 0,
         "clean batch records pass");
  Json corrupted = Json::parse(records[0].record);
  corrupted["active_slots"] = corrupted["active_slots"].as_int() + 1;
  records[0].record = corrupted.dump();
  expect(check_batch(Family::kForest, kSeed, records).failed == 1,
         "a corrupted batch cost is caught");

  // Session: a mirrored delta stream passes; a corrupted mirror is caught.
  SessionClient client;
  std::vector<SessionMirror> mirrors = session_mirrors(kSeed);
  Tally tally;
  std::vector<std::int64_t> costs = open_sessions(client, mirrors, tally);
  nat::util::Rng rng(kSeed);
  for (std::int64_t step = 0; step < 10; ++step) {
    const int k = session_for_step(step);
    SessionMirror& mirror = mirrors[static_cast<std::size_t>(k)];
    const at::Delta delta = mirror.draw_delta(rng);
    double latency = 0;
    const ParsedRecord r = parse_record(
        client.request(delta_line(kTenant, mirror.name(), delta), &latency));
    if (r.status != "solved") {
      tally.fail("delta " + std::to_string(step) + ": " + r.status);
      continue;
    }
    mirror.apply(delta);
    costs[static_cast<std::size_t>(k)] = r.active_slots;
  }
  expect(tally.failed == 0, "session opens and deltas are solved");
  expect(check_sessions(mirrors, costs).failed == 0,
         "session mirrors match fresh sessions");
  // A job in a new, disjoint window needs 4 more active slots, so the
  // corrupted mirror's fresh cost must differ from the reported one.
  at::Instance& first = mirrors[0].mutable_instance();
  const at::Time end = first.horizon().hi;
  first.jobs.push_back(at::Job{end, end + 4, 4});
  expect(check_sessions(mirrors, costs).failed == 1,
         "a corrupted session mirror is caught");
  return broken;
}

}  // namespace perfbench
