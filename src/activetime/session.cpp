#include "activetime/session.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "activetime/solver.hpp"
#include "util/check.hpp"

namespace nat::at {

namespace {

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t group_key(std::int64_t g, const std::vector<Job>& jobs) {
  std::uint64_t h = mix(0x243F6A8885A308D3ull, static_cast<std::uint64_t>(g));
  for (const Job& j : jobs) {
    h = mix(h, static_cast<std::uint64_t>(j.release));
    h = mix(h, static_cast<std::uint64_t>(j.deadline));
    h = mix(h, static_cast<std::uint64_t>(j.processing));
    h = mix(h, static_cast<std::uint64_t>(j.processing_lo));
    h = mix(h, static_cast<std::uint64_t>(j.processing_hi));
  }
  return h;
}

Interval union_window(const std::vector<Job>& jobs) {
  Interval w = jobs.front().window();
  for (const Job& j : jobs) {
    w.lo = std::min(w.lo, j.release);
    w.hi = std::max(w.hi, j.deadline);
  }
  return w;
}

Time overlap_length(const Interval& a, const Interval& b) {
  return std::max<Time>(0, std::min(a.hi, b.hi) - std::max(a.lo, b.lo));
}

}  // namespace

SolverSession::SolverSession(Instance initial, ActiveTimeOptions options)
    : instance_(std::move(initial)), options_(options) {
  instance_.validate();
}

const SessionResult& SolverSession::solve() {
  if (!solved_) resolve();
  return result_;
}

const SessionResult& SolverSession::apply(const Delta& delta) {
  if (!solved_) resolve();  // baseline to roll back to
  Instance backup = instance_;
  try {
    std::visit(
        Overload{
            [&](const AddJob& d) { instance_.jobs.push_back(d.job); },
            [&](const RemoveJob& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "RemoveJob: index out of range");
              instance_.jobs.erase(instance_.jobs.begin() + d.job);
            },
            [&](const ExtendWindow& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "ExtendWindow: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              NAT_CHECK_MSG(
                  d.window.lo <= j.release && d.window.hi >= j.deadline,
                  "ExtendWindow: new window must contain the old one");
              j.release = d.window.lo;
              j.deadline = d.window.hi;
            },
            [&](const ShrinkWindow& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "ShrinkWindow: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              NAT_CHECK_MSG(
                  d.window.lo >= j.release && d.window.hi <= j.deadline,
                  "ShrinkWindow: new window must fit inside the old one");
              j.release = d.window.lo;
              j.deadline = d.window.hi;
            },
            [&](const Retime& d) {
              NAT_CHECK_MSG(d.job >= 0 && d.job < num_jobs(),
                            "Retime: index out of range");
              Job& j = instance_.jobs[static_cast<std::size_t>(d.job)];
              j.processing_lo = d.processing_lo;
              j.processing_hi = d.processing_hi;
            },
        },
        delta);
    instance_.validate();
    resolve();
  } catch (...) {
    instance_ = std::move(backup);
    throw;
  }
  return result_;
}

void SolverSession::resolve() {
  ++stats_.solves;
  const auto groups = window_groups(instance_);

  // Pass 1: match groups against the cache by content.
  struct Planned {
    std::uint64_t key = 0;
    std::vector<Job> jobs;
    Interval window{0, 0};
    const GroupSolve* reuse = nullptr;
  };
  std::vector<Planned> plan(groups.size());
  std::unordered_set<std::uint64_t> matched;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    Planned& p = plan[gi];
    p.jobs.reserve(groups[gi].size());
    for (int m : groups[gi]) {
      p.jobs.push_back(instance_.jobs[static_cast<std::size_t>(m)]);
    }
    p.window = union_window(p.jobs);
    p.key = group_key(instance_.g, p.jobs);
    auto it = cache_.find(p.key);
    if (it != cache_.end() && it->second.jobs == p.jobs) {
      p.reuse = &it->second;
      matched.insert(p.key);
    }
  }
  // Displaced entries become warm hints for the dirty groups.
  std::vector<const GroupSolve*> leftovers;
  for (const auto& [key, entry] : cache_) {
    if (!matched.count(key)) leftovers.push_back(&entry);
  }

  std::unordered_map<std::uint64_t, GroupSolve> next;
  next.reserve(groups.size());
  std::vector<const ActiveTimeResult*> parts;
  parts.reserve(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    ++stats_.groups_total;
    GroupSolve entry;
    if (plan[gi].reuse != nullptr) {
      ++stats_.groups_reused;
      entry = *plan[gi].reuse;
    } else {
      ++stats_.groups_resolved;
      // Best hint: the displaced entry with the largest window overlap
      // (deterministic tie-break on window position). Hints only steer
      // warm starts — the canonicalizing LP lands on the same vertex
      // with any hint or none.
      const GroupSolve* hint = nullptr;
      Time best = 0;
      for (const GroupSolve* cand : leftovers) {
        const Time ov = overlap_length(cand->window, plan[gi].window);
        if (ov > best ||
            (ov == best && hint != nullptr && ov > 0 &&
             (cand->window.lo < hint->window.lo ||
              (cand->window.lo == hint->window.lo &&
               cand->window.hi < hint->window.hi)))) {
          best = ov;
          hint = cand;
        }
      }
      ++stats_.oracle_builds;
      GroupWarmStart warm;
      warm.hint = hint != nullptr ? &hint->warm : nullptr;
      entry.result = solve_window_group(Instance{instance_.g, plan[gi].jobs},
                                        options_, &warm);
      stats_.lp_warm_hits += warm.lp_stats.warm_hit;
      stats_.lp_warm_repairs += warm.lp_stats.warm_repair;
      stats_.lp_cold_fallbacks += warm.lp_stats.cold_fallback;
      entry.jobs = std::move(plan[gi].jobs);
      entry.window = plan[gi].window;
      entry.warm = std::move(warm.exported);
    }
    // Node-based map: the element's address survives later inserts.
    parts.push_back(&next.emplace(plan[gi].key, std::move(entry))
                         .first->second.result);
  }
  result_ = assemble_groups(instance_, groups, parts);
  cache_ = std::move(next);
  solved_ = true;
}

}  // namespace nat::at
