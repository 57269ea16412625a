#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <type_traits>
#include <variant>

#include "util/check.hpp"

namespace perfbench {

using nat::at::Interval;
using nat::at::Time;
using nat::util::Rng;

namespace {

// Distinct stream tags so two families never share a random stream.
std::uint64_t family_tag(Family family) {
  switch (family) {
    case Family::kForest: return 0xF0E57ULL;
    case Family::kTree: return 0x7EEULL;
    case Family::kCrossing: return 0xC7055ULL;
  }
  return 0;
}

constexpr std::uint64_t kSessionTag = 0x5E55ULL;
constexpr std::uint64_t kWarmupSeed = 0xA5A5ULL;

// The spanning job is never edited by session deltas, so a drawn p
// would stay fixed for a whole run and set the tree session's cost.
constexpr std::int64_t kSpanningP = 4;

void add_jobs(Rng& rng, Instance& out, Interval window, int count,
              std::int64_t max_p) {
  for (int k = 0; k < count; ++k) {
    out.jobs.push_back(Job{window.lo, window.hi, rng.uniform_int(1, max_p)});
  }
}

// Two windows cross when they overlap without one containing the other.
bool has_crossing_pair(const Instance& instance) {
  const auto& jobs = instance.jobs;
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      const Interval x = jobs[a].window();
      const Interval y = jobs[b].window();
      if (!x.disjoint(y) && !x.inside(y) && !y.inside(x)) return true;
    }
  }
  return false;
}

}  // namespace

const char* family_name(Family family) {
  switch (family) {
    case Family::kForest: return "forest";
    case Family::kTree: return "tree";
    case Family::kCrossing: return "crossing";
  }
  return "?";
}

Instance forest_instance(Rng& rng, int roots, bool spanning_job) {
  NAT_CHECK(roots >= 1);
  Instance out;
  out.g = kG;
  if (spanning_job) {
    out.jobs.push_back(Job{0, kRootLen * roots, kSpanningP});
  }
  for (int r = 0; r < roots; ++r) {
    const Time base = kRootLen * r;
    // Root-level jobs: at most 2 x 8 = 16 volume; children: at most
    // 4 x 4 = 16 each (kWindowVolumeCap).
    add_jobs(rng, out, {base, base + kRootLen},
             static_cast<int>(rng.uniform_int(1, 2)), 8);
    add_jobs(rng, out, {base, base + kChildLen},
             static_cast<int>(rng.uniform_int(3, 4)), 4);
    add_jobs(rng, out, {base + kChildLen, base + kRootLen},
             static_cast<int>(rng.uniform_int(3, 4)), 4);
  }
  return out;
}

Instance crossing_instance(Rng& rng, int blocks, std::int64_t stretch) {
  NAT_CHECK(blocks >= 1 && stretch >= 1);
  constexpr Time kBlock = 8;
  constexpr int kWindowsPerBlock = 6;
  for (;;) {
    Instance out;
    out.g = kG;
    // A witness schedule is built alongside the jobs: each job takes p
    // slots of its window whose load is still below g, so the instance
    // is feasible by construction.
    std::vector<std::int64_t> load(
        static_cast<std::size_t>(kBlock * blocks + 10), 0);
    for (int b = 0; b < blocks; ++b) {
      for (int k = 0; k < kWindowsPerBlock; ++k) {
        const Time lo = kBlock * b + rng.uniform_int(0, kBlock - 1);
        const Time hi = lo + rng.uniform_int(3, 10);
        std::int64_t p = rng.uniform_int(1, 3);
        std::vector<Time> free;
        for (Time t = lo; t < hi; ++t) {
          if (load[static_cast<std::size_t>(t)] < kG) free.push_back(t);
        }
        p = std::min<std::int64_t>(p, static_cast<std::int64_t>(free.size()));
        if (p == 0) continue;
        for (std::int64_t i = 0; i < p; ++i) {
          ++load[static_cast<std::size_t>(free[static_cast<std::size_t>(i)])];
        }
        out.jobs.push_back(Job{lo * stretch, hi * stretch, p});
      }
    }
    if (has_crossing_pair(out)) return out;
  }
}

std::vector<CellShape> shapes(Family family) {
  std::vector<CellShape> out;
  switch (family) {
    case Family::kForest:
      for (int g = 12; g <= 48; ++g) out.push_back({g, 1});
      break;
    case Family::kTree:
      for (int g = 12; g <= 32; ++g) out.push_back({g, 1});
      break;
    case Family::kCrossing:
      for (int b = 10; b <= 15; ++b) {
        out.push_back({b, 1});
        out.push_back({b, 2});
      }
      break;
  }
  return out;
}

CellShape cell_shape(Family family, std::uint64_t seed, std::int64_t index) {
  NAT_CHECK(index >= 0);
  std::vector<CellShape> all = shapes(family);
  const auto n = static_cast<std::int64_t>(all.size());
  Rng rng = Rng(seed ^ family_tag(family)).fork(
      static_cast<std::uint64_t>(index / n) + (1ULL << 40));
  // Fisher-Yates with the repository RNG (std::shuffle's draw sequence
  // is implementation-defined, which would tie inputs to a libstdc++).
  for (std::int64_t i = n - 1; i > 0; --i) {
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  return all[static_cast<std::size_t>(index % n)];
}

Instance batch_instance(Family family, std::uint64_t seed,
                        std::int64_t index) {
  const CellShape shape = cell_shape(family, seed, index);
  Rng rng = Rng(seed ^ family_tag(family)).fork(
      static_cast<std::uint64_t>(index));
  switch (family) {
    case Family::kForest: return forest_instance(rng, shape.size, false);
    case Family::kTree: return forest_instance(rng, shape.size, true);
    case Family::kCrossing:
      return crossing_instance(rng, shape.size, shape.stretch);
  }
  return {};
}

std::vector<Instance> warmup_instances(Family family) {
  const std::vector<CellShape> all = shapes(family);
  std::vector<Instance> out;
  for (std::size_t q = 0; q < 4; ++q) {
    const CellShape shape = all[(2 * q + 1) * all.size() / 8];
    Rng rng = Rng(kWarmupSeed ^ family_tag(family)).fork(q);
    out.push_back(family == Family::kCrossing
                      ? crossing_instance(rng, shape.size, shape.stretch)
                      : forest_instance(rng, shape.size,
                                        family == Family::kTree));
  }
  return out;
}

namespace {

void append_jobs(std::string& out, const Instance& instance) {
  out += "\"g\":";
  out += std::to_string(instance.g);
  out += ",\"jobs\":[";
  for (std::size_t j = 0; j < instance.jobs.size(); ++j) {
    const Job& job = instance.jobs[j];
    if (j > 0) out += ',';
    out += '[';
    out += std::to_string(job.release);
    out += ',';
    out += std::to_string(job.deadline);
    out += ',';
    out += std::to_string(job.processing);
    out += ']';
  }
  out += ']';
}

}  // namespace

std::string cell_line(const Instance& instance, const std::string& id) {
  std::string out = "{\"id\":\"" + id + "\",";
  append_jobs(out, instance);
  out += '}';
  return out;
}

// ---- session workload -------------------------------------------------

SessionMirror::SessionMirror(std::string name, Instance initial, bool tree,
                             int roots)
    : name_(std::move(name)),
      instance_(std::move(initial)),
      tree_(tree),
      roots_(roots),
      initial_jobs_(instance_.num_jobs()) {}

std::string SessionMirror::open_line(const std::string& tenant) const {
  std::string out = "{\"op\":\"open\",\"tenant\":\"" + tenant +
                    "\",\"session\":\"" + name_ + "\",";
  append_jobs(out, instance_);
  out += '}';
  return out;
}

int SessionMirror::window_slot(const Job& job) const {
  const Interval w = job.window();
  if (w.length() == kRootLen * roots_ && tree_ && roots_ > 1) return -1;
  const int root = static_cast<int>(w.lo / kRootLen);
  if (w.length() == kRootLen) return 3 * root;
  return 3 * root + 1 + static_cast<int>((w.lo % kRootLen) / kChildLen);
}

Interval SessionMirror::slot_window(int w) const {
  const Time base = kRootLen * (w / 3);
  switch (w % 3) {
    case 0: return {base, base + kRootLen};
    case 1: return {base, base + kChildLen};
    default: return {base + kChildLen, base + kRootLen};
  }
}

std::vector<std::int64_t> SessionMirror::slot_volumes() const {
  std::vector<std::int64_t> vol(static_cast<std::size_t>(3 * roots_), 0);
  for (const Job& job : instance_.jobs) {
    const int w = window_slot(job);
    if (w >= 0) vol[static_cast<std::size_t>(w)] += job.processing;
  }
  return vol;
}

nat::at::Delta SessionMirror::draw_delta(Rng& rng) const {
  const std::vector<std::int64_t> vol = slot_volumes();
  const int n = instance_.num_jobs();
  std::vector<int> movable;
  for (int j = 0; j < n; ++j) {
    if (window_slot(instance_.jobs[static_cast<std::size_t>(j)]) >= 0) {
      movable.push_back(j);
    }
  }
  const auto pick_movable = [&] {
    return movable[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(movable.size()) - 1))];
  };
  const auto try_add = [&](nat::at::Delta& out) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int w = static_cast<int>(rng.uniform_int(0, 3 * roots_ - 1));
      const std::int64_t cap = w % 3 == 0 ? 8 : 4;
      const std::int64_t room = std::min(
          cap, kWindowVolumeCap - vol[static_cast<std::size_t>(w)]);
      if (room < 1) continue;
      const Interval iv = slot_window(w);
      out = nat::at::AddJob{Job{iv.lo, iv.hi, rng.uniform_int(1, room)}};
      return true;
    }
    return false;
  };
  const auto try_move = [&](nat::at::Delta& out, bool extend) {
    for (int attempt = 0; attempt < 16 && !movable.empty(); ++attempt) {
      const int j = pick_movable();
      const Job& job = instance_.jobs[static_cast<std::size_t>(j)];
      const int w = window_slot(job);
      if ((w % 3 == 0) == extend) continue;  // extend needs a child job
      const int target =
          extend ? w - w % 3
                 : w + 1 + static_cast<int>(rng.uniform_int(0, 1));
      if (vol[static_cast<std::size_t>(target)] + job.processing >
          kWindowVolumeCap) {
        continue;
      }
      if (extend) {
        out = nat::at::ExtendWindow{j, slot_window(target)};
      } else {
        out = nat::at::ShrinkWindow{j, slot_window(target)};
      }
      return true;
    }
    return false;
  };

  nat::at::Delta out = nat::at::RemoveJob{-1};
  int kind = static_cast<int>(rng.uniform_int(0, 3));
  // Keep the session near its opening size so a long run measures the
  // same instance scale throughout.
  if (n > initial_jobs_ + 16) kind = 1;
  if (n < initial_jobs_ - 16 || movable.empty()) kind = 0;
  if (kind == 0 && try_add(out)) return out;
  if (kind == 2 && try_move(out, true)) return out;
  if (kind == 3 && try_move(out, false)) return out;
  if (!movable.empty()) return nat::at::RemoveJob{pick_movable()};
  NAT_CHECK_MSG(try_add(out), "session mirror: no valid delta");
  return out;
}

void SessionMirror::apply(const nat::at::Delta& delta) {
  auto& jobs = instance_.jobs;
  std::visit(
      [&](const auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, nat::at::AddJob>) {
          jobs.push_back(d.job);
        } else if constexpr (std::is_same_v<T, nat::at::RemoveJob>) {
          jobs.erase(jobs.begin() + d.job);
        } else if constexpr (std::is_same_v<T, nat::at::ExtendWindow> ||
                             std::is_same_v<T, nat::at::ShrinkWindow>) {
          jobs[static_cast<std::size_t>(d.job)].release = d.window.lo;
          jobs[static_cast<std::size_t>(d.job)].deadline = d.window.hi;
        } else {
          NAT_CHECK_MSG(false, "session mirror: unexpected delta kind");
        }
      },
      delta);
}

std::string delta_line(const std::string& tenant, const std::string& session,
                       const nat::at::Delta& delta) {
  std::string out = "{\"op\":\"delta\",\"tenant\":\"" + tenant +
                    "\",\"session\":\"" + session + "\",";
  std::visit(
      [&](const auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, nat::at::AddJob>) {
          out += "\"kind\":\"add\",\"job\":[" + std::to_string(d.job.release) +
                 "," + std::to_string(d.job.deadline) + "," +
                 std::to_string(d.job.processing) + "]";
        } else if constexpr (std::is_same_v<T, nat::at::RemoveJob>) {
          out += "\"kind\":\"remove\",\"index\":" + std::to_string(d.job);
        } else if constexpr (std::is_same_v<T, nat::at::ExtendWindow> ||
                             std::is_same_v<T, nat::at::ShrinkWindow>) {
          out += std::is_same_v<T, nat::at::ExtendWindow>
                     ? "\"kind\":\"extend\""
                     : "\"kind\":\"shrink\"";
          out += ",\"index\":" + std::to_string(d.job) + ",\"window\":[" +
                 std::to_string(d.window.lo) + "," +
                 std::to_string(d.window.hi) + "]";
        } else {
          NAT_CHECK_MSG(false, "delta_line: unexpected delta kind");
        }
      },
      delta);
  out += '}';
  return out;
}

std::vector<SessionMirror> session_mirrors(std::uint64_t seed) {
  Rng base(seed ^ kSessionTag);
  std::vector<SessionMirror> out;
  for (int k = 0; k < kForestSessions; ++k) {
    Rng rng = base.fork(static_cast<std::uint64_t>(k));
    out.emplace_back("f" + std::to_string(k), forest_instance(rng, 48, false),
                     false, 48);
  }
  for (int k = 0; k < kTreeSessions; ++k) {
    Rng rng = base.fork(static_cast<std::uint64_t>(kForestSessions + k));
    out.emplace_back("t" + std::to_string(k), forest_instance(rng, 24, true),
                     true, 24);
  }
  return out;
}

int session_for_step(std::int64_t step) {
  static_assert(kForestSessions == 4, "four in five deltas go to forests");
  if (step % 5 == 4) {
    return kForestSessions + static_cast<int>((step / 5) % kTreeSessions);
  }
  return static_cast<int>(step % 5);
}

}  // namespace perfbench
