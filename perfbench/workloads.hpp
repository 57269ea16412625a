// Seeded input generators for the repository benchmark.
//
// Every workload is a pure function of its seed: the benchmark builds
// instances here, serializes them to the JSONL lines the program
// accepts, and feeds the program nothing else. The families and the
// reason each exists are documented in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "activetime/instance.hpp"
#include "activetime/session.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nat::at::Instance;
using nat::at::Job;

inline constexpr std::int64_t kG = 4;         // parallelism of every family
inline constexpr std::int64_t kRootLen = 16;  // forest root window length
inline constexpr std::int64_t kChildLen = 8;  // forest child window length
// Per-window volume cap. With both children and the root level at most
// this full, every slot carries at most 3 < g jobs under McNaughton
// wrap-around, so generated instances and every session edit stay
// feasible by construction.
inline constexpr std::int64_t kWindowVolumeCap = 16;

enum class Family { kForest, kTree, kCrossing };

const char* family_name(Family family);

/// `roots` independent 16-slot root windows [16r, 16r+16), each with
/// two 8-slot children, about 8 jobs per root. With `spanning_job` one
/// extra job covers the whole horizon (index 0), joining every root
/// into a single window group.
Instance forest_instance(nat::util::Rng& rng, int roots, bool spanning_job);

/// `blocks` 8-slot blocks, each holding 6 random windows of length
/// 3..10 with p in [1,3]; every time is then multiplied by `stretch`.
/// Regenerates until the instance is non-laminar.
Instance crossing_instance(nat::util::Rng& rng, int blocks,
                           std::int64_t stretch);

/// Size parameters of one batch cell: roots (forest/tree) or blocks
/// (crossing), and the crossing stretch (1 elsewhere).
struct CellShape {
  int size = 0;
  std::int64_t stretch = 1;
};

/// The shape of the `index`-th cell of a batch stream. Shapes are
/// stratified: every consecutive block of shapes() cells holds each
/// shape once, in a seeded order, so the size mix is the same for every
/// seed and only the job placement varies.
CellShape cell_shape(Family family, std::uint64_t seed, std::int64_t index);

/// Every shape of the family's stratification block.
std::vector<CellShape> shapes(Family family);

/// The `index`-th instance of the batch stream for `seed`.
Instance batch_instance(Family family, std::uint64_t seed,
                        std::int64_t index);

/// The warm-up set solved before timing starts: one instance per size
/// quartile of the family. It is the same for every seed, so set-up
/// time varies only with the program and the host.
std::vector<Instance> warmup_instances(Family family);

/// {"id":..., "g":..., "jobs":[[r,d,p],...]} — the batch cell payload.
std::string cell_line(const Instance& instance, const std::string& id);

/// ---- session workload -----------------------------------------------

/// One open session of the session workload plus the benchmark's own
/// mirror of its job list. The mirror is edited only when the program
/// accepts a delta, so at the end it must equal the program's state.
class SessionMirror {
 public:
  SessionMirror(std::string name, Instance initial, bool tree, int roots);

  const std::string& name() const { return name_; }
  const Instance& instance() const { return instance_; }
  Instance& mutable_instance() { return instance_; }

  /// {"op":"open", ...} line for `tenant`.
  std::string open_line(const std::string& tenant) const;

  /// Draws one valid delta (add, remove, extend or shrink) that keeps
  /// the instance laminar and feasible. Does not apply it.
  nat::at::Delta draw_delta(nat::util::Rng& rng) const;

  /// Applies a delta the program accepted.
  void apply(const nat::at::Delta& delta);

 private:
  // Window slot w: root r is 3r, its children are 3r+1 and 3r+2.
  int window_slot(const Job& job) const;
  nat::at::Interval slot_window(int w) const;
  std::vector<std::int64_t> slot_volumes() const;

  std::string name_;
  Instance instance_;
  bool tree_ = false;
  int roots_ = 0;
  int initial_jobs_ = 0;
};

/// {"op":"delta", ...} line for a typed delta.
std::string delta_line(const std::string& tenant, const std::string& session,
                       const nat::at::Delta& delta);

/// The session workload's sessions: kForestSessions forests with 48
/// roots, then kTreeSessions trees with 24 roots, drawn from `seed`.
/// A tree delta re-solves the whole tree, and its cost follows the
/// tree's state for hundreds of deltas; several trees keep one tree's
/// trajectory from setting a run's tail latency.
inline constexpr int kForestSessions = 4;
inline constexpr int kTreeSessions = 4;
std::vector<SessionMirror> session_mirrors(std::uint64_t seed);

/// Which session the `step`-th delta targets: 4 in 5 go to the forest
/// sessions and 1 in 5 to the tree sessions, round robin within each.
int session_for_step(std::int64_t step);

}  // namespace perfbench
