// Stage 2 of RAPMiner: Anomaly-Confidence guided layer-by-layer top-down
// search (paper §IV-D, Algorithm 2).
//
// BFS over the cuboid lattice of the surviving attributes, coarsest layer
// first.  Within each layer, cuboids with higher total classification
// power are visited first (Algorithm 1 returns attributes sorted by CP,
// and the search honors that order), which makes the early stop bite
// sooner.  A combination with Confidence > t_conf (Criteria 2) whose
// ancestors were all normal becomes a candidate RAP; its entire
// descendant sub-DAG is pruned (Criteria 3).  The search early-stops as
// soon as the candidates cover every anomalous leaf.
//
// Support counts come from dataset::GroupByKernel: per-attribute element
// code columns are transposed once per search (reusing the capacity of a
// retained SearchWorkspace across searches), and each cuboid is then
// aggregated into (total, anomalous) counts in a single fused pass —
// keys computed in registers, touched cells only — instead of per-row
// AttributeCombination probing.  Groups stay integer
// keys plus counts through the merge: Criteria 3 probes a group's
// representative row against per-row bitsets of accepted cuboids, the
// early stop compares row keys, and AttributeCombinations are built
// only for accepted candidates (docs/algorithms.md, "Key-space merge").
//
// One entry point, acGuidedSearch, walks each layer's cuboids in the
// canonical visit order and merges (Criteria 2/3 acceptance, pruning,
// the early stop) on the calling thread.  Given a util::ThreadPool,
// helper tasks on its idle workers aggregate the layer's later cuboids
// while the caller
// merges the earlier ones; when a helper claimed the cuboid the caller
// needs next, the caller aggregates later ones itself until it is
// ready.  Acceptance decisions only ever
// depend on candidates from strictly lower layers (an accepted
// candidate cannot be an ancestor of a same-layer combination), so
// aggregating a layer's cuboids out of order is safe, and the result is
// bit-identical to the serial schedule (no pool).  The caller joins only
// the helpers that started, so the pool may be the one running the
// search itself.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/types.h"
#include "dataset/groupby_kernel.h"
#include "dataset/leaf_table.h"
#include "util/thread_pool.h"

namespace rap::core {

/// Visit order of cuboids within one layer (ablation knob; the paper's
/// Algorithm 2 uses the CP-sorted attribute order of Algorithm 1).
enum class CuboidOrder {
  kCpWeighted,  ///< cuboids of higher-CP attributes first (the paper)
  kNumeric,     ///< plain ascending mask order (ablation baseline)
};

struct SearchConfig {
  double t_conf = 0.8;      ///< Criteria 2 confidence threshold
  bool early_stop = true;   ///< Algorithm 2 lines 9-11
  CuboidOrder order = CuboidOrder::kCpWeighted;
  /// Cooperative wall-clock budget for Algorithm 2 in seconds (0 = no
  /// deadline).  Checked before every cuboid aggregation; on expiry the
  /// search returns the candidates accepted so far with
  /// stats.degraded_reason = "deadline" instead of finishing the
  /// lattice.  Granularity is one cuboid: a single aggregation is never
  /// interrupted mid-sweep.
  double deadline_seconds = 0.0;
  /// Hard cap on the cuboid layers visited (0 = all).  A search that
  /// still has layers left when the cap is reached returns degraded
  /// with stats.degraded_reason = "layer-cap".
  std::int32_t max_layers = 0;
};

/// Concurrency of the within-layer cuboid fan-out.
struct ParallelConfig {
  /// Total worker count including the calling thread: 1 runs the serial
  /// reference path, 0 resolves to the hardware concurrency, N > 1 adds
  /// N - 1 pool workers next to the caller.
  std::int32_t threads = 1;
};

/// Resolves a ParallelConfig::threads value to an actual concurrency
/// level >= 1 (0 becomes the hardware concurrency).
std::int32_t resolveThreads(std::int32_t threads) noexcept;

/// Visit order of cuboids within one layer: descending rank-weight of
/// the member attributes, where the highest-CP attribute (first in
/// `kept`) weighs most; ties break on the mask for determinism.
/// Weights are integer bit-sums (2^(n - rank) per member), computed
/// once per cuboid — exposed so tests can pin the order against the
/// O(C·log C·n) floating-point reference it replaced.
std::vector<dataset::CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order);

/// Reusable memory plane for one Algorithm-2 search: the transposed
/// group-by kernel, one GroupByScratch per fan-out worker (slot 0 is
/// the calling thread), the per-cuboid group buffers the fan-out fills
/// and the merge's row-level state.  Every buffer grows to its
/// workload's high-water mark and is then reused, so repeated searches
/// over same-shaped tables perform no steady-state heap allocation
/// outside the returned candidates (and, with a pool, the per-layer
/// fan-out state and its task closures).  A workspace serves one search
/// at a time; the members are implementation state — treat them as
/// opaque outside src/core and tests.
struct SearchWorkspace {
  SearchWorkspace() = default;
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;

  dataset::GroupByKernel kernel;
  /// Per-worker scratches; sized to the widest fan-out seen so far.
  std::vector<dataset::GroupByScratch> scratch;
  /// Slot i holds cuboid i's groups for the layer being merged (the
  /// serial schedule only ever uses slot 0).
  std::vector<std::vector<dataset::CuboidGroup>> layer_groups;

  // Merge state (docs/algorithms.md, "Key-space merge").
  /// [row] projection keys onto the cuboid being merged, filled on the
  /// cuboid's first acceptance.
  std::vector<std::uint64_t> row_keys;
  /// Keys accepted so far in the cuboid being merged (ascending).
  std::vector<std::uint64_t> accepted_keys;
  /// [slot] cuboid mask of each cuboid that accepted a candidate.
  std::vector<dataset::CuboidMask> slot_masks;
  /// [word][row] bit (slot % 64) of word slot / 64 is set iff the row
  /// lies under a candidate accepted in that slot's cuboid.
  std::vector<std::vector<std::uint64_t>> slot_bits;
  /// [word] slots whose cuboid is a strict subset of the current one.
  std::vector<std::uint64_t> probe;
  /// Anomalous rows no accepted candidate covers yet (early stop).
  std::vector<dataset::RowId> uncovered;
};

/// Thread-safe checkout/return pool of SearchWorkspaces.  RapMiner owns
/// one across localize() calls (and svc::JobManager shares one across
/// per-request miners), so the steady-state serving path reuses the
/// kernel transpose and scratch capacity instead of reallocating them
/// per localization.  Concurrent localizations each check out their own
/// workspace; returned workspaces are retained up to a small cap.
class WorkspacePool {
 public:
  /// RAII checkout: holds a workspace for one search and returns it to
  /// the pool on destruction (workspaces abandoned by an exception are
  /// simply dropped — the pool re-creates on the next acquire).
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<SearchWorkspace> ws)
        : pool_(&pool), ws_(std::move(ws)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (ws_ != nullptr) pool_->release(std::move(ws_));
    }
    SearchWorkspace& get() noexcept { return *ws_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<SearchWorkspace> ws_;
  };

  Lease lease() { return Lease(*this, acquire()); }

  std::unique_ptr<SearchWorkspace> acquire();
  void release(std::unique_ptr<SearchWorkspace> ws);

  /// Workspaces currently retained (idle), for tests.
  std::size_t retained() const;

 private:
  /// Retention cap: bounds idle memory at (peak concurrency seen) up to
  /// this many workspaces; anything beyond is freed on release.
  static constexpr std::size_t kMaxRetained = 16;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SearchWorkspace>> free_;
};

/// Runs Algorithm 2 over the cuboids formed by `kept_attributes` (the
/// output of Algorithm 1; its order determines cuboid visit order).
/// Returns all candidate RAPs with confidence and layer filled in; the
/// caller ranks them (Eq. 3) and truncates to k.  `stats` accumulates
/// search-effort counters.
///
/// Aggregation runs through `workspace`: the kernel transpose reuses its
/// column capacity and every per-cuboid buffer is recycled, so repeated
/// searches over same-shaped tables allocate nothing in the hot path.
/// With `pool` == nullptr the search is the serial reference schedule;
/// otherwise each layer submits one helper task per idle worker of
/// `pool` (up to one per cuboid after the first), which aggregate
/// cuboids (each with its own scratch from the workspace) while the
/// calling thread merges, and the results are bit-identical to the
/// serial schedule.  A helper leaves after its current cuboid once
/// other tasks wait in the pool's queue, so a fan-out never holds a
/// worker that queued work needs.  Only helpers that started are waited
/// for: any pool works, including the one whose task runs this search,
/// and a helper the pool starts after the search returned exits without
/// touching the workspace.  An early stop, a deadline or the end of a
/// layer stops the helpers after their current cuboid; work they did
/// past the stop point never reaches the stats.
std::vector<ScoredPattern> acGuidedSearch(
    const dataset::LeafTable& table,
    const std::vector<dataset::AttrId>& kept_attributes,
    const SearchConfig& config, SearchWorkspace& workspace,
    util::ThreadPool* pool, SearchStats& stats);

}  // namespace rap::core
