#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "dataset/cuboid.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace rap::core {

using dataset::CuboidGroup;
using dataset::CuboidMask;
using dataset::LeafTable;

std::vector<CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order) {
  CuboidMask allowed = 0;
  for (const auto attr : kept) allowed |= (1u << attr);

  std::vector<CuboidMask> cuboids = dataset::cuboidsAtLayer(allowed, layer);
  if (order == CuboidOrder::kNumeric) return cuboids;

  // Weight = sum over member attributes of 2^(n - rank), so earlier
  // (higher-CP) attributes dominate the ordering.  The weights are
  // computed once per cuboid as integer bit-sums (n <= 32 member
  // attributes keeps every term, and their sum, exact in 64 bits — the
  // same values the former std::pow(2.0, n - rank) comparator produced,
  // evaluated O(C·log C) fewer times).
  const auto n = static_cast<std::int32_t>(kept.size());
  std::vector<std::pair<std::uint64_t, CuboidMask>> keyed;
  keyed.reserve(cuboids.size());
  for (const auto mask : cuboids) {
    std::uint64_t weight = 0;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      if ((mask & (1u << kept[static_cast<std::size_t>(rank)])) != 0) {
        weight += std::uint64_t{1} << (n - rank);
      }
    }
    keyed.emplace_back(weight, mask);
  }
  // (weight desc, mask asc) is a total order, so plain sort is stable
  // enough; the mask tiebreak pins equal-weight cuboids exactly like
  // the former stable_sort did.
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t i = 0; i < keyed.size(); ++i) cuboids[i] = keyed[i].second;
  return cuboids;
}

namespace {

/// One layer's cuboid fan-out (docs/algorithms.md, "Parallel layer
/// search").  The caller and every helper task it submitted share it
/// through a shared_ptr, so a helper the pool starts late — after the
/// layer, or the whole search, has returned and the workspace has been
/// reused or destroyed — still finds live state: a closed fan-out, which
/// it leaves without touching `cuboids` or the workspace.  The caller
/// therefore joins only the helpers that actually started, and a search
/// may fan out on the very pool whose task is running it.
///
/// Cuboids are claimed off one cursor in canonical order.  A helper
/// claims the next one with fetch_add, aggregates it into
/// ws.layer_groups[i] through its own scratch and publishes it on
/// ready[i].  The caller claims cuboid i itself while the cursor still
/// points at it; otherwise it aggregates later unclaimed cuboids, as a
/// helper would, until ready[i] is set, and waits on it only when none
/// are left.  Cuboid i lands in slot i whoever aggregates it, so which
/// buffers a layer grows does not depend on the schedule.
///
/// Helpers only borrow spare capacity: the caller submits them to idle
/// workers only, and a helper leaves after its current cuboid once a
/// task other than this layer's own helpers waits in the pool's queue,
/// so a job queued behind a fan-out waits for at most one cuboid
/// aggregation.
class LayerFanOut {
 public:
  LayerFanOut(const std::vector<CuboidMask>& cuboids, SearchWorkspace& ws,
              const util::ThreadPool& pool, std::size_t helpers)
      : cuboids_(cuboids),
        ws_(ws),
        pool_(pool),
        helpers_(helpers),
        ready_(cuboids.size()) {}

  /// Body of one of the `helpers` tasks submitted for this layer.
  void help() {
    entered_.fetch_add(1, std::memory_order_relaxed);
    std::size_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      slot = ++started_;  // scratch slots in order of registration
    }
    dataset::GroupByScratch& scratch = ws_.scratch[slot];
    while (aggregateNext(scratch) && !othersQueued()) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++finished_;
    if (closed_ && finished_ == started_) joined_.notify_one();
  }

  /// Caller: true iff no helper has claimed cuboid `i`, which the caller
  /// then owns.  The caller visits cuboids in order, so the cursor is
  /// never below `i` here.
  bool claim(std::size_t i) {
    std::size_t expected = i;
    return cursor_.compare_exchange_strong(expected, i + 1,
                                           std::memory_order_relaxed);
  }

  /// Caller: returns once cuboid `i`, which it did not claim in order,
  /// is ready in ws.layer_groups[i].  Until then it aggregates the
  /// next unclaimed cuboids itself, like a helper, through `scratch`.
  void awaitReady(std::size_t i, dataset::GroupByScratch& scratch) {
    while (!ready_[i].load(std::memory_order_acquire)) {
      if (!aggregateNext(scratch)) {
        ready_[i].wait(false, std::memory_order_acquire);
        return;
      }
    }
  }

  /// Caller: closes the cursor, so helpers stop after their current
  /// cuboid and helpers not yet started never begin, then waits for the
  /// started ones to finish.  Idempotent.
  void closeAndJoin() {
    cursor_.store(cuboids_.size(), std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    joined_.wait(lock, [this] { return finished_ == started_; });
  }

 private:
  /// True iff the pool's queue holds more tasks than this layer's
  /// helpers not yet started (a helper popped but not yet in help()
  /// still counts as queued here, which only delays stepping aside).
  bool othersQueued() const {
    return pool_.queued() >
           helpers_ - entered_.load(std::memory_order_relaxed);
  }

  /// Claims the next cuboid off the cursor, aggregates it into its slot
  /// and publishes it; false once the cursor is exhausted or closed.
  bool aggregateNext(dataset::GroupByScratch& scratch) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= cuboids_.size()) return false;
    ws_.kernel.groupByInto(cuboids_[i], scratch, ws_.layer_groups[i]);
    ready_[i].store(true, std::memory_order_release);
    ready_[i].notify_one();
    return true;
  }

  const std::vector<CuboidMask>& cuboids_;
  SearchWorkspace& ws_;
  const util::ThreadPool& pool_;
  const std::size_t helpers_;
  std::atomic<std::size_t> entered_{0};
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::atomic<bool>> ready_;
  std::mutex mutex_;
  std::condition_variable joined_;
  std::size_t started_ = 0;
  std::size_t finished_ = 0;
  bool closed_ = false;
};

/// Joins a layer's fan-out on every way out of the layer, exceptions
/// included: only then may the workspace be reused or `cuboids` freed.
class JoinOnExit {
 public:
  explicit JoinOnExit(LayerFanOut* fan_out) : fan_out_(fan_out) {}
  JoinOnExit(const JoinOnExit&) = delete;
  JoinOnExit& operator=(const JoinOnExit&) = delete;
  ~JoinOnExit() {
    if (fan_out_ != nullptr) fan_out_->closeAndJoin();
  }

 private:
  LayerFanOut* fan_out_;
};

/// Criteria 3 probe setup for cuboid `mask`: ws.probe gets the bits of
/// every accepted-cuboid slot whose cuboid is a strict subset of `mask`,
/// trimmed after its last non-zero word (empty = nothing can prune).
void prepareProbe(SearchWorkspace& ws, CuboidMask mask) {
  ws.probe.clear();
  for (std::size_t slot = 0; slot < ws.slot_masks.size(); ++slot) {
    const CuboidMask s = ws.slot_masks[slot];
    if (s == mask || (s & ~mask) != 0) continue;
    const std::size_t word = slot / 64;
    if (ws.probe.size() <= word) ws.probe.resize(word + 1, 0);
    ws.probe[word] |= std::uint64_t{1} << (slot % 64);
  }
}

/// True iff `row` lies under a candidate accepted in a cuboid the probe
/// selected — for a group's representative row, exactly "some accepted
/// candidate is a proper ancestor of the group".
bool probeHits(const SearchWorkspace& ws, dataset::RowId row) {
  for (std::size_t word = 0; word < ws.probe.size(); ++word) {
    if ((ws.slot_bits[word][row] & ws.probe[word]) != 0) return true;
  }
  return false;
}

/// Gives cuboid `mask`, which just accepted the keys in ws.accepted_keys,
/// the next slot and sets its bit on every row whose key (ws.row_keys)
/// is one of them.
void markAccepted(SearchWorkspace& ws, CuboidMask mask) {
  const std::size_t slot = ws.slot_masks.size();
  ws.slot_masks.push_back(mask);
  const std::size_t word = slot / 64;
  if (ws.slot_bits.size() <= word) ws.slot_bits.emplace_back();
  std::vector<std::uint64_t>& bits = ws.slot_bits[word];
  const std::size_t n = ws.row_keys.size();
  if (slot % 64 == 0) bits.assign(n, 0);  // first slot of a fresh word
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  for (std::size_t r = 0; r < n; ++r) {
    if (std::binary_search(ws.accepted_keys.begin(), ws.accepted_keys.end(),
                           ws.row_keys[r])) {
      bits[r] |= bit;
    }
  }
}

}  // namespace

/// The Algorithm 2 main loop.  Every layer runs one loop over its cuboids in
/// canonical order; each cuboid is aggregated right before its merge
/// step, by the caller or — when a pool is given — by whichever helper
/// claimed it first (LayerFanOut).  Everything the result depends on —
/// acceptance, pruning, early stop, counters — happens in the caller's
/// merge, in the exact order of the serial reference, which is what
/// makes every schedule bit-identical; with no pool the loop is the
/// serial reference.
///
/// The merge works on row keys, never on combinations (docs/algorithms.md,
/// "Key-space merge"): Criteria 3 is a probe of the group's
/// representative row against a per-row bitset of accepted-cuboid slots,
/// and the early-stop coverage test compares row keys with the accepted
/// key.  Combinations are built only for accepted candidates.  All
/// memory lives in `ws`, so a retained workspace makes the steady state
/// allocation-free apart from the returned candidates.
std::vector<ScoredPattern> acGuidedSearch(
    const LeafTable& table, const std::vector<dataset::AttrId>& kept_attributes,
    const SearchConfig& config, SearchWorkspace& ws, util::ThreadPool* pool,
    SearchStats& stats) {
  // Deadline bookkeeping: one timer read per cuboid, and only when a
  // deadline is configured — the default (0 = none) costs one branch.
  const util::WallTimer search_timer;
  const bool has_deadline = config.deadline_seconds > 0.0;
  const auto deadlineExpired = [&]() {
    return has_deadline &&
           search_timer.elapsedSeconds() > config.deadline_seconds;
  };

  ws.kernel.rebind(table);
  if (ws.scratch.empty()) ws.scratch.resize(1);
  if (ws.layer_groups.empty()) ws.layer_groups.resize(1);
  ws.slot_masks.clear();
  std::vector<ScoredPattern> candidates;

  // Concurrency enlisted: 1 until some layer submits pool helpers (a
  // layer with c cuboids never enlists more than c - 1, nor more than
  // the pool's idle workers, so small tenants and busy pools report
  // honestly).
  stats.search_threads = 1;

  // Early-stop bookkeeping: the anomalous rows not yet covered by any
  // accepted candidate.  Each acceptance filters the remainder, so the
  // coverage test costs O(remaining) instead of O(all anomalous) per
  // accepted candidate.
  ws.uncovered.clear();
  if (config.early_stop) {
    for (dataset::RowId id = 0; id < table.size(); ++id) {
      if (table.row(id).anomalous) ws.uncovered.push_back(id);
    }
  }

  // Accumulates the current layer's effort; flushed into stats.layers
  // when the layer finishes (or the early stop fires inside it).
  LayerSearchStats layer_stats;
  const auto flushLayer = [&stats, &layer_stats]() {
    stats.cuboids_visited += layer_stats.cuboids_visited;
    stats.combinations_evaluated += layer_stats.combinations_evaluated;
    stats.combinations_pruned += layer_stats.combinations_pruned;
    stats.candidates_found += layer_stats.candidates_found;
    stats.layers.push_back(layer_stats);
  };

  const auto max_layer = static_cast<std::int32_t>(kept_attributes.size());
  for (std::int32_t layer = 1; layer <= max_layer; ++layer) {
    // Degraded exits, checked between layers so every accepted candidate
    // below the cut is returned intact: the configured layer cap, the
    // cooperative deadline, and (chaos builds) an injected abort.
    if (config.max_layers > 0 && layer > config.max_layers) {
      stats.degraded_reason = "layer-cap";
      return candidates;
    }
    if (deadlineExpired()) {
      stats.degraded_reason = "deadline";
      return candidates;
    }
    switch (RAP_FAULT_HIT("search.layer")) {
      case fault::Action::kError:
      case fault::Action::kDrop:
        stats.degraded_reason = "fault";
        return candidates;
      default:
        break;
    }

    RAP_TRACE_SPAN("search/layer", {{"layer", layer}});
    const util::WallTimer layer_timer;
    layer_stats = LayerSearchStats{};
    layer_stats.layer = layer;

    const std::vector<CuboidMask> cuboids =
        orderedCuboids(kept_attributes, layer, config.order);

    // Fan-out: helpers aggregate ahead of the caller's merge, one per
    // worker idle right now (a busy pool leaves the layer serial).
    // Waiting for them, like aggregating, counts as the caller's time
    // outside the merge, so aggregate + merge is the layer's wall time.
    const std::size_t helpers =
        pool != nullptr && cuboids.size() > 1
            ? std::min(pool->idleWorkers(), cuboids.size() - 1)
            : 0;
    std::shared_ptr<LayerFanOut> fan_out;
    if (helpers > 0) {
      if (ws.scratch.size() < helpers + 1) ws.scratch.resize(helpers + 1);
      if (ws.layer_groups.size() < cuboids.size()) {
        ws.layer_groups.resize(cuboids.size());
      }
      fan_out = std::make_shared<LayerFanOut>(cuboids, ws, *pool, helpers);
      stats.search_threads = std::max(stats.search_threads,
                                      static_cast<std::int32_t>(helpers) + 1);
    }
    // Armed before the first submit: a submit that throws still joins
    // the helpers already queued.
    const JoinOnExit join{fan_out.get()};
    for (std::size_t h = 0; h < helpers; ++h) {
      pool->submit([fan_out] { fan_out->help(); });
    }
    const auto endLayer = [&]() {
      if (fan_out != nullptr) {
        const util::WallTimer join_timer;
        fan_out->closeAndJoin();
        layer_stats.seconds_aggregate += join_timer.elapsedSeconds();
      }
      layer_stats.seconds = layer_timer.elapsedSeconds();
      flushLayer();
    };

    for (std::size_t i = 0; i < cuboids.size(); ++i) {
      // Mid-layer deadline: stop before the next aggregation, keep the
      // effort already spent in the stats (the layer entry is partial,
      // like an early-stopped one).
      if (deadlineExpired()) {
        stats.degraded_reason = "deadline";
        endLayer();
        return candidates;
      }
      layer_stats.cuboids_visited += 1;
      const CuboidMask mask = cuboids[i];
      const util::WallTimer aggregate_timer;
      const std::size_t slot = fan_out == nullptr ? 0 : i;
      if (fan_out == nullptr || fan_out->claim(i)) {
        ws.kernel.groupByInto(mask, ws.scratch[0], ws.layer_groups[slot]);
      } else {
        fan_out->awaitReady(i, ws.scratch[0]);
      }
      layer_stats.seconds_aggregate += aggregate_timer.elapsedSeconds();
      // Slots are only marked once a cuboid's groups are all merged; no
      // same-layer cuboid is a strict subset of another, so the probe
      // sees every candidate that can be an ancestor here.
      prepareProbe(ws, mask);
      ws.accepted_keys.clear();
      for (const CuboidGroup& group : ws.layer_groups[slot]) {
        // Criteria 3: skip the descendants of accepted candidates.
        if (probeHits(ws, group.row)) {
          layer_stats.combinations_pruned += 1;
          continue;
        }

        layer_stats.combinations_evaluated += 1;
        const double confidence = group.confidence();
        if (confidence > config.t_conf) {  // Criteria 2
          if (ws.accepted_keys.empty()) {
            ws.kernel.projectionKeys(mask, ws.row_keys);
          }
          ws.accepted_keys.push_back(group.key);
          ScoredPattern pattern;
          pattern.ac = ws.kernel.combination(mask, group.row);
          pattern.confidence = confidence;
          pattern.layer = layer;
          candidates.push_back(std::move(pattern));
          layer_stats.candidates_found += 1;

          // Early stop (Algorithm 2 lines 9-11): the candidate set
          // already explains every anomalous leaf.
          if (config.early_stop) {
            std::erase_if(ws.uncovered, [&ws, &group](dataset::RowId id) {
              return ws.row_keys[id] == group.key;
            });
            if (ws.uncovered.empty()) {
              stats.early_stopped = true;
              endLayer();
              return candidates;
            }
          }
        }
      }
      if (!ws.accepted_keys.empty()) markAccepted(ws, mask);
    }
    endLayer();
  }
  return candidates;
}

std::int32_t resolveThreads(std::int32_t threads) noexcept {
  if (threads > 0) return threads;
  return std::max(1, static_cast<std::int32_t>(
                         std::thread::hardware_concurrency()));
}

std::unique_ptr<SearchWorkspace> WorkspacePool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto ws = std::move(free_.back());
      free_.pop_back();
      return ws;
    }
  }
  return std::make_unique<SearchWorkspace>();
}

void WorkspacePool::release(std::unique_ptr<SearchWorkspace> ws) {
  if (ws == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() < kMaxRetained) free_.push_back(std::move(ws));
}

std::size_t WorkspacePool::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

}  // namespace rap::core
