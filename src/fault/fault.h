// Fault injection for chaos testing (src/fault).
//
// A process-wide Registry of NAMED INJECTION POINTS lets tests arm
// deterministic failure schedules at the seams of the pipeline:
//
//   stream.ingest   — producer-side, before events reach shard queues
//   stream.seal     — sealer thread, before a sealed window is processed
//   stream.localize — localization pool, before RapMiner::localize
//   io.csv_chunk    — streamCsvFile, before each chunk is fed
//   io.atomic_replace — io::atomicReplaceFile, between write and rename
//   search.layer    — Algorithm 2, at the top of each cuboid layer
//   svc.submit      — svc::JobManager::submit, before admission
//   svc.execute     — service worker, before cache lookup and search
//   svc.tenant      — svc::TenantRouter, at tenant resolution (-> 503)
//   svc.journal.append — svc::JobJournal::append, before the WAL write
//   svc.journal.replay — svc::JobJournal replay, per recovered record
//   svc.breaker     — svc::CircuitBreaker::allowAt (kError trips it open)
//
// Compile gating: every site goes through RAP_FAULT_HIT(point).  Unless
// the build defines RAP_FAULT_INJECTION (CMake -DRAP_FAULT_INJECTION=ON)
// the macro is the constant Action::kNone, the surrounding `if` folds
// away, and production binaries carry ZERO overhead — no atomic load,
// no branch, no registry symbol referenced.  With injection compiled in
// but nothing armed, a site costs one relaxed atomic load and a branch.
//
// Determinism: each point keeps a hit counter; whether hit #i fires is a
// pure function of (spec.seed, i) via a splitmix64 hash compared against
// spec.probability.  The SCHEDULE — the set of firing hit indices — is
// therefore reproducible run to run; under concurrency only the
// assignment of hits to threads varies.
//
// Action semantics are interpreted by each site (docs/robustness.md has
// the full contract):
//   kDelay — inject() sleeps spec.delay_micros, then reports kNone;
//   kThrow — inject() throws InjectedFault (sites on noexcept paths
//            catch it and degrade);
//   kError — reported to the caller; Status-returning paths turn it
//            into Status::internal, others treat it like kDrop;
//   kDrop  — reported to the caller, which discards the unit of work
//            in flight (an event batch, a window, a localization).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace rap::fault {

/// True when the build carries the injection sites (RAP_FAULT_INJECTION).
#ifdef RAP_FAULT_INJECTION
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

enum class Action : std::uint8_t {
  kNone = 0,  ///< did not fire (or delay already served inside inject())
  kThrow,     ///< throw InjectedFault out of the injection point
  kError,     ///< report a Status error / recoverable failure
  kDelay,     ///< sleep delay_micros at the injection point
  kDrop,      ///< discard the unit of work in flight
};

const char* actionName(Action action) noexcept;

/// Thrown by inject() for kThrow faults.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at " + point), point_(point) {}
  const std::string& point() const noexcept { return point_; }

 private:
  std::string point_;
};

/// One armed failure schedule.
struct FaultSpec {
  Action action = Action::kNone;
  /// Per-hit firing probability in [0, 1]; 1.0 fires on every hit.
  double probability = 1.0;
  /// Seeds the deterministic per-hit schedule.
  std::uint64_t seed = 0;
  /// Sleep for kDelay fires.
  std::int64_t delay_micros = 1000;
  /// Hits [0, skip_first) never fire (lets a stream warm up cleanly).
  std::uint64_t skip_first = 0;
  /// Stop firing after this many fires (UINT64_MAX = unbounded).
  std::uint64_t max_fires = UINT64_MAX;
};

/// Thread-safe map of injection point -> armed schedule.  Arm/disarm are
/// test-control operations (mutex); the hit path is lock-free after the
/// initial per-point lookup.
class Registry {
 public:
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Arms `point` with `spec` (replacing any previous schedule and
  /// resetting its counters).  Armed points make anyArmed() true.
  void arm(const std::string& point, FaultSpec spec);

  /// Disarms one point (no-op when not armed).
  void disarm(const std::string& point);

  /// Disarms everything and forgets all counters.
  void reset();

  /// Number of times `point` actually fired (0 when never armed).
  std::uint64_t fires(const std::string& point) const;
  /// Number of times `point` was hit while armed.
  std::uint64_t hits(const std::string& point) const;
  /// Total fires across all points.
  std::uint64_t totalFires() const;

  /// The hit path: decides deterministically whether this hit fires and
  /// serves the action (sleeps for kDelay, throws for kThrow).  Returns
  /// the fired action — kNone when nothing fired or the fault was fully
  /// served in place.
  Action onHit(const char* point);

 private:
  struct Point {
    FaultSpec spec;
    std::atomic<std::uint64_t> hit_count{0};
    std::atomic<std::uint64_t> fire_count{0};
  };

  Point* find(const char* point);

  mutable std::mutex mutex_;
  // Pointer stability for the lock-free hit path: points are never
  // erased while armed_ readers may hold them; reset() swaps the map
  // under the mutex after clearing armed_ (tests quiesce between runs).
  std::map<std::string, std::shared_ptr<Point>> points_;
  std::atomic<std::uint64_t> total_fires_{0};
};

namespace internal {
extern std::atomic<std::int32_t> g_armed_points;
}  // namespace internal

/// One relaxed load: true while any point is armed in the process.
inline bool anyArmed() noexcept {
  return internal::g_armed_points.load(std::memory_order_relaxed) > 0;
}

/// Site helper: consults the global registry when anything is armed.
/// May sleep (kDelay) or throw InjectedFault (kThrow); returns the
/// action for the caller to interpret otherwise.
Action inject(const char* point);

/// Status-returning variant for Status pipelines: kError/kDrop become
/// Status::internal("injected fault at <point>"), kDelay sleeps, kThrow
/// still throws.
util::Status injectStatus(const char* point);

/// Arms points from an environment-style spec string, e.g.
///   "svc.tenant=error;svc.execute=error:0.5:42"
/// Each clause is `point=action[:probability[:seed[:delay_micros
/// [:skip_first[:max_fires]]]]]` with action one of
/// throw|error|delay|drop.  Returns the number of points armed, or an
/// error naming the malformed clause.  Intended for `RAP_FAULT_ARM` in
/// chaos CI jobs; a no-op returning 0 when `spec` is empty.  Builds
/// without RAP_FAULT_INJECTION still parse (the sites just never hit).
util::Result<int> armFromSpec(const std::string& spec);

}  // namespace rap::fault

// The per-site hook.  Usage:
//   switch (RAP_FAULT_HIT("stream.ingest")) {
//     case rap::fault::Action::kDrop: ...; break;
//     default: break;
//   }
// Compiled out (the default), this is the constant Action::kNone and the
// whole switch folds away.
#ifdef RAP_FAULT_INJECTION
#define RAP_FAULT_HIT(point)                                 \
  (::rap::fault::anyArmed() ? ::rap::fault::inject(point)    \
                            : ::rap::fault::Action::kNone)
#define RAP_FAULT_STATUS(point)                                        \
  (::rap::fault::anyArmed() ? ::rap::fault::injectStatus(point)        \
                            : ::rap::util::Status::ok())
#else
#define RAP_FAULT_HIT(point) (::rap::fault::Action::kNone)
#define RAP_FAULT_STATUS(point) (::rap::util::Status::ok())
#endif
