// The router feedback loop (ROADMAP "dynamic part").
//
// PR 1's Router prices both routes with static hand-tuned coefficients in
// abstract fact-tuple work units. Static weights systematically misroute
// whenever the deployment's real per-tuple costs differ from the
// defaults (different hardware, different predicate complexity, a
// baseline executor that got faster). CJOIN's whole §3.2.3 pitch is
// *predictable* performance — so the router must learn from what it can
// observe: every completed ticket already flows through a completion
// observer carrying its terminal result and timing.
//
// The RouteCalibrator closes that loop. Each kAuto-routed query that
// completes successfully reports one RouteObservation: the route taken,
// the decision-time work-unit estimate, and the observed wall-clock /
// queue-wait split. Per route (CJOIN and baseline — tenant-agnostic, the
// pipeline does not care who asked), an exponentially-decayed
// least-squares fit maps work units to *service seconds*:
//
//     service_seconds  ~=  alpha_route * work_units + beta_route
//
// Once both routes have at least `min_observations` of fresh evidence,
// the Router compares calibrated seconds instead of static units; until
// then it falls back to the static defaults. Because a confidently
// one-sided router would starve the losing route of evidence forever,
// the calibrator also drives a deterministic exploration policy: while
// exactly one route's model is warm, every `explore_every`-th decision
// is flipped to the cold route to gather the missing observations.
//
// Readers (the Decide() hot path) never take a lock: the fitted model is
// published through a seqlock — writers (observations, decays) serialize
// on a mutex, bump the sequence to odd, mutate, bump to even; readers
// retry the copy until they see a stable even sequence. Re-sharding and
// quota changes shift the timing regime under the model, so the engine
// calls Decay() on both, which shrinks the accumulated evidence mass —
// a decayed route drops below the warm threshold and re-learns.

#ifndef CJOIN_ENGINE_ROUTE_FEEDBACK_H_
#define CJOIN_ENGINE_ROUTE_FEEDBACK_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "engine/router.h"

namespace cjoin {

/// One completed kAuto-routed query, reported by the engine's completion
/// observers. Times are seconds; work units are the decision-time
/// estimate for the route actually taken (uninflated by queue / scarcity
/// penalties, which model waiting rather than work).
struct RouteObservation {
  RouteChoice route = RouteChoice::kCJoin;
  /// The Router's uninflated work-unit estimate at decision time.
  double work_units = 0.0;
  /// Submission to result delivery, wall clock.
  double wall_seconds = 0.0;
  /// Time attributable to waiting for resources rather than doing work:
  /// the admission wait-queue residence (deferred CJOIN grants) or the
  /// baseline pool queue wait. Subtracted before fitting.
  double queue_wait_seconds = 0.0;
};

/// One route's fitted model, as published to readers.
struct RouteModelSnapshot {
  /// service_seconds ~= alpha * work_units + beta.
  double alpha = 0.0;
  double beta = 0.0;
  /// Exponentially-decayed evidence mass (decays toward 0 as fits age
  /// through Decay(); grows by 1 per observation).
  double evidence = 0.0;
  /// Raw lifetime observation count.
  uint64_t observations = 0;
  /// True once evidence >= min_observations: the Router consults the fit.
  bool warm = false;
  /// EWMA of |predicted - observed| / observed service time, evaluated
  /// against the pre-update fit (1.0 until the first usable fit).
  double rel_error = 1.0;
  /// Most recent observed service seconds (diagnostics).
  double last_service_seconds = 0.0;

  /// Predicted service seconds for `work_units` under this fit.
  double PredictSeconds(double work_units) const {
    const double s = alpha * work_units + beta;
    return s > 0.0 ? s : 0.0;
  }
};

/// Point-in-time view of the whole calibration state (seqlock-consistent).
struct CalibrationSnapshot {
  RouteModelSnapshot cjoin;
  RouteModelSnapshot baseline;
  /// Decay() invocations (re-shards / quota changes) so far.
  uint64_t decays = 0;

  const RouteModelSnapshot& For(RouteChoice route) const {
    return route == RouteChoice::kCJoin ? cjoin : baseline;
  }
  /// Both routes warm: the Router compares calibrated seconds.
  bool BothWarm() const { return cjoin.warm && baseline.warm; }
};

/// Router-side counters + the calibration state (shell `\calibration`).
struct RouterStats {
  uint64_t decisions_cjoin = 0;
  uint64_t decisions_baseline = 0;
  /// Decisions where calibrated seconds (not static units) were compared.
  uint64_t calibrated_decisions = 0;
  /// Decisions flipped to the cold route by the exploration policy.
  uint64_t explored_decisions = 0;
  uint64_t observations_dropped = 0;  ///< non-positive work/time, ignored
  CalibrationSnapshot calibration;

  std::string ToString() const;
};

class RouteCalibrator {
 public:
  explicit RouteCalibrator(CalibrationOptions options);
  RouteCalibrator() : RouteCalibrator(CalibrationOptions{}) {}

  RouteCalibrator(const RouteCalibrator&) = delete;
  RouteCalibrator& operator=(const RouteCalibrator&) = delete;

  const CalibrationOptions& options() const { return opts_; }

  /// Folds one completed query into the route's fit and republishes the
  /// snapshot. Ignores non-positive work units / service times.
  void Observe(const RouteObservation& obs) EXCLUDES(mu_);

  /// Lock-free consistent copy of the published state (seqlock read).
  CalibrationSnapshot Snapshot() const;

  /// Snapshot plus the decision counters.
  RouterStats Stats() const;

  /// Shrinks both routes' evidence mass — called after re-sharding or a
  /// quota change invalidates the timing regime. The fitted line
  /// survives (it is the best guess available) but the route is
  /// guaranteed to drop out of `warm` (mass is clamped to the threshold
  /// before the `stale_decay` multiply) until fresh observations
  /// rebuild the mass.
  void Decay() EXCLUDES(mu_);

  // --- Decision-path hooks (lock-free; called by Router::Decide) -----------

  /// Deterministic exploration: true when the decision for `preferred`
  /// should flip to the other route because `preferred` is warm, the
  /// other route is cold, and the exploration counter elects this
  /// decision. Only Execute()-mode decisions tick the counter.
  bool ShouldExplore(const CalibrationSnapshot& snap, RouteChoice preferred);

  /// Records an Execute()-mode decision in the counters.
  void CountDecision(const RouteDecision& decision);

 private:
  /// Exponentially-decayed sufficient statistics of least squares of
  /// service seconds (y) on work units (x).
  struct LsqState {
    double n = 0.0;   ///< EWMA-decayed weight of the fit statistics
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    /// Warm-up mass: +1 per observation, shrunk only by Decay() — so
    /// "warm after min_observations" means exactly N queries, while the
    /// fit itself still forgets old regimes geometrically.
    double mass = 0.0;
    uint64_t count = 0;
    double rel_error = 1.0;
    double last_service = 0.0;
  };

  /// Solves the current fit of `state` into `out` (alpha/beta only).
  static void Solve(const LsqState& state, RouteModelSnapshot* out);
  /// Rebuilds snap_ from models_ and republishes it.
  void PublishLocked() REQUIRES(mu_);

  CalibrationOptions opts_;

  Mutex mu_;  ///< serializes writers
  LsqState models_[2] GUARDED_BY(mu_);  ///< [kCJoin, kBaseline]
  uint64_t decays_ GUARDED_BY(mu_) = 0;

  /// Seqlock-published snapshot: odd sequence while a writer mutates,
  /// readers retry until they copy under a stable even sequence. The
  /// payload is an array of atomic words (doubles bit-cast to uint64),
  /// stored with release and loaded with acquire, rather than a plain
  /// struct behind fences, so the unavoidable read/write overlap of a
  /// seqlock is data-race-free for the memory model, ThreadSanitizer
  /// models every ordering it relies on, and readers stay lock-free. The
  /// atomics also keep the reader side outside thread-safety analysis's
  /// remit: no GUARDED_BY member is touched without mu_, so Snapshot()
  /// needs no NO_THREAD_SAFETY_ANALYSIS escape.
  static constexpr size_t kModelWords = 7;
  static constexpr size_t kSnapWords = 2 * kModelWords + 1;
  mutable std::atomic<uint32_t> seq_{0};
  std::atomic<uint64_t> words_[kSnapWords] = {};

  std::atomic<uint64_t> decisions_[2] = {};
  std::atomic<uint64_t> calibrated_decisions_{0};
  std::atomic<uint64_t> explored_decisions_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> explore_tick_{0};
};

}  // namespace cjoin

#endif  // CJOIN_ENGINE_ROUTE_FEEDBACK_H_
