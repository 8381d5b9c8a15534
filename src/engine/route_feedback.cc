#include "engine/route_feedback.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace cjoin {

namespace {

constexpr size_t RouteIndex(RouteChoice route) {
  return route == RouteChoice::kCJoin ? 0 : 1;
}

/// EWMA weight of the per-observation prediction-error tracker.
constexpr double kErrorEwmaWeight = 0.25;

/// Relative errors are clamped so one pathological observation cannot
/// dominate the EWMA.
constexpr double kMaxRelError = 10.0;

}  // namespace

RouteCalibrator::RouteCalibrator(CalibrationOptions options)
    : opts_(options) {
  opts_.min_observations = std::max(1.0, opts_.min_observations);
  opts_.fit_decay = std::clamp(opts_.fit_decay, 0.0, 1.0);
  opts_.stale_decay = std::clamp(opts_.stale_decay, 0.0, 1.0);
}

void RouteCalibrator::Solve(const LsqState& s, RouteModelSnapshot* out) {
  // Weighted least squares from the decayed sufficient statistics. With
  // (near-)constant x the normal-equation denominator degenerates; fall
  // back to the ratio estimator through the origin, which is exactly
  // what a single operating point can support.
  out->alpha = 0.0;
  out->beta = 0.0;
  if (s.n <= 0.0 || s.sxx <= 0.0) return;
  const double det = s.n * s.sxx - s.sx * s.sx;
  const double mean_xx = s.sxx / s.n;
  if (det > 1e-9 * s.n * mean_xx) {
    double alpha = (s.n * s.sxy - s.sx * s.sy) / det;
    double beta = (s.sy - alpha * s.sx) / s.n;
    if (alpha >= 0.0 && beta >= 0.0) {
      out->alpha = alpha;
      out->beta = beta;
      return;
    }
    // A negative slope or intercept extrapolates nonsense outside the
    // observed range (costs cannot shrink with work); degrade below.
  }
  out->alpha = s.sxy > 0.0 ? s.sxy / s.sxx : 0.0;
  out->beta = 0.0;
}

namespace {

/// Word layout of one RouteModelSnapshot inside the seqlock payload.
void PackModel(const RouteModelSnapshot& m, uint64_t* w) {
  w[0] = std::bit_cast<uint64_t>(m.alpha);
  w[1] = std::bit_cast<uint64_t>(m.beta);
  w[2] = std::bit_cast<uint64_t>(m.evidence);
  w[3] = m.observations;
  w[4] = m.warm ? 1 : 0;
  w[5] = std::bit_cast<uint64_t>(m.rel_error);
  w[6] = std::bit_cast<uint64_t>(m.last_service_seconds);
}

void UnpackModel(const uint64_t* w, RouteModelSnapshot* m) {
  m->alpha = std::bit_cast<double>(w[0]);
  m->beta = std::bit_cast<double>(w[1]);
  m->evidence = std::bit_cast<double>(w[2]);
  m->observations = w[3];
  m->warm = w[4] != 0;
  m->rel_error = std::bit_cast<double>(w[5]);
  m->last_service_seconds = std::bit_cast<double>(w[6]);
}

}  // namespace

void RouteCalibrator::PublishLocked() {
  CalibrationSnapshot fresh;
  RouteModelSnapshot* outs[2] = {&fresh.cjoin, &fresh.baseline};
  for (size_t r = 0; r < 2; ++r) {
    const LsqState& s = models_[r];
    RouteModelSnapshot* out = outs[r];
    Solve(s, out);
    out->evidence = s.mass;
    out->observations = s.count;
    out->rel_error = s.rel_error;
    out->last_service_seconds = s.last_service;
    out->warm = s.mass >= opts_.min_observations &&
                (out->alpha > 0.0 || out->beta > 0.0);
  }
  fresh.decays = decays_;

  uint64_t packed[kSnapWords];
  PackModel(fresh.cjoin, packed);
  PackModel(fresh.baseline, packed + kModelWords);
  packed[2 * kModelWords] = fresh.decays;

  // Seqlock publish: odd while writing. Writers are already serialized
  // by mu_. Each word is a release store, so a reader whose acquire load
  // sees it also sees the odd sequence stored before it.
  const uint32_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  for (size_t i = 0; i < kSnapWords; ++i) {
    words_[i].store(packed[i], std::memory_order_release);
  }
  seq_.store(seq + 2, std::memory_order_release);
}

void RouteCalibrator::Observe(const RouteObservation& obs) {
  if (!opts_.enabled) return;
  const double service =
      obs.wall_seconds - std::max(0.0, obs.queue_wait_seconds);
  if (!(obs.work_units > 0.0) || !(service > 0.0)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("route_observations_dropped_total",
                      "Calibration observations rejected as unusable")
          ->Add();
    }
    return;
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("route_observations_total",
                    "Latency observations fed back into route calibration",
                    obs::LabelPair("route", obs.route == RouteChoice::kCJoin
                                                ? "cjoin"
                                                : "baseline"))
        ->Add();
  }
  MutexLock lk(&mu_);
  LsqState& s = models_[RouteIndex(obs.route)];

  // Honest prediction error: score the *pre-update* fit against this
  // observation (1.0 — "no usable prediction" — before the first fit).
  RouteModelSnapshot fit;
  Solve(s, &fit);
  double err = 1.0;
  if (fit.alpha > 0.0 || fit.beta > 0.0) {
    err = std::min(kMaxRelError,
                   std::abs(fit.PredictSeconds(obs.work_units) - service) /
                       service);
  }
  s.rel_error = (1.0 - kErrorEwmaWeight) * s.rel_error +
                kErrorEwmaWeight * err;

  const double d = opts_.fit_decay;
  s.n = d * s.n + 1.0;
  s.sx = d * s.sx + obs.work_units;
  s.sy = d * s.sy + service;
  s.sxx = d * s.sxx + obs.work_units * obs.work_units;
  s.sxy = d * s.sxy + obs.work_units * service;
  s.mass += 1.0;
  s.count++;
  s.last_service = service;
  PublishLocked();
}

CalibrationSnapshot RouteCalibrator::Snapshot() const {
  uint64_t packed[kSnapWords];
  for (;;) {
    const uint32_t before = seq_.load(std::memory_order_acquire);
    if (before & 1u) continue;  // writer in progress
    // Acquire loads keep the re-check below after every word load, and
    // make it see the odd sequence of any writer whose word was read.
    for (size_t i = 0; i < kSnapWords; ++i) {
      packed[i] = words_[i].load(std::memory_order_acquire);
    }
    if (seq_.load(std::memory_order_relaxed) == before) break;
  }
  CalibrationSnapshot copy;
  UnpackModel(packed, &copy.cjoin);
  UnpackModel(packed + kModelWords, &copy.baseline);
  copy.decays = packed[2 * kModelWords];
  return copy;
}

RouterStats RouteCalibrator::Stats() const {
  RouterStats stats;
  stats.decisions_cjoin = decisions_[0].load(std::memory_order_relaxed);
  stats.decisions_baseline = decisions_[1].load(std::memory_order_relaxed);
  stats.calibrated_decisions =
      calibrated_decisions_.load(std::memory_order_relaxed);
  stats.explored_decisions =
      explored_decisions_.load(std::memory_order_relaxed);
  stats.observations_dropped = dropped_.load(std::memory_order_relaxed);
  stats.calibration = Snapshot();
  return stats;
}

void RouteCalibrator::Decay() {
  if (!opts_.enabled) return;
  MutexLock lk(&mu_);
  for (LsqState& s : models_) {
    const double d = opts_.stale_decay;
    s.n *= d;
    s.sx *= d;
    s.sy *= d;
    s.sxx *= d;
    s.sxy *= d;
    // The warm-up mass is clamped to the threshold before decaying, so
    // a long-running route (arbitrarily large mass) still drops below
    // `min_observations` and re-learns — the documented semantics —
    // instead of staying warm on pre-regime-change evidence.
    s.mass = std::min(s.mass, opts_.min_observations) * d;
  }
  decays_++;
  PublishLocked();
}

bool RouteCalibrator::ShouldExplore(const CalibrationSnapshot& snap,
                                    RouteChoice preferred) {
  if (!opts_.enabled || opts_.explore_every == 0) return false;
  const RouteModelSnapshot& mine = snap.For(preferred);
  const RouteModelSnapshot& other = snap.For(
      preferred == RouteChoice::kCJoin ? RouteChoice::kBaseline
                                       : RouteChoice::kCJoin);
  // Explore only from a warm route toward a cold one: with no evidence at
  // all the static model is the best guess, and with both routes warm the
  // calibrated comparison needs no help.
  if (!mine.warm || other.warm) return false;
  const uint64_t tick =
      explore_tick_.fetch_add(1, std::memory_order_relaxed);
  if ((tick + 1) % opts_.explore_every != 0) return false;
  explored_decisions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RouteCalibrator::CountDecision(const RouteDecision& decision) {
  decisions_[RouteIndex(decision.choice)].fetch_add(
      1, std::memory_order_relaxed);
  if (decision.calibrated) {
    calibrated_decisions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("route_decisions_total",
                   "Routing verdicts for executed queries",
                   obs::LabelPair("route",
                                  decision.choice == RouteChoice::kCJoin
                                      ? "cjoin"
                                      : "baseline"))
        ->Add();
    if (decision.calibrated) {
      reg.GetCounter("route_decisions_calibrated_total",
                     "Decisions made on warm calibrated costs")
          ->Add();
    }
    if (decision.explored) {
      reg.GetCounter("route_decisions_explored_total",
                     "Decisions flipped to warm up a cold route")
          ->Add();
    }
  }
}

std::string RouterStats::ToString() const {
  char buf[640];
  std::string out;
  std::snprintf(
      buf, sizeof(buf),
      "decisions: cjoin %llu | baseline %llu | calibrated %llu | "
      "explored %llu | dropped obs %llu | decays %llu",
      static_cast<unsigned long long>(decisions_cjoin),
      static_cast<unsigned long long>(decisions_baseline),
      static_cast<unsigned long long>(calibrated_decisions),
      static_cast<unsigned long long>(explored_decisions),
      static_cast<unsigned long long>(observations_dropped),
      static_cast<unsigned long long>(calibration.decays));
  out = buf;
  const RouteModelSnapshot* models[2] = {&calibration.cjoin,
                                         &calibration.baseline};
  const char* names[2] = {"cjoin", "baseline"};
  for (size_t r = 0; r < 2; ++r) {
    const RouteModelSnapshot& m = *models[r];
    std::snprintf(buf, sizeof(buf),
                  "\n  %-8s %s | fit t = %.3g * units + %.3g s | "
                  "evidence %.1f (%llu obs) | rel err %.3f | last %.4f s",
                  names[r], m.warm ? "warm" : "cold", m.alpha, m.beta,
                  m.evidence,
                  static_cast<unsigned long long>(m.observations),
                  m.rel_error, m.last_service_seconds);
    out += buf;
  }
  return out;
}

}  // namespace cjoin
