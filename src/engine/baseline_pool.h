// Engine-owned worker pool for baseline (query-at-a-time) executions.
//
// The unified Execute() API returns a non-blocking QueryTicket for every
// routing choice; baseline queries therefore run on this pool instead of
// the caller's thread. Dequeue order is weighted-fair across tenants
// (start-time fair queueing on a virtual clock: each dequeue charges the
// tenant 1/weight, and the tenant with the smallest virtual time goes
// next), then (priority desc, submission order) within a tenant — so one
// tenant's backlog cannot starve another's, yet a tenant's own jobs still
// honor priorities. Jobs support cooperative cancellation and deadlines:
// a sweeper thread resolves cancelled / deadline-expired jobs promptly
// even while they sit in the queue (matching the CJOIN path's
// responsiveness), and the executor's batch-boundary checks interrupt
// jobs mid-scan. Every terminal result goes to the job's Completion,
// whose first resolution wins (worker, sweeper, or shutdown) and runs the
// engine's accounting, quota release included. The queue is optionally
// bounded: over the cap, Enqueue rejects with kResourceExhausted instead
// of growing without bound.

#ifndef CJOIN_ENGINE_BASELINE_POOL_H_
#define CJOIN_ENGINE_BASELINE_POOL_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/qat_engine.h"
#include "catalog/query_spec.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cjoin {

class Completion;

/// One queued/running baseline execution. Shared between the pool and its
/// completion's cancel hook.
struct BaselineJob {
  StarQuerySpec spec;   ///< normalized
  QatOptions options;   ///< per-job executor knobs
  int priority = 0;
  int64_t deadline_ns = 0;  ///< steady-clock nanos; 0 = none
  uint64_t seq = 0;         ///< submission order (set by the pool)

  /// Owner tenant (weighted-fair scheduling key) and its fair-share
  /// weight at submission time.
  std::string tenant;
  double fair_weight = 1.0;

  std::atomic<bool> cancel{false};

  /// Resolved with the terminal result (see Completion::Finish); the
  /// worker stamps the queue end at start.
  std::shared_ptr<Completion> completion;
};

class BaselinePool {
 public:
  /// Spawns `workers` threads (at least one) plus the sweeper.
  /// `max_queued` bounds the waiting queue (0 = unbounded).
  explicit BaselinePool(size_t workers, size_t max_queued = 0);
  ~BaselinePool();

  BaselinePool(const BaselinePool&) = delete;
  BaselinePool& operator=(const BaselinePool&) = delete;

  /// Enqueues a job. Its completion resolves when a worker finishes it,
  /// when the sweeper observes its cancellation / deadline expiry (also
  /// while still queued), or with kAborted on pool shutdown. Returns
  /// kResourceExhausted when the queue is at its cap and kAborted after
  /// shutdown; a rejected job never entered the pool, and its completion
  /// is the caller's to resolve.
  Status Enqueue(std::shared_ptr<BaselineJob> job) EXCLUDES(mu_);

  /// Stops workers and sweeper; unresolved jobs resolve with kAborted.
  /// Idempotent.
  void Shutdown() EXCLUDES(mu_);

  size_t queued() const EXCLUDES(mu_);
  size_t workers() const { return threads_.size(); }

 private:
  void WorkerLoop() EXCLUDES(mu_);
  void SweeperLoop() EXCLUDES(mu_);
  /// Removes and returns the next job under weighted-fair order: the
  /// queued tenant with the smallest virtual time goes first; within the
  /// tenant, (max priority, then lowest seq). Advances the tenant's
  /// virtual clock by 1/weight. nullptr if the queue is empty.
  std::shared_ptr<BaselineJob> PopBestLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  /// Waiting jobs (workers pick the best; small, linear scan).
  std::vector<std::shared_ptr<BaselineJob>> queue_ GUARDED_BY(mu_);
  /// All unresolved jobs — queued and running — watched by the sweeper.
  std::vector<std::shared_ptr<BaselineJob>> watched_ GUARDED_BY(mu_);
  /// Weighted-fair virtual clocks. A tenant's entry is lazily created at
  /// max(vclock floor) so an idle tenant cannot bank unbounded credit.
  std::map<std::string, double> vtimes_ GUARDED_BY(mu_);
  double vclock_floor_ GUARDED_BY(mu_) = 0.0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  const size_t max_queued_;  ///< set once in the constructor
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  std::thread sweeper_;
};

}  // namespace cjoin

#endif  // CJOIN_ENGINE_BASELINE_POOL_H_
