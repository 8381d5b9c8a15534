// QueryEngine: the system facade around the CJOIN operator pool.
//
// Owns the galaxy of star schemas, one always-on pool of CJOIN pipeline
// instances per fact table (a ShardedCJoinOperator drives one full
// pipeline per page slice of the one fact table; one shard — the default
// — degenerates to exactly the paper's single operator),
// the snapshot counter for snapshot-isolated updates (§3.5), a worker
// pool for the conventional (query-at-a-time) executor, and the
// cost-based Router that makes CJOIN "yet one more choice for the
// database query optimizer" (§3.2.3).
//
// Execute(QueryRequest) is the single submission path: every query —
// structured or SQL, CJOIN-routed or baseline-routed — returns the same
// non-blocking QueryTicket with uniform wait/cancel/deadline/stats
// semantics.

#ifndef CJOIN_ENGINE_QUERY_ENGINE_H_
#define CJOIN_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/qat_engine.h"
#include "catalog/star_schema.h"
#include "cjoin/cjoin_operator.h"
#include "cjoin/sharded_operator.h"
#include "common/mutex.h"
#include "engine/admission.h"
#include "engine/baseline_pool.h"
#include "engine/query_api.h"
#include "engine/route_feedback.h"
#include "engine/router.h"
#include "engine/sql_parser.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/slow_query_log.h"
#include "obs/watchdog.h"

namespace cjoin {

class QueryEngine {
 public:
  struct Options {
    CJoinOperator::Options cjoin;
    /// Parallel CJOIN pipeline instances per star: each continuous scan
    /// delivers one page slice of the fact table. 1 (the default) is the
    /// classic single operator; clamped to 64 (each star owns a 64-wide
    /// disk-reader-id block).
    size_t cjoin_shards = 1;
    QatOptions baseline;
    /// Worker threads executing baseline-routed queries.
    size_t baseline_workers = 2;
    /// Bound on jobs waiting in the baseline pool (0 = unbounded). Over
    /// the cap, tickets resolve with kResourceExhausted.
    size_t baseline_max_queued = 0;
    /// Cost-model coefficients for kAuto routing.
    RouterOptions router;
    /// Multi-tenant admission control. max_total_cjoin defaults (0) to
    /// cjoin.max_concurrent_queries, so the bit-vector id freelist can
    /// never block a submitter.
    AdmissionController::Options admission;
    /// Completed queries at or above this end-to-end latency have their
    /// span trace captured into the slow-query log (0 disables capture).
    /// Runtime-adjustable via set_slow_query_threshold (the shell's
    /// `\slowlog <ms>`).
    std::chrono::nanoseconds slow_query_threshold{0};
    /// Retained slow-query entries; older entries are evicted.
    size_t slow_query_log_capacity = 32;
    /// Run the stall watchdog over the engine's progress counters, queue
    /// depths, and admission wait queue (off by default; the server
    /// enables it). watchdog.dump_path makes every trip auto-dump the
    /// flight recorder.
    bool watchdog_enabled = false;
    obs::Watchdog::Options watchdog;
  };

  explicit QueryEngine(Options options);
  QueryEngine() : QueryEngine(Options{}) {}
  ~QueryEngine();

  /// Registers a star schema under `name` and starts its CJOIN pipeline
  /// pool (Options::cjoin_shards page slices of its fact table).
  Status RegisterStar(std::string name, StarSchema star);

  Result<const StarSchema*> FindStar(std::string_view name) const;

  // --- The unified query path ----------------------------------------------

  /// Submits a query — structured spec or SQL — and returns a uniform
  /// non-blocking ticket, whichever engine it is routed to. Snapshot
  /// defaults to the engine's current snapshot; kAuto policy consults the
  /// cost-based Router (§3.2.3).
  Result<std::unique_ptr<QueryTicket>> Execute(QueryRequest request);

  /// The routing decision Execute() would make for this SQL right now,
  /// without running the query (the shell's EXPLAIN ROUTE). `tenant`
  /// prices the verdict — including the admission outcome (admitted /
  /// queued / shed) — for that tenant without consuming any quota.
  Result<RouteDecision> ExplainRoute(std::string_view star_name,
                                     std::string_view sql,
                                     std::string_view tenant = {});
  Result<RouteDecision> ExplainRoute(StarQuerySpec spec,
                                     std::string_view tenant = {});

  // --- Admission control & multi-tenant scheduling --------------------------

  /// Installs / replaces a tenant's quota on the live engine (mirrors
  /// SetShardCount's runtime elasticity): the next admission sees the new
  /// limits; raised CJOIN budgets grant parked waiters immediately.
  Status SetTenantQuota(std::string_view tenant, TenantQuota quota);
  TenantQuota GetTenantQuota(std::string_view tenant) const;

  /// Point-in-time admission state: engine totals plus per-tenant
  /// in-flight / queued / shed counters (the shell's \admission).
  AdmissionController::Stats AdmissionStats() const;

  // --- Router feedback loop --------------------------------------------------

  /// Decision counters plus the calibration state — the per-route fits
  /// of observed service seconds on predicted work units that the
  /// Router consults once warm (the shell's \calibration).
  RouterStats GetRouterStats() const { return calibrator_.Stats(); }

  // --- Observability ---------------------------------------------------------

  /// The metrics registry every engine layer records into (the engine
  /// uses the process-global instance; exposed here so serving layers
  /// can snapshot it without reaching for the global). Rendered as JSON
  /// through the STATS wire frame and as Prometheus text by \metrics.
  obs::MetricsRegistry& metrics() const {
    return obs::MetricsRegistry::Global();
  }

  /// The engine's slow-query log. Entries accrue only while the
  /// threshold is nonzero; the log itself is always safe to read.
  obs::SlowQueryLog& slow_query_log() { return slow_log_; }
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// Runtime slow-query capture threshold (0 = off). Takes effect on
  /// the next completion; no queries are re-examined retroactively.
  void set_slow_query_threshold(std::chrono::nanoseconds threshold) {
    slow_threshold_ns_.store(threshold.count(), std::memory_order_relaxed);
  }
  std::chrono::nanoseconds slow_query_threshold() const {
    return std::chrono::nanoseconds(
        slow_threshold_ns_.load(std::memory_order_relaxed));
  }

  /// The stall watchdog (null unless Options::watchdog_enabled).
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  // --- Sharding (runtime elasticity) ----------------------------------------

  /// Restarts the named star's CJOIN pool as `shards` parallel pipelines
  /// over page slices of the same fact table; no data is copied or
  /// rebuilt. The replacement pool is started before the old pool is
  /// stopped; CJOIN queries still in flight on the old pool complete with
  /// kAborted (callers see it through their tickets).
  Status SetShardCount(std::string_view star_name, size_t shards);

  /// Current shard count of the named star's pipeline pool.
  Result<size_t> ShardCount(std::string_view star_name);

  // --- Galaxy queries (§5) ---------------------------------------------------

  /// A fact-to-fact join query over two stars, expressed as two star
  /// sub-queries pivoted on one fact column from each side.
  struct GalaxyJoinSpec {
    StarQuerySpec left;
    StarQuerySpec right;
    /// Fact-table columns equated by the fact-to-fact join.
    size_t left_join_col = 0;
    size_t right_join_col = 0;

    /// Output column: side 0 = left star, 1 = right star.
    struct OutputColumn {
      int side = 0;
      ColumnSource source;
      std::string label;
    };
    std::vector<OutputColumn> group_by;
    struct OutputAggregate {
      AggFn fn = AggFn::kCount;
      int side = 0;
      std::optional<ColumnSource> input;  // nullopt = COUNT(*)
      std::string label;
    };
    std::vector<OutputAggregate> aggregates;

    /// Absolute deadline (steady-clock nanos; 0 = none) applied to both
    /// star sub-queries through the unified lifecycle.
    int64_t deadline_ns = 0;
  };

  /// Evaluates a galaxy join: both star sub-queries are submitted through
  /// Execute() (sharing the unified lifecycle — snapshot capping,
  /// deadlines, cancellation) and run concurrently in their stars' CJOIN
  /// pools; their result streams meet in a hash join, then aggregate.
  /// If one side fails, the other is cancelled.
  Result<ResultSet> ExecuteGalaxyJoin(const GalaxyJoinSpec& spec);

  // --- Updates (§3.5) --------------------------------------------------------

  /// Current snapshot id; queries submitted without an explicit snapshot
  /// read this snapshot.
  SnapshotId CurrentSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Appends fact rows (payload vectors of the fact schema's row size) to
  /// the named star's fact table as one transaction and returns the
  /// snapshot at which they became visible. Each new row lies in exactly
  /// one shard's page slice and is observed by that shard's continuous
  /// scan from its next lap (storage freezes sizes per lap).
  Result<SnapshotId> AppendFacts(std::string_view star_name,
                                 const std::vector<std::vector<uint8_t>>& rows,
                                 uint32_t partition = 0);

  /// Deletes fact rows matching `predicate` (over the fact schema) as one
  /// transaction; returns the first snapshot that no longer sees them.
  Result<SnapshotId> DeleteFacts(std::string_view star_name,
                                 const ExprPtr& predicate);

  /// Names of the registered stars, in registration order.
  std::vector<std::string> StarNames() const EXCLUDES(ops_mu_);

  /// The CJOIN pipeline pool of a registered star (for stats and tests).
  /// The pointer is invalidated by SetShardCount on the same star.
  Result<ShardedCJoinOperator*> OperatorFor(std::string_view star_name);

  /// Hard stop: fails parked admission waiters, stops the baseline pool,
  /// and stops every CJOIN pipeline pool (in-flight CJOIN queries
  /// complete with kAborted through their tickets). Idempotent; called
  /// by the destructor.
  void Shutdown();

  /// Graceful drain, then stop — the SIGINT/SIGTERM path of the serving
  /// front-end. New Execute() submissions resolve immediately with
  /// kAborted through the uniform ticket (Execute itself keeps
  /// succeeding); in-flight queries keep running until the admission
  /// totals (CJOIN registrations, baseline jobs in system, wait-queue
  /// occupancy) reach zero or `drain_timeout` elapses; then the engine
  /// hard-stops, aborting any stragglers. Returns true iff all
  /// outstanding work completed within the timeout.
  bool Shutdown(std::chrono::nanoseconds drain_timeout);

  /// True once Shutdown(drain_timeout) began refusing new work.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct StarEntry {
    std::string name;
    std::unique_ptr<StarSchema> star;
    /// The star's CJOIN pipeline pool. Swapped wholesale by SetShardCount,
    /// so concurrent Execute() calls holding the old pool stay
    /// memory-safe. Guarded by the engine's ops_mu_ (thread-safety
    /// annotations cannot name an enclosing object's mutex from a nested
    /// struct, so the contract is documented here and enforced at the
    /// access sites: PoolFor / SetShardCount).
    std::shared_ptr<ShardedCJoinOperator> pool;
    /// Snapshot of the newest committed append to this star's fact table.
    /// Queries are snapshot-capped only while appends beyond the scan's
    /// covered bound exist (deletes are always within scanned ranges).
    std::atomic<SnapshotId> last_append_snapshot{0};
  };

  Result<StarEntry*> EntryFor(const StarSchema* schema) EXCLUDES(ops_mu_);
  Result<StarEntry*> EntryByName(std::string_view name) EXCLUDES(ops_mu_);
  const StarEntry* EntryByNameConst(std::string_view name) const
      EXCLUDES(ops_mu_);

  /// Snapshot of the star's current pool (safe against SetShardCount).
  std::shared_ptr<ShardedCJoinOperator> PoolFor(StarEntry* entry) const
      EXCLUDES(ops_mu_);

  /// Load inputs the Router prices: one sampling point shared by
  /// Execute() and ExplainRoute(), so their verdicts cannot diverge.
  /// Includes `tenant`'s admission state (slot occupancy, pool share),
  /// sampled under ONE controller lock acquisition together with the
  /// optional per-route admission probes (EXPLAIN ROUTE's verdict line
  /// therefore cannot disagree with the load its costs were priced on).
  RouteInputs SampleRouteInputs(const ShardedCJoinOperator& pool,
                                const std::string& tenant,
                                AdmissionDecision* probe_cjoin = nullptr,
                                AdmissionDecision* probe_baseline =
                                    nullptr) const;

  /// Shared EXPLAIN ROUTE core: the decision Execute() would make for
  /// the resolved request right now (DecideMode::kProbe — no counters,
  /// no exploration, no quota consumed).
  Result<RouteDecision> ProbeRoute(QueryRequest request);

  /// Hands a query holding a CJOIN slot to the star's pipeline pool —
  /// the admitted path from Execute() and the wait-queue grant alike —
  /// and binds the handle to `c`, after capping the snapshot for exact
  /// semantics under concurrent appends. A refusal (ids still taken after
  /// `id_grace_ns`, the pool stopping under SetShardCount, the deadline
  /// just passed) rejects `c` and is returned.
  Status SubmitCJoin(StarEntry* entry, ShardedCJoinOperator& pool,
                     const std::shared_ptr<Completion>& c, StarQuerySpec spec,
                     AggregatorFactory aggregator, int64_t deadline_ns,
                     int64_t id_grace_ns);

  /// Enqueues an admitted baseline query on the worker pool; a refusal
  /// (queue cap, pool shut down) rejects `c` and is returned.
  Status SubmitBaseline(const std::shared_ptr<Completion>& c,
                        QueryRequest request, int64_t deadline_ns);

  /// Every query's completion accounting (Completion::Finalizer): returns
  /// the admission slot if one is held and, for queries that reached a
  /// backend, records the completion metrics, the baseline queue/run
  /// spans, the flight-recorder and slow-query captures, and the route
  /// calibrator's observation.
  void Finalize(const Completion& c, const Result<ResultSet>& result);

  /// Builds and starts a `shards`-way operator pool over `star`.
  Result<std::shared_ptr<ShardedCJoinOperator>> MakePool(
      const StarSchema& star, size_t shards, uint64_t disk_reader_base);

  /// Resolves a request's spec (parsing SQL if needed), normalizes it,
  /// and defaults its snapshot; returns the owning star entry.
  Result<StarEntry*> ResolveRequest(QueryRequest* request);

  /// The watchdog's sampler: stage progress/backlog per shard pipeline,
  /// inter-stage queue depths, and the admission wait queue. Runs on the
  /// watchdog thread against the same stats accessors the shell uses.
  void SampleForWatchdog(std::vector<obs::Watchdog::StageSample>& stages,
                         std::vector<obs::Watchdog::QueueSample>& queues);

  Options opts_;
  /// The router feedback loop: fed by Finalize() for every kAuto-routed
  /// query, consulted (lock-free) by router_. Declared before router_,
  /// which holds a pointer to it.
  RouteCalibrator calibrator_;
  Router router_;
  /// shared_ptr so a wait-queued ticket's waiter-cancel hook can hold a
  /// weak reference: such tickets may outlive the engine, and their
  /// Cancel() must degrade to a no-op rather than touch a freed
  /// controller.
  std::shared_ptr<AdmissionController> admission_;
  std::unique_ptr<BaselinePool> baseline_pool_;
  /// Slow-query capture: the threshold is read lock-free on every
  /// completion; the log's own mutex is touched only on capture.
  std::atomic<int64_t> slow_threshold_ns_{0};
  obs::SlowQueryLog slow_log_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  /// Guards the stars_ vector structure and each entry's pool pointer.
  mutable SharedMutex ops_mu_;
  std::vector<std::unique_ptr<StarEntry>> stars_ GUARDED_BY(ops_mu_);
  std::atomic<SnapshotId> snapshot_{1};
  /// Serializes writers (single-writer storage), and SetShardCount with
  /// Shutdown.
  Mutex update_mu_;
  /// Set under update_mu_ (so SetShardCount, which holds update_mu_ for
  /// its whole body, cannot start a fresh pool after Shutdown swept the
  /// existing ones); read lock-free on the query paths.
  std::atomic<bool> shut_down_{false};
  /// Set by Shutdown(drain_timeout): Execute() sheds new submissions
  /// with kAborted tickets while in-flight work drains.
  std::atomic<bool> draining_{false};
};

}  // namespace cjoin

#endif  // CJOIN_ENGINE_QUERY_ENGINE_H_
