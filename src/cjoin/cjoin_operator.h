// CJOIN: the concurrent star-join operator (the paper's contribution).
//
// One CJoinOperator evaluates an unbounded stream of concurrent star
// queries over a single star schema with a single "always-on" physical
// plan:
//
//   continuous scan -> Preprocessor -> Filters (in Stages) -> Distributor
//                          ^                                     |
//                          +--------- Pipeline Manager <---------+
//
// Work shared across ALL in-flight queries: the fact-table I/O (one
// continuous scan), the join computation (one dimension-hash-table probe
// filters a tuple against every query at once), and tuple storage (one
// copy of each selected dimension tuple, with a query bit-vector).
//
// Usage:
//   CJoinOperator op(star, options);
//   op.Start();
//   auto handle = op.Submit(spec);          // non-blocking pipeline entry
//   Result<ResultSet> rs = handle->Wait();  // paper: one scan wrap later
//   op.Stop();

#ifndef CJOIN_CJOIN_CJOIN_OPERATOR_H_
#define CJOIN_CJOIN_CJOIN_OPERATOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "catalog/query_spec.h"
#include "common/mutex.h"
#include "cjoin/distributor.h"
#include "cjoin/filter.h"
#include "cjoin/preprocessor.h"
#include "cjoin/query_runtime.h"
#include "cjoin/stage.h"
#include "common/status.h"

namespace cjoin {

/// Thread mapping of the filter pipeline (§4).
enum class PipelineConfig {
  kHorizontal,  ///< one Stage boxing all Filters, N threads
  kVertical,    ///< one Stage per Filter, >=1 thread each
};

class CJoinOperator {
 public:
  struct Options {
    /// maxConc: bound on concurrently registered queries; fixes the
    /// bit-vector width at ceil(maxConc/64) words. While all ids are
    /// taken, Submit() waits at most SubmitOptions::id_acquire_grace_ns
    /// for one to recycle, then rejects with kResourceExhausted.
    size_t max_concurrent_queries = 256;

    PipelineConfig config = PipelineConfig::kHorizontal;
    /// Stage worker threads. Horizontal: all on the single Stage.
    /// Vertical: distributed round-robin, at least one per Stage.
    size_t num_worker_threads = 4;

    /// Data tuples per batch (queue transfer unit, §4): the rows of one
    /// column block.
    size_t batch_size = 256;
    /// Dimension probes gathered per batched-probe round in the filter
    /// stages (gather→prefetch→resolve; see dim_hash_table.h). Values
    /// <=1 select the scalar per-tuple probe loop; values above
    /// Stage::kGatherCap are clamped.
    size_t probe_batch_size = 128;
    /// Batches per inter-component queue.
    size_t queue_capacity = 64;
    /// Wakeup hysteresis for the queues (1 = always wake; §4).
    size_t queue_wake_depth = 1;
    /// Bound on in-flight data tuples (§4's specialized allocator),
    /// rounded up to whole column blocks of batch_size rows. Blocks are
    /// allocated on first use.
    size_t pool_capacity = 64 * 1024;

    /// Rows per continuous-scan run.
    size_t scan_run_rows = 1024;
    SimDisk* disk = nullptr;
    uint64_t disk_reader_id = 0;

    /// Run-time filter reordering (§3.4, after Babu et al.). Only applied
    /// in the horizontal configuration.
    bool adaptive_ordering = true;
    std::chrono::milliseconds reorder_interval{50};

    AggregatorFactory aggregator_factory;  // default: MakeHashAggregator

    /// Optional probe of the engine's current snapshot, used to bound
    /// append-visibility staleness (see Preprocessor::covered_snapshot).
    std::function<SnapshotId()> snapshot_probe;

    /// Flight-recorder identity prefix for this pipeline's threads and
    /// queues ("s2/" on shard 2 of a sharded pool). Purely cosmetic:
    /// metric labels and trace spans are unaffected.
    std::string name_prefix;
  };

  /// Runs the pipeline over `slice` of star.fact(): the whole table by
  /// default, or one shard's pages in a ShardedCJoinOperator.
  CJoinOperator(const StarSchema& star, Options options, ScanSlice slice = {});
  ~CJoinOperator();

  CJoinOperator(const CJoinOperator&) = delete;
  CJoinOperator& operator=(const CJoinOperator&) = delete;

  /// Spawns the pipeline threads. Must be called once before Submit().
  Status Start();

  /// Stops the pipeline, aborting unfinished queries. Idempotent.
  void Stop();

  /// Per-submission options (beyond the spec itself).
  struct SubmitOptions {
    /// Overrides the operator default for this query only (used by the
    /// galaxy join, §5).
    AggregatorFactory aggregator_factory;
    /// Absolute deadline, steady-clock nanos (0 = none). An expired query
    /// is deregistered mid-lap and completes with kDeadlineExceeded.
    int64_t deadline_ns = 0;
    /// Skip NormalizeSpec: the caller guarantees the spec already is
    /// (the engine normalizes during request resolution).
    bool assume_normalized = false;
    /// Bounded wait for a bit-vector id when all max_concurrent_queries
    /// are taken: an id whose query already delivered but whose (prompt)
    /// pipeline cleanup hasn't recycled it yet. Bridges that recycling
    /// window — an admitted back-to-back resubmission into a just-freed
    /// slot — without blocking unboundedly; past it Submit() returns
    /// kResourceExhausted. 0 = reject immediately.
    int64_t id_acquire_grace_ns = 250'000'000;
    /// Invoked with the query's terminal result right before its promise
    /// resolves (see QueryRuntime::completion_observer). Installed before
    /// the submission enters the pipeline, so no completion is missed.
    std::function<void(const Result<ResultSet>&)> completion_observer;
    /// Per-query span trace threaded through the pipeline (may be null;
    /// see QueryRuntime::trace).
    std::shared_ptr<obs::QueryTrace> trace;
    /// Stage-span label prefix for this runtime ("s2/" on shard 2 of a
    /// sharded operator; empty otherwise).
    std::string trace_prefix;
  };

  /// Registers a star query (normalizing it first). With all
  /// max_concurrent_queries ids taken, waits at most the options' id
  /// grace, then returns kResourceExhausted; returns kAborted once the
  /// operator is stopping. Thread-safe.
  Result<std::unique_ptr<QueryHandle>> Submit(StarQuerySpec spec,
                                              SubmitOptions options);
  Result<std::unique_ptr<QueryHandle>> Submit(
      StarQuerySpec spec, AggregatorFactory aggregator_factory = nullptr) {
    SubmitOptions so;
    so.aggregator_factory = std::move(aggregator_factory);
    return Submit(std::move(spec), std::move(so));
  }

  /// Point-in-time statistics.
  struct Stats {
    uint64_t rows_scanned = 0;
    uint64_t rows_skipped_at_preprocessor = 0;
    uint64_t tuples_routed = 0;
    uint64_t queries_completed = 0;
    uint64_t queries_cancelled = 0;
    uint64_t table_laps = 0;
    size_t active_queries = 0;
    /// Column blocks held by in-flight batches.
    size_t blocks_in_use = 0;
    /// Bit-vector ids not on the freelist (read under id_mu_).
    size_t query_ids_in_use = 0;
    /// Runtimes in the operator's registry (read under registry_mu_).
    size_t runtimes_registered = 0;
    uint64_t filter_reorders = 0;
    /// Current filter order (dimension indices) of the first stage.
    std::vector<size_t> filter_order;
    /// Per-dimension hash table sizes.
    std::vector<size_t> dim_table_sizes;
    /// Per-dimension filter statistics (since the last decay window).
    std::vector<uint64_t> filter_tuples_in;
    std::vector<uint64_t> filter_tuples_dropped;
    /// Liveness diagnostics.
    uint64_t manager_iterations = 0;
    size_t submissions_pending = 0;
    size_t admissions_pending = 0;
    size_t cleanups_pending = 0;
    /// Inter-stage queue telemetry: queue i feeds stage i, the last
    /// queue feeds the Distributor. Depths are point samples; high
    /// watermarks are since the previous GetStats (reset-on-read).
    std::vector<size_t> queue_depths;
    std::vector<size_t> queue_high_watermarks;
    size_t queue_capacity = 0;
    /// Batches processed per stage (monotonic progress counters — the
    /// watchdog's stall signal).
    std::vector<uint64_t> stage_batches;
  };
  Stats GetStats() const;

  /// Queries submitted but not yet cleaned up (any lifecycle stage). The
  /// router samples this as the operator's current load (§3.2.3).
  size_t InFlight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  const StarSchema& star() const { return star_; }
  size_t width_words() const { return width_; }

  /// Newest snapshot whose rows the continuous scan fully covers; callers
  /// capping query snapshots at this value get exact snapshot semantics
  /// under concurrent appends (kMaxSnapshot without a snapshot_probe).
  SnapshotId covered_snapshot() const {
    return preprocessor_->covered_snapshot();
  }

 private:
  /// The Pipeline Manager thread. Each iteration drains everything
  /// pending: every queued cleanup into one CleanupQueries call, then
  /// every queued submission into one AdmitQueries call. The batch is
  /// whatever is queued; query ids bound it at max_concurrent_queries.
  void ManagerLoop();
  /// Algorithm 1 for a batch of submissions (minus the Preprocessor
  /// installation, which the Preprocessor itself performs on
  /// RequestAdmission). Queries cancelled or expired while queued are
  /// resolved one by one. For the rest, each dimension gets one masked
  /// complement update, and each referenced dimension one table scan
  /// (every row tested against every batch query at that query's own
  /// snapshot) and one InsertOrMerge call. Queries then go to the
  /// Preprocessor in pop order.
  void AdmitQueries(const std::vector<std::shared_ptr<QueryRuntime>>& batch);
  /// Algorithm 2 for a batch of finished queries: one complement update
  /// and one RemoveDeadEntries pass per dimension (which also clears the
  /// finished ids' entry bits), then one id release for the batch.
  void CleanupQueries(const std::vector<uint32_t>& qids);
  void MaybeReorderFilters();

  /// Takes the smallest free id, waiting at most `grace_ns` (0 = not at
  /// all); UINT32_MAX when none freed in time or the operator stopped.
  uint32_t ClaimQueryId(int64_t grace_ns) EXCLUDES(id_mu_);
  /// Returns `n` ids to the freelist under one id_mu_ hold.
  void ReleaseQueryIds(const uint32_t* ids, size_t n) EXCLUDES(id_mu_);

  const StarSchema& star_;
  Options opts_;
  const size_t width_;
  const size_t num_dims_;

  // Pipeline plumbing. The free list is declared first so it outlives
  // every batch, whichever component destroys it.
  std::unique_ptr<BlockFreeList> blocks_;
  std::unique_ptr<EpochTracker> epochs_;
  std::vector<std::unique_ptr<BatchQueue>> queues_;
  std::vector<std::unique_ptr<Filter>> filters_;  // one per dimension
  std::vector<std::unique_ptr<Stage>> stages_;
  std::unique_ptr<Preprocessor> preprocessor_;
  std::unique_ptr<Distributor> distributor_;
  std::unique_ptr<CleanupQueue> cleanup_queue_;

  // Manager state.
  BoundedQueue<std::shared_ptr<QueryRuntime>> submissions_{1024};
  std::atomic<size_t> inflight_{0};
  /// Queries cancelled/expired before admission (the Distributor only
  /// counts mid-lap deregistrations).
  std::atomic<uint64_t> early_cancelled_{0};
  uint64_t manager_active_mask_[kMaxWidthWords] = {};
  std::atomic<uint64_t> reorders_{0};
  std::atomic<uint64_t> manager_iterations_{0};

  // Query id freelist.
  mutable Mutex id_mu_;
  CondVar id_available_;
  std::vector<uint32_t> free_ids_ GUARDED_BY(id_mu_);

  /// Keeps runtimes alive while raw pointers travel through the pipeline.
  mutable Mutex registry_mu_;
  std::vector<std::shared_ptr<QueryRuntime>> registry_
      GUARDED_BY(registry_mu_);

  std::thread preprocessor_thread_;
  std::thread distributor_thread_;
  std::thread manager_thread_;
  /// Set once by Stop(); Submit() reads it from any thread.
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_CJOIN_OPERATOR_H_
