// The Preprocessor (paper §3.1, §3.2.2, §3.3).
//
// Consumes the continuous scan and turns raw fact rows into in-flight
// tuples, appended in place to the rows of a column block (tuple_slot.h):
// it initializes each tuple's bit-vector from the per-query fact-table
// predicates (c_i0), the query's snapshot (§3.5: the snapshot association
// is "a virtual fact table predicate ... evaluated by the Preprocessor
// over the concurrency control information of each fact tuple"), and the
// query's partition set (§5). Tuples relevant to no query are dropped
// before entering the pipeline. A full block leaves as one data batch;
// this thread is the block free list's single consumer.
//
// It also owns query registration/finalization within the stream:
// admission requests prepared by the Pipeline Manager (Algorithm 1, run
// for a whole batch of submissions at once and handed over in pop order)
// are installed between scan events — the message handoff provides the
// "stall" of Algorithm 1 line 17 without parking threads — and per-query
// completion checkpoints detect when the scan has wrapped around the
// query's start position (§3.3.2), emitting query-start / query-end
// control tuples at exact stream positions.

#ifndef CJOIN_CJOIN_PREPROCESSOR_H_
#define CJOIN_CJOIN_PREPROCESSOR_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "catalog/star_schema.h"
#include "cjoin/epoch_tracker.h"
#include "cjoin/query_runtime.h"
#include "cjoin/tuple_slot.h"
#include "common/queue.h"
#include "obs/metrics.h"
#include "storage/continuous_scan.h"

namespace cjoin {

/// Maximum supported bit-vector width (16 words = 1024 concurrent
/// queries; the paper's maxConc).
inline constexpr size_t kMaxWidthWords = 16;

class Preprocessor {
 public:
  struct Options {
    size_t batch_size = 256;       ///< data tuples per TupleBatch
    size_t scan_run_rows = 1024;   ///< rows per ContinuousScan run
    SimDisk* disk = nullptr;
    uint64_t reader_id = 0;
    /// Optional probe returning the engine's current snapshot. Sampled
    /// before each lap freeze so covered_snapshot() names the newest
    /// snapshot whose rows are guaranteed inside the frozen scan ranges.
    std::function<SnapshotId()> snapshot_probe;
    /// Flight-recorder label for the scan thread's lap-boundary events
    /// ("s2/scan" on shard 2 of a sharded pool).
    std::string flight_label = "scan";
  };

  /// Scans `slice` of star.fact().
  Preprocessor(const StarSchema& star, size_t width_words,
               BlockFreeList* blocks, EpochTracker* epochs, BatchQueue* out,
               Options options, ScanSlice slice);

  /// Queues a fully-loaded query for installation (Pipeline Manager
  /// thread; Algorithm 1's final step, called for each query of an
  /// admitted batch once the whole batch is loaded). Thread-safe.
  void RequestAdmission(std::shared_ptr<QueryRuntime> runtime);

  /// Thread body. Returns when `stop` becomes true (or the output queue
  /// closes). Closes the output queue on exit.
  void Run(const std::atomic<bool>& stop);

  /// Total fact rows scanned (all laps).
  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }
  /// Rows dropped before pipeline entry (irrelevant to every query).
  uint64_t rows_skipped() const {
    return rows_skipped_.load(std::memory_order_relaxed);
  }
  /// Number of active (registered, not yet finished) queries.
  size_t active_queries() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  uint64_t table_laps() const {
    return laps_done_.load(std::memory_order_relaxed);
  }
  /// Admission requests queued but not yet installed (diagnostics).
  size_t admissions_pending() const { return admissions_.size(); }

  /// Newest snapshot fully covered by the scan's frozen ranges: a query
  /// reading at most this snapshot sees every row its snapshot includes.
  /// kMaxSnapshot when no probe is configured (append visibility then
  /// lags commits by up to one scan lap).
  SnapshotId covered_snapshot() const {
    return covered_snapshot_.load(std::memory_order_acquire);
  }

 private:
  /// Per-registered-query bookkeeping.
  struct ActiveQuery {
    std::shared_ptr<QueryRuntime> runtime;
    // Completion checkpoint (paper §3.3.2): either "revisit
    // index X of partition P in pass L" or "end of pass L of partition P".
    enum class CkKind { kRevisitIndex, kPassEnd, kImmediate };
    CkKind ck_kind = CkKind::kImmediate;
    uint32_t ck_partition = 0;
    uint64_t ck_lap = 0;
    uint64_t ck_index = 0;

    bool has_fact_pred = false;
    SnapshotId snapshot = kReadLatestSnapshot;
  };

  void HandleAdmissions();
  void InstallQuery(std::shared_ptr<QueryRuntime> runtime);
  void FinalizeQuery(uint32_t qid);
  /// Deregisters queries whose Cancel() flag is set or whose deadline has
  /// passed: their query-end control tuple is emitted at the current
  /// stream position (mid-lap), after which Algorithm 2 reclaims their
  /// bit-vector slot exactly as for a naturally completed query.
  void PollInterrupts();
  /// Computes the completion checkpoint for a query registered at the
  /// current scan position.
  void ComputeCheckpoint(const std::vector<uint32_t>& partitions,
                         ActiveQuery* aq) const;

  void ProcessRows(const ScanEvent& ev);
  void ProcessRowRange(const ScanEvent& ev, size_t from, size_t to);
  void HandlePassEnd(const ScanEvent& ev);

  void FlushBatch();
  void EmitControl(BatchKind kind, QueryRuntime* runtime);

  const StarSchema& star_;
  const size_t width_;
  const size_t num_dims_;
  BlockFreeList* blocks_;
  EpochTracker* epochs_;
  BatchQueue* out_;
  Options opts_;

  ContinuousScan scan_;

  // Admission mailbox (manager -> preprocessor).
  BoundedQueue<std::shared_ptr<QueryRuntime>> admissions_;

  // --- Stream-thread-only state -------------------------------------------
  std::vector<std::unique_ptr<ActiveQuery>> active_;  // by query id
  uint64_t active_mask_[kMaxWidthWords] = {};
  /// Per-partition mask of queries allowed to see that partition.
  std::vector<std::array<uint64_t, kMaxWidthWords>> partition_mask_;
  /// Queries with snapshots to check on non-trivially-versioned rows.
  std::vector<std::pair<uint32_t, SnapshotId>> snapshot_checks_;
  /// Queries with fact-table predicates.
  struct FactPred {
    uint32_t qid;
    const Expr* pred;
  };
  std::vector<FactPred> fact_preds_;

  uint64_t cur_epoch_ = 0;
  /// The block being filled (null until a tuple needs it).
  BlockPtr block_;

  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_skipped_{0};
  std::atomic<size_t> active_count_{0};
  std::atomic<uint64_t> laps_done_{0};
  std::atomic<SnapshotId> covered_snapshot_{kMaxSnapshot};

  /// Engine-wide telemetry (registered in the constructor; lock-free).
  obs::Counter* obs_rows_scanned_ = nullptr;
  obs::Counter* obs_installed_ = nullptr;
  obs::Gauge* obs_active_ = nullptr;
  /// Fires when a completion checkpoint is discovered past its exact
  /// stream position (the defensive branch in ProcessRows).
  obs::Counter* obs_ck_misses_ = nullptr;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_PREPROCESSOR_H_
