// Per-query runtime state shared across the pipeline components.

#ifndef CJOIN_CJOIN_QUERY_RUNTIME_H_
#define CJOIN_CJOIN_QUERY_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>

#include "catalog/query_spec.h"
#include "common/status.h"
#include "exec/aggregation.h"
#include "exec/result_set.h"
#include "obs/query_trace.h"

namespace cjoin {

/// Factory for per-query aggregation operators. The operator-wide default
/// is hash aggregation; individual queries may override it (e.g. the
/// galaxy join collects raw joined tuples instead of aggregating, §5).
using AggregatorFactory =
    std::function<std::unique_ptr<StarAggregator>(const StarQuerySpec&)>;

/// Lifecycle of a query inside the CJOIN operator.
enum class QueryPhase : int {
  kSubmitted = 0,   ///< handed to the Pipeline Manager
  kLoading = 1,     ///< dimension hash tables being updated (Algorithm 1)
  kRegistered = 2,  ///< query-start control tuple emitted; filtering live
  kCompleted = 3,   ///< results delivered
  kAborted = 4,     ///< operator shut down before completion
  kCancelled = 5,   ///< terminated early (Cancel() or deadline expiry)
};

/// Why a query was terminated before its natural completion checkpoint.
enum class TerminalReason : int {
  kNone = 0,
  kCancelled = 1,
  kDeadline = 2,
};

/// All state of one in-flight query. Created by Submit(); owned jointly by
/// the operator and the caller's QueryHandle.
struct QueryRuntime {
  uint32_t query_id = 0;
  StarQuerySpec spec;  ///< normalized

  /// Aggregation operator; created by the Pipeline Manager during
  /// admission, consumed by the Distributor thread exclusively between
  /// the query-start and query-end control tuples.
  std::unique_ptr<StarAggregator> aggregator;

  /// Per-query override of the operator's aggregator factory (optional).
  AggregatorFactory custom_aggregator_factory;

  std::promise<Result<ResultSet>> promise;
  std::atomic<QueryPhase> phase{QueryPhase::kSubmitted};

  /// Optional hook invoked with the query's terminal result immediately
  /// before the promise resolves, on whichever pipeline thread terminates
  /// the query (Distributor, Pipeline Manager, or Stop()). Installed at
  /// submission via SubmitOptions; the sharded operator uses it to collect
  /// per-shard completions without dedicating a waiter thread per query.
  std::function<void(const Result<ResultSet>&)> completion_observer;

  /// Optional cancellation fan-out invoked by QueryHandle::Cancel() after
  /// cancel_requested is set. The sharded operator's merge handle forwards
  /// the cancel to every shard's sub-query through this hook. Must be
  /// installed before the handle is exposed to callers.
  std::function<void()> cancel_hook;

  /// Resolves the promise with `result`, notifying the completion observer
  /// first so any cross-query bookkeeping is recorded before a waiter can
  /// observe the result. Each runtime is delivered exactly once (callers
  /// coordinate via phase, as before).
  ///
  /// The observer is moved out and destroyed after its single invocation:
  /// the engine's observer owns the query's Completion, which owns the
  /// handle that owns this runtime, so a retained observer would close a
  /// shared_ptr cycle and leak every CJOIN query. cancel_hook is
  /// deliberately NOT cleared here: QueryHandle::Cancel() may read it
  /// concurrently with delivery, and it only ever captures downstream
  /// (shard-side) state.
  void Deliver(Result<ResultSet> result) {
    if (completion_observer) {
      auto observer = std::move(completion_observer);
      completion_observer = nullptr;
      observer(result);
    }
    promise.set_value(std::move(result));
  }

  /// Cooperative cancellation: set by QueryHandle::Cancel(), observed by
  /// the Pipeline Manager (pre-admission) and the Preprocessor (while
  /// registered). A cancelled query is deregistered mid-lap — its
  /// query-end control tuple is emitted at the current stream position —
  /// and its bit-vector slot is reclaimed for reuse by Algorithm 2.
  std::atomic<bool> cancel_requested{false};

  /// Absolute deadline (steady-clock nanos; 0 = none). A query past its
  /// deadline is deregistered the same way and completes with
  /// kDeadlineExceeded.
  std::atomic<int64_t> deadline_ns{0};

  /// Set (by whichever component deregisters the query early) before the
  /// query-end control tuple is emitted; read by the Distributor to pick
  /// the terminal status delivered to the caller.
  std::atomic<TerminalReason> terminal{TerminalReason::kNone};

  /// True once this runtime is past its deadline (no deadline = false).
  bool DeadlinePassed(int64_t now_ns) const {
    const int64_t dl = deadline_ns.load(std::memory_order_relaxed);
    return dl != 0 && now_ns >= dl;
  }

  // Timing (steady-clock nanos) for the paper's submission/response-time
  // metrics (§6.2.2 Table 1: submission time = Submit() until the
  // query-start control tuple enters the pipeline).
  std::atomic<int64_t> submit_ns{0};
  std::atomic<int64_t> registered_ns{0};
  std::atomic<int64_t> completed_ns{0};

  /// Per-query span trace (may be null). Pipeline components append
  /// spans through it: the preprocessor/stages/distributor stamp
  /// `stage:` spans as the query's own control tuples pass them.
  std::shared_ptr<obs::QueryTrace> trace;
  /// Prefix for this runtime's stage span labels ("s2/" on shard 2 of a
  /// sharded operator; empty for the unsharded pipeline). Set before
  /// submission, read-only afterwards.
  std::string trace_prefix;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// Caller-facing handle to a submitted query.
class QueryHandle {
 public:
  QueryHandle(std::shared_ptr<QueryRuntime> rt,
              std::future<Result<ResultSet>> fut)
      : runtime_(std::move(rt)), future_(std::move(fut)) {}

  uint32_t query_id() const { return runtime_->query_id; }
  const std::string& label() const { return runtime_->spec.label; }
  /// The snapshot this query actually reads (after any engine capping).
  SnapshotId snapshot() const { return runtime_->spec.snapshot; }

  /// Blocks until the result is available.
  Result<ResultSet> Wait() { return future_.get(); }

  /// Requests cooperative cancellation. Non-blocking; the query is
  /// deregistered mid-lap by the pipeline and Wait() then returns a
  /// kCancelled status. Safe to call at any time, including after
  /// completion (no-op) and concurrently with the pipeline.
  void Cancel() {
    runtime_->cancel_requested.store(true, std::memory_order_release);
    if (runtime_->cancel_hook) runtime_->cancel_hook();
  }

  bool Ready() const {
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Seconds from Submit() to query-start control tuple insertion
  /// (valid once the query is registered; 0 before).
  double SubmissionSeconds() const {
    const int64_t reg = runtime_->registered_ns.load();
    const int64_t sub = runtime_->submit_ns.load();
    return reg > sub ? static_cast<double>(reg - sub) * 1e-9 : 0.0;
  }

  /// Seconds from Submit() to result delivery (valid once completed).
  double ResponseSeconds() const {
    const int64_t done = runtime_->completed_ns.load();
    const int64_t sub = runtime_->submit_ns.load();
    return done > sub ? static_cast<double>(done - sub) * 1e-9 : 0.0;
  }

  QueryPhase phase() const { return runtime_->phase.load(); }

 private:
  std::shared_ptr<QueryRuntime> runtime_;
  std::future<Result<ResultSet>> future_;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_QUERY_RUNTIME_H_
