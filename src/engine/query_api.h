// The unified asynchronous query API.
//
// QueryEngine::Execute(QueryRequest) is the single submission path for
// every query: structured StarQuerySpec or SQL text, routed to the shared
// CJOIN pipeline or the conventional query-at-a-time executor (by policy
// or by the §3.2.3 cost-based Router), with optional deadline and
// priority. Every path returns the same non-blocking QueryTicket:
//
//   QueryRequest req = QueryRequest::Sql("ssb", "SELECT ...");
//   req.timeout = std::chrono::seconds(5);
//   auto ticket = engine.Execute(std::move(req));
//   ... ticket->Cancel();                 // cooperative, any time
//   Result<ResultSet> rs = ticket->Wait();  // kCancelled / kDeadlineExceeded
//                                           // on early termination

#ifndef CJOIN_ENGINE_QUERY_API_H_
#define CJOIN_ENGINE_QUERY_API_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "baseline/qat_engine.h"
#include "catalog/query_spec.h"
#include "cjoin/query_runtime.h"
#include "common/mutex.h"
#include "engine/router.h"
#include "obs/query_trace.h"

namespace cjoin {

/// One query submission: what to run, where it may run, and its SLOs.
struct QueryRequest {
  /// Structured form; used when `spec.schema != nullptr`.
  StarQuerySpec spec;

  /// SQL form: `sql` parsed against the star registered as `star`; used
  /// when no structured spec is given.
  std::string star;
  std::string sql;

  /// Routing policy (§3.2.3): kAuto consults the cost-based Router.
  RoutePolicy policy = RoutePolicy::kAuto;

  /// Owning tenant for admission control and weighted-fair scheduling
  /// (empty = the "default" tenant). Quotas are keyed by this id; an
  /// over-quota submission's ticket resolves with kResourceExhausted
  /// instead of blocking.
  std::string tenant;

  /// Relative deadline from Execute() (zero = none). Expired queries are
  /// deregistered cooperatively and complete with kDeadlineExceeded.
  std::chrono::nanoseconds timeout{0};
  /// Absolute deadline, steady-clock nanos (0 = none); wins over timeout.
  int64_t deadline_ns = 0;

  /// Scheduling priority for the baseline worker pool (higher first).
  int priority = 0;

  /// Overrides the spec's / synthesized label when non-empty.
  std::string label;

  /// Per-request executor knobs for the baseline path (defaults to the
  /// engine's QatOptions); used by the bench harness to model the
  /// different comparison systems.
  std::optional<QatOptions> baseline_options;

  /// Per-query aggregator override on the CJOIN path (forces kCJoin);
  /// internal — used by the galaxy join (§5) to collect joined tuples.
  AggregatorFactory aggregator_factory;

  static QueryRequest FromSpec(StarQuerySpec s) {
    QueryRequest r;
    r.spec = std::move(s);
    return r;
  }
  static QueryRequest Sql(std::string star_name, std::string sql_text) {
    QueryRequest r;
    r.star = std::move(star_name);
    r.sql = std::move(sql_text);
    return r;
  }
};

/// One query's completion, whichever path serves it.
///
/// Execute() creates one per query before anything else, so every path —
/// shed at the admission gate, expired before submission, parked in the
/// admission wait queue, registered in a CJOIN pipeline pool, queued on
/// the baseline worker pool — finishes, gives back its resources and is
/// timed the same way. Whatever ends the query resolves the Completion:
/// Finish() for a backend's terminal result, Reject() for a query no
/// backend accepted. The first resolution wins; it stamps the done time
/// and runs the engine's finalizer (admission slot return, completion
/// metrics, route calibration) before any waiter wakes, so a caller
/// unblocked by Wait() can resubmit into the slot its query just freed.
///
/// Cancel() goes through the hook bound at the time: the admission
/// waiter's while the query is parked, then the backend's (the CJOIN
/// handle, or the baseline job's flag). A cancel that arrives before the
/// backend binds is remembered and fired at binding. Resolution drops the
/// hook, which also breaks the baseline job <-> completion cycle.
class Completion {
 public:
  /// Runs once, on the resolving thread, before any waiter wakes — for
  /// queries that hold an admission slot or reached a backend (any other
  /// query owes the engine nothing, and may resolve after it is gone: a
  /// wait-queue cancel racing engine teardown).
  using Finalizer =
      std::function<void(const Completion&, const Result<ResultSet>&)>;

  Completion();

  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  // Identity and accounting inputs: set by Execute() before the
  // completion is shared with the admission gate or a backend, read-only
  // afterwards.
  std::string label;
  std::string tenant;
  RouteChoice route = RouteChoice::kCJoin;
  /// Predicted work units of a kAuto decision (0 when the route was
  /// forced): a successful completion feeds them to the route calibrator.
  double work_units = 0.0;
  std::shared_ptr<obs::QueryTrace> trace;
  Finalizer finalizer;
  /// Steady-clock nanos at Execute(): every timing below starts here.
  const int64_t submit_ns;

  /// Records that the query holds an admission slot (admitted, or granted
  /// from the wait queue). Called before the query reaches a backend.
  void HoldSlot() { slot_held_.store(true, std::memory_order_release); }
  bool slot_held() const { return slot_held_.load(std::memory_order_acquire); }

  /// Stamps entry into a queue — the admission wait queue or the
  /// baseline pool — which the queue's trace span starts from.
  void MarkQueueStart(int64_t ns) {
    queue_start_ns_.store(ns, std::memory_order_relaxed);
  }
  int64_t queue_start_ns() const {
    return queue_start_ns_.load(std::memory_order_relaxed);
  }
  /// Stamps the end of queueing: the hand-off to the CJOIN pipeline
  /// (after any wait-queue residence) or the baseline worker start.
  void MarkQueueEnd(int64_t ns) {
    queue_end_ns_.store(ns, std::memory_order_relaxed);
  }
  int64_t queue_end_ns() const {
    return queue_end_ns_.load(std::memory_order_relaxed);
  }
  int64_t done_ns() const { return done_ns_.load(std::memory_order_acquire); }

  /// Binds the admission waiter's cancel hook — unless the grant already
  /// fired (a backend is bound, or the query resolved).
  void BindWaiter(std::function<void()> cancel) EXCLUDES(mu_);
  /// Binds the backend's cancel hook, replacing the waiter's; fires it
  /// at once if a cancel came first. Dropped if the query already
  /// resolved.
  void BindBackend(std::function<void()> cancel) EXCLUDES(mu_);
  /// Takes ownership of the CJOIN handle: records its query id and the
  /// snapshot it reads, and binds its Cancel() as the backend hook.
  void BindHandle(std::unique_ptr<QueryHandle> handle) EXCLUDES(mu_);

  /// Cooperative cancellation (non-blocking, idempotent, safe after
  /// completion).
  void Cancel() EXCLUDES(mu_);

  /// Resolves with a backend's terminal result; a no-op once resolved.
  void Finish(Result<ResultSet> result) EXCLUDES(mu_) {
    Resolve(std::move(result), /*reached_backend=*/true);
  }
  /// Resolves a query that no backend accepted; a no-op once resolved.
  void Reject(Status status) EXCLUDES(mu_) {
    Resolve(std::move(status), /*reached_backend=*/false);
  }
  /// Whether the winning resolution came from a backend (valid once
  /// resolved; the finalizer reads it).
  bool reached_backend() const {
    return reached_backend_.load(std::memory_order_acquire);
  }

  /// Blocks until resolved. Single-shot.
  Result<ResultSet> Wait() { return future_.get(); }
  /// True once Wait() would not block (and still after Wait()).
  bool Ready() const { return ready_.load(std::memory_order_acquire); }

  /// The snapshot the query reads: the request's, until a CJOIN binding
  /// reports the (possibly capped) snapshot actually read.
  SnapshotId snapshot() const {
    return snapshot_.load(std::memory_order_relaxed);
  }
  void set_snapshot(SnapshotId snapshot) {
    snapshot_.store(snapshot, std::memory_order_relaxed);
  }
  /// CJOIN bit-vector slot once bound; UINT32_MAX otherwise.
  uint32_t query_id() const {
    return query_id_.load(std::memory_order_relaxed);
  }

  /// Seconds from Execute() to resolution (0 until resolved).
  double ResponseSeconds() const;
  /// CJOIN: seconds from Execute() to pipeline registration — queueing
  /// up to the pipeline hand-off plus the pipeline's own submission time
  /// (0 until registered, and on baseline).
  double SubmissionSeconds() const EXCLUDES(mu_);

 private:
  void Resolve(Result<ResultSet> result, bool reached_backend) EXCLUDES(mu_);

  mutable Mutex mu_;
  std::function<void()> cancel_hook_ GUARDED_BY(mu_);
  bool cancel_requested_ GUARDED_BY(mu_) = false;
  bool backend_bound_ GUARDED_BY(mu_) = false;
  std::unique_ptr<QueryHandle> handle_ GUARDED_BY(mu_);

  /// Claimed by the winning resolution, before its finalizer runs.
  std::atomic<bool> resolved_{false};
  /// Set once the result is visible to Wait().
  std::atomic<bool> ready_{false};
  std::atomic<bool> reached_backend_{false};
  std::atomic<bool> slot_held_{false};
  std::atomic<int64_t> queue_start_ns_{0};
  std::atomic<int64_t> queue_end_ns_{0};
  std::atomic<int64_t> done_ns_{0};
  std::atomic<SnapshotId> snapshot_{0};
  std::atomic<uint32_t> query_id_{UINT32_MAX};
  std::promise<Result<ResultSet>> promise_;
  std::future<Result<ResultSet>> future_;
};

/// Uniform non-blocking handle to a query executing on either engine: a
/// view of its Completion plus the routing decision.
class QueryTicket {
 public:
  QueryTicket(RouteDecision decision, std::shared_ptr<Completion> completion)
      : decision_(std::move(decision)),
        completion_(std::move(completion)),
        trace_(completion_->trace) {}

  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  /// The engine this query was routed to.
  RouteChoice route() const { return decision_.choice; }
  /// The routing decision with its cost-model evidence.
  const RouteDecision& decision() const { return decision_; }

  const std::string& label() const { return completion_->label; }

  /// The snapshot this query actually reads (after any engine capping).
  SnapshotId snapshot() const { return completion_->snapshot(); }

  /// Blocks until the result is available. Cancelled queries yield
  /// kCancelled, deadline-expired ones kDeadlineExceeded. Single-shot.
  Result<ResultSet> Wait() { return completion_->Wait(); }

  /// True once Wait() would not block.
  bool Ready() const { return completion_->Ready(); }

  /// Requests cooperative cancellation (non-blocking, idempotent, safe
  /// after completion). The query's resources — including its CJOIN
  /// bit-vector slot — are reclaimed by the owning engine.
  void Cancel() { completion_->Cancel(); }

  /// Seconds from Execute() to result delivery (0 until completed).
  double ResponseSeconds() const { return completion_->ResponseSeconds(); }
  /// CJOIN only: seconds from Execute() to pipeline registration,
  /// including any admission wait-queue residence.
  double SubmissionSeconds() const {
    return completion_->SubmissionSeconds();
  }

  /// CJOIN only: the query id / bit-vector slot (UINT32_MAX on baseline
  /// and before a parked query is granted).
  uint32_t query_id() const { return completion_->query_id(); }

  /// The per-query span trace (nullptr when metrics are disabled or the
  /// request predates tracing). Populated incrementally while the query
  /// runs; complete — admission, route, stages, merge — once Wait()
  /// returns. See QueryTrace::Render() for the EXPLAIN ANALYZE-style
  /// text form. Mutable so serving layers can append their own spans
  /// (net streaming) before rendering.
  const std::shared_ptr<obs::QueryTrace>& trace() const { return trace_; }
  void set_trace(std::shared_ptr<obs::QueryTrace> trace) {
    trace_ = std::move(trace);
  }

 private:
  RouteDecision decision_;
  std::shared_ptr<Completion> completion_;
  std::shared_ptr<obs::QueryTrace> trace_;
};

}  // namespace cjoin

#endif  // CJOIN_ENGINE_QUERY_API_H_
