#include "engine/query_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <thread>

#include "exec/group_table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace cjoin {

namespace {

/// Reads a ColumnSource value given a fact row and attached dim rows.
Value ReadSource(const StarSchema& star, const ColumnSource& src,
                 const uint8_t* fact_row, const uint8_t* const* dim_rows) {
  const Schema* schema;
  const uint8_t* row;
  if (src.from == ColumnSource::From::kFact) {
    schema = &star.fact().schema();
    row = fact_row;
  } else {
    schema = &star.dimension(src.dim_index).table->schema();
    row = dim_rows[src.dim_index];
  }
  if (row == nullptr) return Value();
  const Column& c = schema->column(src.column);
  switch (c.type) {
    case DataType::kInt32:
      return Value(static_cast<int64_t>(schema->GetInt32(row, src.column)));
    case DataType::kInt64:
      return Value(schema->GetInt64(row, src.column));
    case DataType::kDouble:
      return Value(schema->GetDouble(row, src.column));
    case DataType::kChar:
      return Value(schema->GetChar(row, src.column));
  }
  return Value();
}

/// Rows collected from one side of a galaxy join: the fact-to-fact join
/// key plus the projected output values.
struct CollectedSide {
  std::vector<int64_t> keys;
  std::vector<std::vector<Value>> values;
};

/// Aggregator that materializes joined tuples instead of aggregating. On a
/// sharded pool the operator wraps it in a serializing proxy, so exactly
/// one thread writes at a time even with one instance shared by N
/// Distributors.
class CollectorAggregator final : public StarAggregator {
 public:
  CollectorAggregator(const StarSchema& star, size_t join_col,
                      std::vector<ColumnSource> projection,
                      CollectedSide* out)
      : star_(star),
        join_col_(join_col),
        projection_(std::move(projection)),
        out_(out) {}

  void Consume(const uint8_t* fact_row,
               const uint8_t* const* dim_rows) override {
    ++consumed_;
    out_->keys.push_back(
        star_.fact().schema().GetIntAny(fact_row, join_col_));
    std::vector<Value> vals;
    vals.reserve(projection_.size());
    for (const ColumnSource& src : projection_) {
      vals.push_back(ReadSource(star_, src, fact_row, dim_rows));
    }
    out_->values.push_back(std::move(vals));
  }

  ResultSet Finish() override {
    ResultSet rs;
    rs.tuples_consumed = consumed_;
    return rs;
  }

  uint64_t tuples_consumed() const override { return consumed_; }

 private:
  const StarSchema& star_;
  size_t join_col_;
  std::vector<ColumnSource> projection_;
  CollectedSide* out_;
  uint64_t consumed_ = 0;
};

/// True iff two star schemas describe the same star: same fact table and
/// positionally identical dimensions (dim_index-based specs bound
/// against one are valid against the other).
bool SchemasEquivalent(const StarSchema& a, const StarSchema& b) {
  if (&a.fact() != &b.fact()) return false;
  if (a.num_dimensions() != b.num_dimensions()) return false;
  for (size_t d = 0; d < a.num_dimensions(); ++d) {
    const DimensionDef& da = a.dimension(d);
    const DimensionDef& db = b.dimension(d);
    if (da.table != db.table || da.fact_fk_col != db.fact_fk_col ||
        da.dim_pk_col != db.dim_pk_col) {
      return false;
    }
  }
  return true;
}

/// Spacing of disk reader identities between stars, leaving room for one
/// identity per shard within a star's pool.
constexpr uint64_t kReaderIdStride = 64;

/// Admission is keyed by tenant id; requests without one share the
/// "default" tenant.
std::string TenantOrDefault(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

/// "admitted (within quota)" / "shed (tenant CJOIN slots)" — the form
/// RouteDecision::ToString and the shell surface.
std::string FormatAdmission(const AdmissionDecision& ad) {
  std::string out = AdmissionOutcomeName(ad.outcome);
  if (!ad.reason.empty()) out += " (" + ad.reason + ")";
  return out;
}

/// Registry label value for a route.
const char* RouteLabel(RouteChoice route) {
  return route == RouteChoice::kCJoin ? "cjoin" : "baseline";
}

}  // namespace

QueryEngine::QueryEngine(Options options)
    : opts_(std::move(options)),
      calibrator_(opts_.router.calibration),
      router_(opts_.router),
      slow_log_(opts_.slow_query_log_capacity) {
  router_.set_calibrator(&calibrator_);
  slow_threshold_ns_.store(opts_.slow_query_threshold.count(),
                           std::memory_order_relaxed);
  AdmissionController::Options aopts = opts_.admission;
  if (aopts.max_total_cjoin == 0) {
    // Bound engine-wide CJOIN registrations by the operator capacity, so
    // the bit-vector id freelist can never block a submitter (excess
    // load sheds with kResourceExhausted at the admission gate instead).
    aopts.max_total_cjoin = opts_.cjoin.max_concurrent_queries;
  }
  admission_ = std::make_shared<AdmissionController>(aopts);
  baseline_pool_ = std::make_unique<BaselinePool>(opts_.baseline_workers,
                                                  opts_.baseline_max_queued);
  if (opts_.watchdog_enabled) {
    watchdog_ = std::make_unique<obs::Watchdog>(opts_.watchdog);
    watchdog_->AddSampler(
        [this](std::vector<obs::Watchdog::StageSample>& stages,
               std::vector<obs::Watchdog::QueueSample>& queues) {
          SampleForWatchdog(stages, queues);
        });
    watchdog_->Start();
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::Shutdown() {
  {
    // Serialized with SetShardCount (which holds update_mu_ end to end):
    // once the flag is up, no new pool can be built and swapped in.
    MutexLock ulk(&update_mu_);
    if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  }
  // The watchdog samples the pools and the admission controller; stop it
  // before tearing either down.
  if (watchdog_ != nullptr) watchdog_->Stop();
  // Fail parked admission waiters first: their grants would otherwise
  // submit into pools that are about to stop.
  admission_->Shutdown();
  baseline_pool_->Shutdown();
  std::vector<std::shared_ptr<ShardedCJoinOperator>> pools;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (auto& entry : stars_) pools.push_back(entry->pool);
  }
  for (auto& pool : pools) {
    if (pool != nullptr) pool->Stop();
  }
}

bool QueryEngine::Shutdown(std::chrono::nanoseconds drain_timeout) {
  draining_.store(true, std::memory_order_release);
  // Every outstanding ticket is visible in the admission totals: CJOIN
  // registrations, baseline jobs in system (queued + running), and
  // parked wait-queue entries all release on their terminal paths, so
  // zero totals == no outstanding work.
  const int64_t deadline_ns = QueryRuntime::NowNs() + drain_timeout.count();
  bool drained = false;
  while (true) {
    const AdmissionController::Stats stats = admission_->GetStats();
    if (stats.total_cjoin_inflight == 0 &&
        stats.total_baseline_in_system == 0 && stats.total_waiting == 0) {
      drained = true;
      break;
    }
    if (QueryRuntime::NowNs() >= deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Shutdown();
  return drained;
}

Result<std::shared_ptr<ShardedCJoinOperator>> QueryEngine::MakePool(
    const StarSchema& star, size_t shards, uint64_t disk_reader_base) {
  ShardedCJoinOperator::Options sopts;
  sopts.op = opts_.cjoin;
  sopts.op.disk_reader_id = disk_reader_base;
  sopts.op.snapshot_probe = [this] {
    return snapshot_.load(std::memory_order_acquire);
  };
  auto pool = std::make_shared<ShardedCJoinOperator>(star, shards, sopts);
  CJOIN_RETURN_IF_ERROR(pool->Start());
  return pool;
}

Status QueryEngine::RegisterStar(std::string name, StarSchema star) {
  auto entry = std::make_unique<StarEntry>();
  entry->name = std::move(name);
  entry->star = std::make_unique<StarSchema>(std::move(star));
  // Duplicate check and insert under one exclusive section, so two
  // concurrent registrations of the same name cannot both succeed.
  WriterMutexLock lk(&ops_mu_);
  for (const auto& existing : stars_) {
    if (existing->name == entry->name) {
      return Status::AlreadyExists("star '" + entry->name +
                                   "' already registered");
    }
  }
  CJOIN_ASSIGN_OR_RETURN(
      entry->pool,
      MakePool(*entry->star,
               std::clamp<size_t>(opts_.cjoin_shards, 1, kReaderIdStride),
               stars_.size() * kReaderIdStride));
  stars_.push_back(std::move(entry));
  return Status::OK();
}

Result<const StarSchema*> QueryEngine::FindStar(
    std::string_view name) const {
  const StarEntry* entry = EntryByNameConst(name);
  if (entry == nullptr) {
    return Status::NotFound("no star named '" + std::string(name) + "'");
  }
  return const_cast<const StarSchema*>(entry->star.get());
}

const QueryEngine::StarEntry* QueryEngine::EntryByNameConst(
    std::string_view name) const {
  ReaderMutexLock lk(&ops_mu_);
  for (const auto& entry : stars_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Result<QueryEngine::StarEntry*> QueryEngine::EntryByName(
    std::string_view name) {
  ReaderMutexLock lk(&ops_mu_);
  for (auto& entry : stars_) {
    if (entry->name == name) return entry.get();
  }
  return Status::NotFound("no star named '" + std::string(name) + "'");
}

Result<QueryEngine::StarEntry*> QueryEngine::EntryFor(
    const StarSchema* schema) {
  ReaderMutexLock lk(&ops_mu_);
  for (auto& entry : stars_) {
    if (entry->star.get() == schema) return entry.get();
  }
  // RegisterStar stores a copy of the caller's StarSchema, so accept any
  // structurally equivalent schema — same fact table AND positionally
  // identical dimensions, since specs carry dim_index references (specs
  // are routinely bound against the original); callers rebind
  // spec.schema to the registered instance before submission.
  for (auto& entry : stars_) {
    if (SchemasEquivalent(*entry->star, *schema)) return entry.get();
  }
  return Status::NotFound(
      "query's star schema is not registered (or differs structurally "
      "from the registered star over the same fact table)");
}

std::shared_ptr<ShardedCJoinOperator> QueryEngine::PoolFor(
    StarEntry* entry) const {
  ReaderMutexLock lk(&ops_mu_);
  return entry->pool;
}

RouteInputs QueryEngine::SampleRouteInputs(
    const ShardedCJoinOperator& pool, const std::string& tenant,
    AdmissionDecision* probe_cjoin,
    AdmissionDecision* probe_baseline) const {
  RouteInputs inputs;
  inputs.inflight = pool.InFlight();
  inputs.shards = pool.num_shards();
  inputs.baseline_queued = baseline_pool_->queued();
  inputs.baseline_workers = baseline_pool_->workers();
  admission_->SampleForRouting(tenant, &inputs, probe_cjoin,
                               probe_baseline);
  return inputs;
}

Status QueryEngine::SetShardCount(std::string_view star_name,
                                  size_t shards) {
  if (shards == 0) return Status::InvalidArgument("shard count must be >= 1");
  if (shards > kReaderIdStride) {
    // Each star's pool owns a block of kReaderIdStride disk-reader
    // identities; more shards would collide with the next star's scans
    // on a shared SimDisk.
    return Status::InvalidArgument("shard count must be <= " +
                                   std::to_string(kReaderIdStride));
  }
  // Held only to serialize with Shutdown (and other re-shards): the
  // shutdown check lives under the same lock, so a pool can never be
  // built and started after Shutdown swept the existing ones. Writers
  // need no exclusion: the new pool scans the same table they write.
  MutexLock ulk(&update_mu_);
  if (shut_down_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine shut down");
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  uint64_t reader_base = 0;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (size_t i = 0; i < stars_.size(); ++i) {
      if (stars_[i].get() == entry) reader_base = i * kReaderIdStride;
    }
  }
  // Start the replacement pipelines first; swap, then stop the old pool
  // (its in-flight CJOIN queries resolve with kAborted). Concurrent
  // Execute() calls hold the pool by shared_ptr, so the old operator
  // stays alive until the last ticket lets go.
  CJOIN_ASSIGN_OR_RETURN(std::shared_ptr<ShardedCJoinOperator> fresh,
                         MakePool(*entry->star, shards, reader_base));
  std::shared_ptr<ShardedCJoinOperator> old;
  {
    WriterMutexLock lk(&ops_mu_);
    old = std::move(entry->pool);
    entry->pool = std::move(fresh);
  }
  if (old != nullptr) old->Stop();
  // The shard count shifts the per-query timing regime (scan laps
  // shrink, pipeline threads multiply): age the calibrator's fits so
  // stale evidence stops steering decisions until fresh queries confirm.
  calibrator_.Decay();
  return Status::OK();
}

Result<size_t> QueryEngine::ShardCount(std::string_view star_name) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  return PoolFor(entry)->num_shards();
}

Result<QueryEngine::StarEntry*> QueryEngine::ResolveRequest(
    QueryRequest* request) {
  StarEntry* entry;
  if (request->spec.schema != nullptr) {
    CJOIN_ASSIGN_OR_RETURN(entry, EntryFor(request->spec.schema));
    request->spec.schema = entry->star.get();
  } else {
    CJOIN_ASSIGN_OR_RETURN(entry, EntryByName(request->star));
    CJOIN_ASSIGN_OR_RETURN(request->spec,
                           ParseStarQuery(*entry->star, request->sql));
  }
  CJOIN_ASSIGN_OR_RETURN(request->spec,
                         NormalizeSpec(std::move(request->spec)));
  if (!request->label.empty()) request->spec.label = request->label;
  if (request->spec.snapshot == kReadLatestSnapshot) {
    request->spec.snapshot = CurrentSnapshot();
  }
  return entry;
}

Result<std::unique_ptr<QueryTicket>> QueryEngine::Execute(
    QueryRequest request) {
  // The one object every outcome below resolves; its clock starts here.
  auto c = std::make_shared<Completion>();
  c->finalizer = [this](const Completion& done,
                        const Result<ResultSet>& result) {
    Finalize(done, result);
  };
  if (shut_down_) return Status::FailedPrecondition("engine shut down");
  RouteDecision decision;
  if (draining_.load(std::memory_order_acquire)) {
    // Graceful-shutdown shedding follows the uniform-ticket contract:
    // Execute() succeeds and the refusal resolves through the ticket,
    // so callers (and the wire protocol) see one error path.
    decision.reason = "draining";
    decision.admission = "shed (engine draining)";
    c->label = request.label;
    c->Reject(Status::Aborted("engine draining for shutdown"));
    return std::make_unique<QueryTicket>(std::move(decision), std::move(c));
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, ResolveRequest(&request));
  std::shared_ptr<ShardedCJoinOperator> pool = PoolFor(entry);
  c->tenant = TenantOrDefault(request.tenant);
  c->label = request.spec.label;
  c->set_snapshot(request.spec.snapshot);
  const std::string& tenant = c->tenant;

  // Always-on span trace (skipped entirely when metrics are disabled):
  // every layer this query crosses appends to it through the shared_ptr
  // threaded along the submission.
  if (obs::MetricsEnabled()) {
    c->trace = std::make_shared<obs::QueryTrace>();
    c->trace->set_tenant(tenant);
  }
  const std::shared_ptr<obs::QueryTrace>& trace = c->trace;

  int64_t deadline_ns = request.deadline_ns;
  if (deadline_ns == 0 && request.timeout.count() > 0) {
    deadline_ns = QueryRuntime::NowNs() + request.timeout.count();
  }

  // §3.2.3: the optimizer choice. A per-query aggregator override is
  // CJOIN machinery, so it forces that path.
  RoutePolicy policy = request.aggregator_factory != nullptr
                           ? RoutePolicy::kCJoin
                           : request.policy;
  switch (policy) {
    case RoutePolicy::kCJoin:
      decision.choice = RouteChoice::kCJoin;
      decision.forced = true;
      decision.reason = "policy";
      break;
    case RoutePolicy::kBaseline:
      decision.choice = RouteChoice::kBaseline;
      decision.forced = true;
      decision.reason = "policy";
      break;
    case RoutePolicy::kAuto: {
      const int64_t route0 = trace != nullptr ? obs::NowNs() : 0;
      decision =
          router_.Decide(request.spec, SampleRouteInputs(*pool, tenant));
      if (trace != nullptr) {
        trace->AddSpan(obs::SpanKind::kRoute, decision.explored
                                                  ? "explore"
                                                  : "decide",
                       route0, obs::NowNs());
      }
      break;
    }
  }
  decision.tenant = tenant;
  c->route = decision.choice;
  if (!decision.forced) {
    c->work_units = decision.choice == RouteChoice::kCJoin
                        ? decision.cjoin_work_units
                        : decision.baseline_work_units;
  }
  if (trace != nullptr) trace->set_route(RouteLabel(decision.choice));
  obs::RecordEvent(obs::EventKind::kRoute, RouteLabel(decision.choice));

  // Uniform-ticket contract: an already-expired deadline resolves through
  // the ticket (kDeadlineExceeded from Wait()) on BOTH routes — Execute()
  // itself only fails on malformed requests. No quota is consumed.
  if (deadline_ns != 0 && QueryRuntime::NowNs() >= deadline_ns) {
    c->Reject(Status::DeadlineExceeded("deadline expired before submission"));
    return std::make_unique<QueryTicket>(std::move(decision), std::move(c));
  }

  // Only CJOIN submissions may park. The grant closure (and its copy of
  // the spec) is built lazily, under the gate's lock, only if the verdict
  // is kQueued — the common admitted / shed paths never pay for it.
  AdmissionController::GrantFactory make_grant;
  if (decision.choice == RouteChoice::kCJoin) {
    make_grant = [&]() -> AdmissionController::GrantFn {
      c->MarkQueueStart(QueryRuntime::NowNs());
      return [this, entry, c, spec = request.spec,
              aggregator = request.aggregator_factory,
              deadline_ns](Status st) mutable {
        if (!st.ok()) {
          // Wait timed out / deadline expired / cancelled / shutdown: no
          // slot is held.
          c->Reject(std::move(st));
          return;
        }
        c->HoldSlot();
        if (c->trace != nullptr) {
          c->trace->AddSpan(obs::SpanKind::kWaitQueue, "",
                            c->queue_start_ns(), obs::NowNs());
        }
        // This submission runs on the controller's single service thread,
        // where every id grace wait head-of-line delays other grants and
        // waiter expiries — and the slot that granted us was released at
        // delivery, so its id is only a prompt pipeline cleanup away.
        // Keep the bridge short.
        (void)SubmitCJoin(entry, *PoolFor(entry), c, std::move(spec),
                          std::move(aggregator), deadline_ns,
                          /*id_grace_ns=*/50'000'000);
      };
    };
  }
  const int64_t adm0 = trace != nullptr ? obs::NowNs() : 0;
  const AdmissionDecision ad = admission_->TryAdmit(
      tenant, decision.choice, deadline_ns, std::move(make_grant));
  if (trace != nullptr) {
    trace->AddSpan(obs::SpanKind::kAdmission,
                   AdmissionOutcomeName(ad.outcome), adm0, obs::NowNs());
  }
  decision.admission = FormatAdmission(ad);
  switch (ad.outcome) {
    case AdmissionOutcome::kShed:
      c->Reject(ad.status);
      break;
    case AdmissionOutcome::kQueued:
      // The grant may already have fired, in which case the waiter is
      // gone and the binding is skipped. The weak capture covers a
      // Cancel() that runs after the engine — and the controller — are
      // gone.
      c->BindWaiter([weak = std::weak_ptr<AdmissionController>(admission_),
                     id = ad.waiter_id] {
        if (std::shared_ptr<AdmissionController> ctrl = weak.lock()) {
          ctrl->CancelWaiter(id);
        }
      });
      break;
    case AdmissionOutcome::kAdmitted: {
      c->HoldSlot();
      const Status st =
          decision.choice == RouteChoice::kCJoin
              ? SubmitCJoin(entry, *pool, c, std::move(request.spec),
                            std::move(request.aggregator_factory),
                            deadline_ns,
                            CJoinOperator::SubmitOptions{}.id_acquire_grace_ns)
              : SubmitBaseline(c, std::move(request), deadline_ns);
      if (st.code() == StatusCode::kResourceExhausted) {
        // The backend refused what the gate let through (pool queue cap,
        // query ids still taken): the caller experienced a shed.
        decision.admission = "shed (" + st.message() + ")";
      }
      break;
    }
  }
  return std::make_unique<QueryTicket>(std::move(decision), std::move(c));
}

Status QueryEngine::SubmitCJoin(StarEntry* entry, ShardedCJoinOperator& pool,
                                const std::shared_ptr<Completion>& c,
                                StarQuerySpec spec,
                                AggregatorFactory aggregator,
                                int64_t deadline_ns, int64_t id_grace_ns) {
  // Exact snapshot semantics under concurrent appends: every shard's
  // continuous scan covers rows up to its last freeze, so while appends
  // beyond the pool-wide covered bound exist, cap the query's snapshot at
  // it (the min over shards — the snapshot then reads identical data on
  // every shard). Deletes never need capping — deleted rows stay inside
  // the scanned ranges and are filtered per row by xmax.
  const SnapshotId covered = pool.covered_snapshot();
  if (entry->last_append_snapshot.load(std::memory_order_acquire) >
      covered) {
    spec.snapshot = std::min(spec.snapshot, covered);
  }
  CJoinOperator::SubmitOptions so;
  so.aggregator_factory = std::move(aggregator);
  so.deadline_ns = deadline_ns;
  so.assume_normalized = true;  // ResolveRequest normalized already
  so.id_acquire_grace_ns = id_grace_ns;
  so.trace = c->trace;
  // The observer owns the completion, which owns the handle, which owns
  // the runtime holding the observer: QueryRuntime::Deliver drops the
  // observer after its single call, which breaks that cycle.
  so.completion_observer = [c](const Result<ResultSet>& result) {
    c->Finish(result);
  };
  c->MarkQueueEnd(QueryRuntime::NowNs());
  Result<std::unique_ptr<QueryHandle>> handle =
      pool.Submit(std::move(spec), std::move(so));
  if (!handle.ok()) {
    // Refused before registration: no delivery will follow.
    c->Reject(handle.status());
    return handle.status();
  }
  c->BindHandle(std::move(*handle));
  return Status::OK();
}

Status QueryEngine::SubmitBaseline(const std::shared_ptr<Completion>& c,
                                   QueryRequest request,
                                   int64_t deadline_ns) {
  auto job = std::make_shared<BaselineJob>();
  job->spec = std::move(request.spec);
  job->options = request.baseline_options.value_or(opts_.baseline);
  job->priority = request.priority;
  job->deadline_ns = deadline_ns;
  job->tenant = c->tenant;
  job->fair_weight = admission_->GetTenantQuota(c->tenant).weight;
  job->completion = c;
  c->MarkQueueStart(QueryRuntime::NowNs());
  if (Status st = baseline_pool_->Enqueue(job); !st.ok()) {
    c->Reject(st);
    return st;
  }
  // The hook and the job reference each other until the job resolves;
  // resolution drops the hook.
  c->BindBackend(
      [job] { job->cancel.store(true, std::memory_order_release); });
  return Status::OK();
}

void QueryEngine::Finalize(const Completion& c,
                           const Result<ResultSet>& result) {
  const bool reached = c.reached_backend();
  if (c.slot_held()) {
    // A slot consumed for a query no backend accepted is the shed its
    // caller experienced, not an admitted+released round trip.
    if (reached) {
      admission_->Release(c.tenant, c.route);
    } else {
      admission_->ReleaseAsShed(c.tenant, c.route);
    }
  }
  if (!reached) return;
  const int64_t submit_ns = c.submit_ns;
  const int64_t queue_end_ns = c.queue_end_ns();
  const int64_t done_ns = c.done_ns();
  const bool metrics = obs::MetricsEnabled();
  if (c.route == RouteChoice::kBaseline) {
    // A job resolved while still queued (cancel/deadline/abort) never
    // started: its whole life was queue residence.
    const int64_t queued = c.queue_start_ns();
    const int64_t started = queue_end_ns != 0 ? queue_end_ns : done_ns;
    if (c.trace != nullptr) {
      c.trace->AddSpan(obs::SpanKind::kBaselineQueue, "", queued, started);
      if (queue_end_ns != 0) {
        c.trace->AddSpan(obs::SpanKind::kBaselineRun, "", started, done_ns);
      }
    }
    if (metrics) {
      auto& reg = obs::MetricsRegistry::Global();
      reg.GetHistogram("baseline_queue_wait_ns",
                       "Baseline pool queue residence")
          ->Record(static_cast<uint64_t>(
              std::max<int64_t>(0, started - queued)));
      if (queue_end_ns != 0) {
        // The sweeper can resolve a job its worker is just starting.
        reg.GetHistogram("baseline_run_ns", "Baseline plan execution time")
            ->Record(static_cast<uint64_t>(
                std::max<int64_t>(0, done_ns - started)));
      }
    }
  }
  if (c.trace != nullptr && metrics) {
    // Retain the span trace for the flight recorder's Perfetto dump
    // (re-emitted as async "query" events) and, past the threshold, for
    // the slow-query log.
    obs::FlightRecorder::Global().NoteQueryTrace(c.trace);
    const int64_t threshold = slow_query_threshold().count();
    if (threshold > 0 && done_ns - submit_ns >= threshold) {
      slow_log_.Record(done_ns - submit_ns, *c.trace);
    }
  }
  if (metrics) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("queries_total",
                   "Completed queries by route and terminal status",
                   obs::LabelPair("route", RouteLabel(c.route)) + "," +
                       obs::LabelPair("status",
                                      result.ok() ? "ok" : "error"))
        ->Add();
    if (done_ns > submit_ns) {
      const uint64_t latency = static_cast<uint64_t>(done_ns - submit_ns);
      reg.GetHistogram("query_latency_ns",
                       "End-to-end query latency (submit to result)",
                       obs::LabelPair("route", RouteLabel(c.route)))
          ->Record(latency);
      reg.GetHistogram("tenant_query_latency_ns",
                       "End-to-end query latency per tenant",
                       obs::LabelPair("tenant", c.tenant))
          ->Record(latency);
    }
  }
  // Only successful kAuto-routed queries carry calibration evidence:
  // [submit, queue end) is waiting (admission, wait queue, pool queue),
  // the rest service.
  if (c.work_units <= 0.0 || !result.ok()) return;
  RouteObservation obs;
  obs.route = c.route;
  obs.work_units = c.work_units;
  obs.wall_seconds = c.ResponseSeconds();
  obs.queue_wait_seconds =
      queue_end_ns > submit_ns
          ? static_cast<double>(queue_end_ns - submit_ns) * 1e-9
          : 0.0;
  calibrator_.Observe(obs);
}

Result<RouteDecision> QueryEngine::ProbeRoute(QueryRequest request) {
  // Same resolution pipeline as Execute(), so the verdict is exactly the
  // decision Execute() would make right now — the load inputs AND both
  // routes' admission probes are sampled under one controller lock
  // acquisition (the old code sampled load, then probed separately, so
  // the printed admission verdict could describe a different instant
  // than the costs). DecideMode::kProbe keeps the probe side-effect
  // free: no decision counters, no exploration tick, no quota consumed.
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, ResolveRequest(&request));
  std::shared_ptr<ShardedCJoinOperator> pool = PoolFor(entry);
  const std::string t = TenantOrDefault(request.tenant);
  AdmissionDecision probe_cjoin, probe_baseline;
  const RouteInputs inputs =
      SampleRouteInputs(*pool, t, &probe_cjoin, &probe_baseline);
  RouteDecision decision =
      router_.Decide(request.spec, inputs, DecideMode::kProbe);
  decision.tenant = t;
  decision.admission =
      FormatAdmission(decision.choice == RouteChoice::kCJoin
                          ? probe_cjoin
                          : probe_baseline);
  return decision;
}

Result<RouteDecision> QueryEngine::ExplainRoute(StarQuerySpec spec,
                                                std::string_view tenant) {
  QueryRequest request = QueryRequest::FromSpec(std::move(spec));
  request.tenant = std::string(tenant);
  return ProbeRoute(std::move(request));
}

Result<RouteDecision> QueryEngine::ExplainRoute(std::string_view star_name,
                                                std::string_view sql,
                                                std::string_view tenant) {
  QueryRequest request =
      QueryRequest::Sql(std::string(star_name), std::string(sql));
  request.tenant = std::string(tenant);
  return ProbeRoute(std::move(request));
}

Status QueryEngine::SetTenantQuota(std::string_view tenant,
                                   TenantQuota quota) {
  Status st = admission_->SetTenantQuota(TenantOrDefault(std::string(tenant)),
                                         quota);
  // Rebalanced quotas change slot scarcity and fair pool shares —
  // queueing regimes the fits were observed under. Age them.
  if (st.ok()) calibrator_.Decay();
  return st;
}

TenantQuota QueryEngine::GetTenantQuota(std::string_view tenant) const {
  return admission_->GetTenantQuota(TenantOrDefault(std::string(tenant)));
}

AdmissionController::Stats QueryEngine::AdmissionStats() const {
  return admission_->GetStats();
}

void QueryEngine::SampleForWatchdog(
    std::vector<obs::Watchdog::StageSample>& stages,
    std::vector<obs::Watchdog::QueueSample>& queues) {
  if (shut_down_.load(std::memory_order_acquire)) return;
  std::vector<std::pair<std::string, std::shared_ptr<ShardedCJoinOperator>>>
      pools;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (const auto& entry : stars_) {
      pools.emplace_back(entry->name, entry->pool);
    }
  }
  for (const auto& [star, pool] : pools) {
    if (pool == nullptr) continue;
    const std::vector<CJoinOperator::Stats> shards = pool->PerShardStats();
    for (size_t s = 0; s < shards.size(); ++s) {
      const CJoinOperator::Stats& st = shards[s];
      const std::string prefix = star + "/s" + std::to_string(s) + "/";
      // The continuous scan must advance whenever queries are registered;
      // rows_scanned frozen with active queries is the canonical stall.
      obs::Watchdog::StageSample scan;
      scan.name = prefix + "scan";
      scan.progress = st.rows_scanned;
      scan.backlog = st.active_queries;
      stages.push_back(std::move(scan));
      for (size_t i = 0; i < st.stage_batches.size(); ++i) {
        obs::Watchdog::StageSample stage;
        stage.name = prefix + "stage" + std::to_string(i);
        stage.progress = st.stage_batches[i];
        stage.backlog = i < st.queue_depths.size() ? st.queue_depths[i] : 0;
        stages.push_back(std::move(stage));
      }
      for (size_t q = 0; q < st.queue_depths.size(); ++q) {
        obs::Watchdog::QueueSample qs;
        qs.name = prefix + "q" + std::to_string(q);
        qs.depth = st.queue_depths[q];
        qs.capacity = st.queue_capacity;
        queues.push_back(std::move(qs));
      }
    }
  }
  const AdmissionController::Stats adm = admission_->GetStats();
  obs::Watchdog::StageSample gate;
  gate.name = "admission";
  uint64_t granted = 0;
  for (const auto& t : adm.tenants) granted += t.admitted;
  gate.progress = granted;
  gate.backlog = adm.total_waiting;
  gate.min_deadline_ns = adm.earliest_waiter_deadline_ns;
  stages.push_back(std::move(gate));
}

Result<ResultSet> QueryEngine::ExecuteGalaxyJoin(const GalaxyJoinSpec& spec) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * lentry, EntryFor(spec.left.schema));
  CJOIN_ASSIGN_OR_RETURN(StarEntry * rentry, EntryFor(spec.right.schema));
  if (spec.left_join_col >= lentry->star->fact().schema().num_columns() ||
      spec.right_join_col >= rentry->star->fact().schema().num_columns()) {
    return Status::InvalidArgument("galaxy join column out of range");
  }

  // Projections per side, deduplicated; remember where each output lands.
  std::vector<ColumnSource> proj[2];
  auto project = [&](int side, const ColumnSource& src) -> size_t {
    auto& p = proj[side];
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] == src) return i;
    }
    p.push_back(src);
    return p.size() - 1;
  };
  struct OutRef {
    int side;
    size_t index;
  };
  std::vector<OutRef> key_refs;
  for (const auto& g : spec.group_by) {
    if (g.side != 0 && g.side != 1) {
      return Status::InvalidArgument("galaxy output side must be 0 or 1");
    }
    key_refs.push_back({g.side, project(g.side, g.source)});
  }
  std::vector<OutRef> agg_refs;
  std::vector<AggFn> fns;
  for (const auto& a : spec.aggregates) {
    if (a.side != 0 && a.side != 1) {
      return Status::InvalidArgument("galaxy output side must be 0 or 1");
    }
    fns.push_back(a.fn);
    if (a.input.has_value()) {
      agg_refs.push_back({a.side, project(a.side, *a.input)});
    } else {
      agg_refs.push_back({a.side, SIZE_MAX});  // COUNT(*)
    }
  }

  // Run both star sub-queries concurrently through the unified Execute()
  // path with collector sinks (§5: "the Distributor pipes the results of
  // Qi to a fact-to-fact join operator instead of an aggregation
  // operator"). Both sides read the same snapshot and share the request
  // deadline; if one side fails, the other is cancelled.
  CollectedSide sides[2];
  const StarSchema* schemas[2] = {lentry->star.get(), rentry->star.get()};
  const size_t join_cols[2] = {spec.left_join_col, spec.right_join_col};
  StarQuerySpec sub[2] = {spec.left, spec.right};
  const SnapshotId snap = CurrentSnapshot();
  std::unique_ptr<QueryTicket> tickets[2];
  for (int s = 0; s < 2; ++s) {
    if (sub[s].snapshot == kReadLatestSnapshot) sub[s].snapshot = snap;
    CollectedSide* out = &sides[s];
    const StarSchema* star = schemas[s];
    const size_t jcol = join_cols[s];
    std::vector<ColumnSource> projection = proj[s];
    QueryRequest req = QueryRequest::FromSpec(sub[s]);
    req.deadline_ns = spec.deadline_ns;
    req.aggregator_factory = [star, jcol, projection,
                              out](const StarQuerySpec&) {
      return std::make_unique<CollectorAggregator>(*star, jcol, projection,
                                                   out);
    };
    auto ticket = Execute(std::move(req));
    if (!ticket.ok()) {
      if (s == 1) {
        // Must drain the other side before returning: its collector
        // writes into this frame's `sides` until its query terminates.
        tickets[0]->Cancel();
        (void)tickets[0]->Wait();
      }
      return ticket.status();
    }
    tickets[s] = std::move(*ticket);
  }
  Result<ResultSet> left_rs = tickets[0]->Wait();
  if (!left_rs.ok()) {
    // Drain the right side before returning: its collector writes into
    // this frame's `sides` until its query terminates. (Wait is
    // single-shot, so the right side is only waited here, once.)
    tickets[1]->Cancel();
    (void)tickets[1]->Wait();
    return left_rs.status();
  }
  Result<ResultSet> right_rs = tickets[1]->Wait();
  if (!right_rs.ok()) return right_rs.status();

  // Hash join: build on the smaller side.
  const int build = sides[0].keys.size() <= sides[1].keys.size() ? 0 : 1;
  const int probe = 1 - build;
  std::multimap<int64_t, size_t> index;
  for (size_t i = 0; i < sides[build].keys.size(); ++i) {
    index.emplace(sides[build].keys[i], i);
  }

  GroupTable table(fns);
  std::vector<Value> inputs(fns.size());
  for (size_t pi = 0; pi < sides[probe].keys.size(); ++pi) {
    auto [lo, hi] = index.equal_range(sides[probe].keys[pi]);
    for (auto it = lo; it != hi; ++it) {
      const size_t bi = it->second;
      auto value_of = [&](const OutRef& ref) -> Value {
        const size_t row = ref.side == probe ? pi : bi;
        return sides[ref.side].values[row][ref.index];
      };
      std::vector<Value> key;
      key.reserve(key_refs.size());
      for (const OutRef& ref : key_refs) key.push_back(value_of(ref));
      for (size_t a = 0; a < fns.size(); ++a) {
        inputs[a] =
            agg_refs[a].index == SIZE_MAX ? Value() : value_of(agg_refs[a]);
      }
      table.Fold(std::move(key), inputs);
    }
  }

  std::vector<std::string> columns;
  for (const auto& g : spec.group_by) columns.push_back(g.label);
  for (const auto& a : spec.aggregates) columns.push_back(a.label);
  ResultSet rs =
      table.Finish(std::move(columns),
                   /*global_row_when_empty=*/spec.group_by.empty());
  rs.tuples_consumed = sides[0].keys.size() + sides[1].keys.size();
  return rs;
}

Result<SnapshotId> QueryEngine::AppendFacts(
    std::string_view star_name, const std::vector<std::vector<uint8_t>>& rows,
    uint32_t partition) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  Table& fact = *const_cast<Table*>(&entry->star->fact());
  MutexLock lk(&update_mu_);
  const SnapshotId commit = snapshot_.load(std::memory_order_relaxed) + 1;
  if (partition >= fact.num_partitions()) {
    return Status::InvalidArgument("partition out of range");
  }
  for (const auto& payload : rows) {
    if (payload.size() != fact.schema().row_size()) {
      return Status::InvalidArgument("row payload size mismatch");
    }
    fact.AppendRow(payload.data(), partition, commit);
  }
  snapshot_.store(commit, std::memory_order_release);
  entry->last_append_snapshot.store(commit, std::memory_order_release);
  return commit;
}

Result<SnapshotId> QueryEngine::DeleteFacts(std::string_view star_name,
                                            const ExprPtr& predicate) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("delete predicate is null");
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  Table& fact = *const_cast<Table*>(&entry->star->fact());
  const Schema& fs = fact.schema();
  MutexLock lk(&update_mu_);
  const SnapshotId commit = snapshot_.load(std::memory_order_relaxed) + 1;
  for (uint32_t p = 0; p < fact.num_partitions(); ++p) {
    const uint64_t n = fact.PartitionRows(p);
    for (uint64_t i = 0; i < n; ++i) {
      const RowId id{p, i};
      if (fact.Header(id)->LoadXmax() != kMaxSnapshot) continue;
      if (!predicate->EvalBool(fs, fact.RowPayload(id))) continue;
      CJOIN_RETURN_IF_ERROR(fact.MarkDeleted(id, commit));
    }
  }
  snapshot_.store(commit, std::memory_order_release);
  return commit;
}

std::vector<std::string> QueryEngine::StarNames() const {
  ReaderMutexLock lk(&ops_mu_);
  std::vector<std::string> names;
  for (const auto& entry : stars_) names.push_back(entry->name);
  return names;
}

Result<ShardedCJoinOperator*> QueryEngine::OperatorFor(
    std::string_view star_name) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  return PoolFor(entry).get();
}

}  // namespace cjoin
