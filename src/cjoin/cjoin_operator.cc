#include "cjoin/cjoin_operator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/bitvector.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"

namespace cjoin {

CJoinOperator::CJoinOperator(const StarSchema& star, Options options,
                             ScanSlice slice)
    : star_(star),
      opts_(options),
      width_(bitops::WordsForBits(options.max_concurrent_queries)),
      num_dims_(star.num_dimensions()) {
  assert(width_ > 0 && width_ <= kMaxWidthWords &&
         "max_concurrent_queries must be in [1, 1024]");
  if (!opts_.aggregator_factory) {
    opts_.aggregator_factory = [](const StarQuerySpec& spec) {
      return MakeHashAggregator(spec);
    };
  }

  // Query id freelist: ids [0, maxConc), lowest first (paper: "the first
  // unused query id").
  free_ids_.reserve(opts_.max_concurrent_queries);
  for (size_t i = opts_.max_concurrent_queries; i > 0; --i) {
    free_ids_.push_back(static_cast<uint32_t>(i - 1));
  }
  registry_.resize(opts_.max_concurrent_queries);

  const size_t batch_size = std::max<size_t>(1, opts_.batch_size);
  blocks_ = std::make_unique<BlockFreeList>(
      std::max<size_t>(1, (opts_.pool_capacity + batch_size - 1) / batch_size),
      batch_size, width_, num_dims_);
  epochs_ = std::make_unique<EpochTracker>();
  cleanup_queue_ = std::make_unique<CleanupQueue>(4096);

  // One Filter per dimension for the pipeline's lifetime (see filter.h).
  filters_.reserve(num_dims_);
  for (size_t d = 0; d < num_dims_; ++d) {
    auto f = std::make_unique<Filter>();
    f->dim_index = d;
    f->fact_fk_col = star_.dimension(d).fact_fk_col;
    f->table = std::make_unique<DimensionHashTable>(width_, 1024);
    filters_.push_back(std::move(f));
  }

  // Queues: preprocessor -> stage0 -> ... -> distributor.
  const size_t num_stages =
      opts_.config == PipelineConfig::kHorizontal
          ? 1
          : std::max<size_t>(1, num_dims_);
  BatchQueue::Options qopts;
  qopts.capacity = opts_.queue_capacity;
  qopts.consumer_wake_depth = opts_.queue_wake_depth;
  for (size_t q = 0; q < num_stages + 1; ++q) {
    qopts.name = opts_.name_prefix + "q" + std::to_string(q);
    queues_.push_back(std::make_unique<BatchQueue>(qopts));
  }

  // Stage boxing.
  for (size_t s = 0; s < num_stages; ++s) {
    auto order = std::make_shared<FilterOrder>();
    if (opts_.config == PipelineConfig::kHorizontal) {
      for (auto& f : filters_) order->push_back(f.get());
    } else {
      if (s < filters_.size()) order->push_back(filters_[s].get());
    }
    stages_.push_back(std::make_unique<Stage>(
        "stage" + std::to_string(s), &star_.fact().schema(), width_,
        std::move(order), queues_[s].get(), queues_[s + 1].get(),
        /*owns_output=*/true, epochs_.get()));
    stages_.back()->set_thread_label(opts_.name_prefix + "stage" +
                                     std::to_string(s));
    stages_.back()->set_probe_batch_size(opts_.probe_batch_size);
  }

  Preprocessor::Options popts;
  popts.batch_size = batch_size;
  popts.scan_run_rows = opts_.scan_run_rows;
  popts.disk = opts_.disk;
  popts.reader_id = opts_.disk_reader_id;
  popts.snapshot_probe = opts_.snapshot_probe;
  popts.flight_label = opts_.name_prefix + "scan";
  preprocessor_ = std::make_unique<Preprocessor>(
      star_, width_, blocks_.get(), epochs_.get(), queues_.front().get(),
      popts, slice);

  distributor_ = std::make_unique<Distributor>(
      width_, opts_.max_concurrent_queries, epochs_.get(),
      queues_.back().get(), cleanup_queue_.get());
}

CJoinOperator::~CJoinOperator() { Stop(); }

Status CJoinOperator::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  started_ = true;

  preprocessor_thread_ = std::thread([this] {
    obs::RegisterThread(opts_.name_prefix + "pre");
    preprocessor_->Run(stop_);
  });

  // Distribute worker threads over stages (vertical: at least one each;
  // any surplus goes to the first stages, following §6.2.1).
  const size_t num_stages = stages_.size();
  std::vector<size_t> threads_per_stage(num_stages, 0);
  if (num_stages == 1) {
    threads_per_stage[0] = std::max<size_t>(1, opts_.num_worker_threads);
  } else {
    for (size_t s = 0; s < num_stages; ++s) threads_per_stage[s] = 1;
    size_t extra = opts_.num_worker_threads > num_stages
                       ? opts_.num_worker_threads - num_stages
                       : 0;
    for (size_t s = 0; extra > 0; s = (s + 1) % num_stages, --extra) {
      ++threads_per_stage[s];
    }
  }
  for (size_t s = 0; s < num_stages; ++s) {
    stages_[s]->Start(threads_per_stage[s]);
  }

  distributor_thread_ = std::thread([this] {
    obs::RegisterThread(opts_.name_prefix + "dist");
    distributor_->Run();
  });
  manager_thread_ = std::thread([this] {
    obs::RegisterThread(opts_.name_prefix + "mgr");
    ManagerLoop();
  });
  return Status::OK();
}

void CJoinOperator::Stop() {
  if (!started_ || stop_.exchange(true)) return;
  submissions_.Close();
  {
    // Wake Submit() callers waiting out the id grace.
    MutexLock lk(&id_mu_);
    id_available_.NotifyAll();
  }

  if (preprocessor_thread_.joinable()) preprocessor_thread_.join();
  // Preprocessor closed queues_.front(); stages cascade-close downstream.
  for (auto& stage : stages_) stage->Join();
  if (distributor_thread_.joinable()) distributor_thread_.join();
  cleanup_queue_->Close();
  if (manager_thread_.joinable()) manager_thread_.join();

  // Abort every query that did not complete.
  MutexLock lk(&registry_mu_);
  for (auto& rt : registry_) {
    if (rt == nullptr) continue;
    QueryPhase phase = rt->phase.load();
    if (phase != QueryPhase::kCompleted && phase != QueryPhase::kAborted &&
        phase != QueryPhase::kCancelled) {
      rt->phase.store(QueryPhase::kAborted);
      rt->Deliver(Status::Aborted("CJOIN operator stopped"));
    }
    rt.reset();
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

uint32_t CJoinOperator::ClaimQueryId(int64_t grace_ns) {
  MutexLock lk(&id_mu_);
  if (free_ids_.empty() && grace_ns > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(grace_ns);
    while (free_ids_.empty() && !stop_.load()) {
      if (id_available_.WaitUntil(id_mu_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
  }
  if (free_ids_.empty() || stop_.load()) return UINT32_MAX;
  const uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  return id;
}

void CJoinOperator::ReleaseQueryIds(const uint32_t* ids, size_t n) {
  if (n == 0) return;
  MutexLock lk(&id_mu_);
  free_ids_.insert(free_ids_.end(), ids, ids + n);
  // Reuse the smallest id first (paper §3.3); keep the freelist sorted
  // descending so back() is the minimum.
  std::sort(free_ids_.begin(), free_ids_.end(),
            std::greater<uint32_t>());
  id_available_.NotifyAll();
}

Result<std::unique_ptr<QueryHandle>> CJoinOperator::Submit(
    StarQuerySpec spec, SubmitOptions options) {
  // Submission time (§6.2.2) runs from this call, id wait included.
  const int64_t submitted = QueryRuntime::NowNs();
  if (!started_) return Status::FailedPrecondition("operator not started");
  if (stop_.load()) return Status::Aborted("operator stopped");
  if (spec.schema != &star_) {
    return Status::InvalidArgument(
        "query targets a different star schema than this operator");
  }
  StarQuerySpec normalized = std::move(spec);
  if (!options.assume_normalized) {
    CJOIN_ASSIGN_OR_RETURN(normalized, NormalizeSpec(std::move(normalized)));
  }
  if (options.deadline_ns != 0 &&
      QueryRuntime::NowNs() >= options.deadline_ns) {
    return Status::DeadlineExceeded("deadline expired before submission");
  }

  const uint32_t qid = ClaimQueryId(options.id_acquire_grace_ns);
  if (qid == UINT32_MAX) {
    if (stop_.load()) {
      return Status::Aborted("operator stopped while waiting for a query id");
    }
    return Status::ResourceExhausted(
        "all " + std::to_string(opts_.max_concurrent_queries) +
        " CJOIN query ids are in flight");
  }

  auto rt = std::make_shared<QueryRuntime>();
  rt->query_id = qid;
  rt->spec = std::move(normalized);
  rt->custom_aggregator_factory = std::move(options.aggregator_factory);
  rt->completion_observer = std::move(options.completion_observer);
  rt->trace = std::move(options.trace);
  rt->trace_prefix = std::move(options.trace_prefix);
  rt->deadline_ns.store(options.deadline_ns, std::memory_order_relaxed);
  rt->submit_ns.store(submitted);
  std::future<Result<ResultSet>> fut = rt->promise.get_future();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lk(&registry_mu_);
    registry_[qid] = rt;
  }
  auto handle = std::make_unique<QueryHandle>(rt, std::move(fut));
  if (!submissions_.Push(rt)) {
    // Stop() closed the queue. Its registry sweep may already have
    // aborted (and unregistered) this runtime; otherwise undo here.
    bool registered;
    {
      MutexLock lk(&registry_mu_);
      registered = registry_[qid] == rt;
      if (registered) registry_[qid].reset();
    }
    if (registered) {
      ReleaseQueryIds(&qid, 1);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    return Status::Aborted("operator stopped");
  }
  return handle;
}

void CJoinOperator::AdmitQueries(
    const std::vector<std::shared_ptr<QueryRuntime>>& batch) {
  if (batch.empty()) return;

  // A query cancelled (or expired) while still queued for admission never
  // loaded dimension state: resolve it here and recycle its id directly.
  std::vector<std::shared_ptr<QueryRuntime>> admitted;
  admitted.reserve(batch.size());
  const int64_t now = QueryRuntime::NowNs();
  for (const std::shared_ptr<QueryRuntime>& rt : batch) {
    TraceLogf(rt->query_id, "mgr", "admit begin");
    TerminalReason early = TerminalReason::kNone;
    if (rt->cancel_requested.load(std::memory_order_acquire)) {
      early = TerminalReason::kCancelled;
    } else if (rt->DeadlinePassed(now)) {
      early = TerminalReason::kDeadline;
    }
    if (early == TerminalReason::kNone) {
      rt->phase.store(QueryPhase::kLoading);
      admitted.push_back(rt);
      continue;
    }
    rt->phase.store(QueryPhase::kCancelled);
    rt->Deliver(
        early == TerminalReason::kDeadline
            ? Status::DeadlineExceeded("query deadline expired before admission")
            : Status::Cancelled("query cancelled before admission"));
    const uint32_t qid = rt->query_id;
    {
      MutexLock lk(&registry_mu_);
      registry_[qid].reset();
    }
    ReleaseQueryIds(&qid, 1);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    early_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  if (admitted.empty()) return;

  // The batch's ids, and per dimension the batch queries that reference
  // it (NormalizeSpec leaves at most one predicate per dimension).
  struct DimLoad {
    uint32_t qid;
    const Expr* predicate;
    SnapshotId snapshot;
  };
  std::vector<std::vector<DimLoad>> loads(num_dims_);
  uint64_t batch_mask[kMaxWidthWords] = {};
  for (const std::shared_ptr<QueryRuntime>& rt : admitted) {
    bitops::SetBit(batch_mask, rt->query_id);
    for (const DimensionPredicate& dp : rt->spec.dim_predicates) {
      loads[dp.dim_index].push_back(
          {rt->query_id, dp.predicate.get(), rt->spec.snapshot});
    }
  }

  std::vector<int64_t> keys;
  std::vector<const uint8_t*> rows;
  std::vector<uint64_t> masks;
  for (size_t d = 0; d < num_dims_; ++d) {
    DimensionHashTable& ht = *filters_[d]->table;

    // Algorithm 1 lines 3-10 for the whole batch at once: bit q of b_Dj
    // is 0 for each batch query q that references D_j and 1 for the rest.
    // Stored tuples need no pass: their bits record selections only, and
    // the cleanup that retired q's previous holder cleared bit q in every
    // entry (dim_hash_table.h).
    uint64_t unreferenced[kMaxWidthWords];
    bitops::Copy(unreferenced, batch_mask, width_);
    for (const DimLoad& l : loads[d]) {
      bitops::ClearBit(unreferenced, l.qid);
    }
    ht.AssignComplementBits(batch_mask, unreferenced);
    if (loads[d].empty()) continue;

    // Algorithm 1 lines 11-16: one scan of D_j serves every batch query.
    // Each row is tested at each query's own snapshot and against its
    // predicate; a row selected by any of them is merged into H_Dj with
    // the mask of the queries that selected it.
    const DimensionDef& def = star_.dimension(d);
    const Table& dim = *def.table;
    const Schema& dschema = dim.schema();
    keys.clear();
    rows.clear();
    masks.clear();
    uint64_t row_mask[kMaxWidthWords];
    for (uint32_t p = 0; p < dim.num_partitions(); ++p) {
      for (uint64_t i = 0; i < dim.PartitionRows(p); ++i) {
        const RowId id{p, i};
        const RowHeader* header = dim.Header(id);
        const uint8_t* row = dim.RowPayload(id);
        bool selected = false;
        bitops::Zero(row_mask, width_);
        for (const DimLoad& l : loads[d]) {
          if (header->VisibleAt(l.snapshot) &&
              l.predicate->EvalBool(dschema, row)) {
            bitops::SetBit(row_mask, l.qid);
            selected = true;
          }
        }
        if (!selected) continue;
        keys.push_back(dschema.GetIntAny(row, def.dim_pk_col));
        rows.push_back(row);
        masks.insert(masks.end(), row_mask, row_mask + width_);
      }
    }
    ht.InsertOrMerge(keys.data(), rows.data(), masks.data(), keys.size());
  }

  // Algorithm 1 lines 17-22: install in the Preprocessor (which emits the
  // query-start control tuple at an exact stream position).
  for (const std::shared_ptr<QueryRuntime>& rt : admitted) {
    rt->aggregator = rt->custom_aggregator_factory
                         ? rt->custom_aggregator_factory(rt->spec)
                         : opts_.aggregator_factory(rt->spec);
    bitops::SetBit(manager_active_mask_, rt->query_id);
    preprocessor_->RequestAdmission(rt);
    TraceLogf(rt->query_id, "mgr", "admit requested");
  }
}

void CJoinOperator::CleanupQueries(const std::vector<uint32_t>& qids) {
  for (uint32_t qid : qids) TraceLogf(qid, "mgr", "cleanup");
  std::vector<uint32_t> done;
  done.reserve(qids.size());
  {
    MutexLock lk(&registry_mu_);
    for (uint32_t qid : qids) {
      if (registry_[qid] != nullptr) done.push_back(qid);
    }
  }
  if (done.empty()) return;

  // Algorithm 2: complement bits revert to 1 ("does not reference"), the
  // finished queries' entry bits are cleared and dead tuples collected.
  // The clearing must finish before the ids are released: admission
  // relies on a reused id's bits starting at 0 in every entry.
  uint64_t batch_mask[kMaxWidthWords] = {};
  for (uint32_t qid : done) {
    bitops::SetBit(batch_mask, qid);
    bitops::ClearBit(manager_active_mask_, qid);
  }
  for (size_t d = 0; d < num_dims_; ++d) {
    DimensionHashTable& ht = *filters_[d]->table;
    ht.AssignComplementBits(batch_mask, batch_mask);
    ht.RemoveDeadEntries(manager_active_mask_);
  }

  {
    MutexLock lk(&registry_mu_);
    for (uint32_t qid : done) registry_[qid].reset();
  }
  ReleaseQueryIds(done.data(), done.size());
  inflight_.fetch_sub(done.size(), std::memory_order_relaxed);
  // End of each query's pipeline lifecycle: emit its ordered debug block.
  for (uint32_t qid : done) TraceFlushQuery(qid);
}

void CJoinOperator::MaybeReorderFilters() {
  // Adaptive ordering applies to the single-stage (horizontal) layout:
  // rank filters by observed drop rate, most selective first (§3.4; with
  // equal per-filter costs the rank ordering is optimal).
  if (!opts_.adaptive_ordering || stages_.size() != 1) return;

  std::shared_ptr<const FilterOrder> current = stages_[0]->filter_order();
  FilterOrder ranked = *current;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Filter* a, const Filter* b) {
                     return a->DropRate() > b->DropRate();
                   });
  if (ranked != *current) {
    stages_[0]->SetFilterOrder(
        std::make_shared<const FilterOrder>(std::move(ranked)));
    reorders_.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& f : filters_) f->DecayStats();
}

void CJoinOperator::ManagerLoop() {
  auto next_reorder =
      std::chrono::steady_clock::now() + opts_.reorder_interval;
  std::vector<uint32_t> cleanups;
  std::vector<std::shared_ptr<QueryRuntime>> submissions;
  for (;;) {
    manager_iterations_.fetch_add(1, std::memory_order_relaxed);
    // Closed queues accept nothing more, so once both are closed the
    // drain below collects everything that will ever arrive.
    const bool closed = stop_.load() && submissions_.closed() &&
                        cleanup_queue_->closed();
    // Drain everything pending: cleanups first (they release query ids),
    // then submissions.
    cleanup_queue_->TryPopAll(cleanups);
    submissions_.TryPopAll(submissions);
    if (cleanups.empty() && submissions.empty()) {
      if (closed) break;
      // Idle: wait briefly for a submission, then take the rest of its
      // burst with it.
      auto rt = submissions_.PopWithTimeout(std::chrono::milliseconds(2));
      if (rt.has_value()) {
        submissions.push_back(std::move(*rt));
        submissions_.TryPopAll(submissions);
      }
    }
    CleanupQueries(cleanups);
    AdmitQueries(submissions);
    cleanups.clear();
    submissions.clear();
    if (opts_.adaptive_ordering &&
        std::chrono::steady_clock::now() >= next_reorder) {
      MaybeReorderFilters();
      next_reorder =
          std::chrono::steady_clock::now() + opts_.reorder_interval;
    }
  }
}

CJoinOperator::Stats CJoinOperator::GetStats() const {
  Stats s;
  s.rows_scanned = preprocessor_->rows_scanned();
  s.rows_skipped_at_preprocessor = preprocessor_->rows_skipped();
  s.tuples_routed = distributor_->tuples_routed();
  s.queries_completed = distributor_->queries_completed();
  s.queries_cancelled = distributor_->queries_cancelled() +
                        early_cancelled_.load(std::memory_order_relaxed);
  s.table_laps = preprocessor_->table_laps();
  s.active_queries = preprocessor_->active_queries();
  s.blocks_in_use = blocks_->InUse();
  {
    MutexLock lk(&id_mu_);
    s.query_ids_in_use = opts_.max_concurrent_queries - free_ids_.size();
  }
  {
    MutexLock lk(&registry_mu_);
    s.runtimes_registered = static_cast<size_t>(
        std::count_if(registry_.begin(), registry_.end(),
                      [](const auto& rt) { return rt != nullptr; }));
  }
  s.filter_reorders = reorders_.load(std::memory_order_relaxed);
  s.manager_iterations = manager_iterations_.load(std::memory_order_relaxed);
  s.submissions_pending = submissions_.size();
  s.admissions_pending = preprocessor_->admissions_pending();
  s.cleanups_pending = cleanup_queue_->size();
  s.queue_capacity = opts_.queue_capacity;
  auto& reg = obs::MetricsRegistry::Global();
  for (const auto& q : queues_) {
    const size_t depth = q->size();
    const size_t hwm = q->HighWatermark();
    s.queue_depths.push_back(depth);
    s.queue_high_watermarks.push_back(hwm);
    // Gauge family keyed by the queue's flight-recorder name, so
    // saturation is scrapeable without a trace dump.
    const std::string label = obs::LabelPair("queue", q->name());
    reg.GetGauge("cjoin_queue_depth",
                 "Inter-stage queue depth at last stats scrape", label)
        ->Set(static_cast<int64_t>(depth));
    reg.GetGauge("cjoin_queue_depth_hwm",
                 "Peak inter-stage queue depth since the previous scrape",
                 label)
        ->Set(static_cast<int64_t>(hwm));
  }
  for (const auto& stage : stages_) {
    s.stage_batches.push_back(stage->batches_processed());
  }
  if (!stages_.empty()) {
    auto order = stages_[0]->filter_order();
    for (const Filter* f : *order) s.filter_order.push_back(f->dim_index);
  }
  for (const auto& f : filters_) {
    s.dim_table_sizes.push_back(f->table->size());
    s.filter_tuples_in.push_back(
        f->tuples_in.load(std::memory_order_relaxed));
    s.filter_tuples_dropped.push_back(
        f->tuples_dropped.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace cjoin
