#include "cjoin/sharded_operator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/mutex.h"
#include "exec/aggregation.h"
#include "exec/group_table.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace cjoin {

namespace {

/// Shared sink of one logical query's per-shard outputs. Referenced by the
/// per-shard aggregator factories (which live in the shard runtimes until
/// cleanup) and by the MergeState; holds no back-references, so the
/// factory -> box edge cannot form an ownership cycle with the runtimes.
struct ResultBox {
  Mutex mu;
  /// Default path: per-shard partial group tables, by shard index.
  std::vector<std::optional<GroupTable>> by_shard GUARDED_BY(mu);
  uint64_t consumed GUARDED_BY(mu) = 0;
  /// Custom-aggregator path (e.g. the galaxy join's collector): the single
  /// caller-provided aggregator, shared by every shard under `mu`.
  std::unique_ptr<StarAggregator> shared_agg GUARDED_BY(mu);
};

/// Serializing proxy for the custom-aggregator path: every shard's
/// Distributor consumes into the one shared aggregator under the box
/// mutex, preserving the caller's single-instance semantics.
class LockedProxyAggregator final : public StarAggregator {
 public:
  explicit LockedProxyAggregator(std::shared_ptr<ResultBox> box)
      : box_(std::move(box)) {}

  void Consume(const uint8_t* fact_row,
               const uint8_t* const* dim_rows) override {
    ++consumed_;
    MutexLock lk(&box_->mu);
    box_->shared_agg->Consume(fact_row, dim_rows);
  }

  ResultSet Finish() override {
    // The real Finish() happens once, at merge time.
    ResultSet rs;
    rs.tuples_consumed = consumed_;
    return rs;
  }

  uint64_t tuples_consumed() const override { return consumed_; }

 private:
  std::shared_ptr<ResultBox> box_;
  uint64_t consumed_ = 0;
};

/// The merging collector of one logical query: counts down shard
/// completions (delivered by QueryRuntime::completion_observer on the
/// shards' pipeline threads) and resolves the caller's merged runtime when
/// the last shard's lap covers its registration point.
///
/// Ownership: the merge runtime's cancel_hook holds the MergeState; the
/// state holds the shard handles; shard runtimes reference the state only
/// weakly (observers) or via the cycle-free ResultBox (factories). If the
/// caller drops the merged handle early, the whole collector unwinds while
/// the shard queries run to their natural end inside their operators.
struct MergeState {
  Mutex mu;
  size_t remaining GUARDED_BY(mu) = 0;
  Status failure GUARDED_BY(mu) = Status::OK();
  std::vector<std::unique_ptr<QueryHandle>> shard_handles GUARDED_BY(mu);
  // The fields below are written once by Submit() before the state is
  // published to the shard completion observers, then only read — no
  // guard needed.
  std::weak_ptr<QueryRuntime> merge_rt;
  std::shared_ptr<ResultBox> box;
  /// The logical query's span trace (may be null): shard completions and
  /// the merge itself record into it.
  std::shared_ptr<obs::QueryTrace> trace;

  // Finalization metadata derived from the normalized spec.
  std::vector<AggFn> fns;
  std::vector<std::string> columns;
  bool global_row_when_empty = false;

  void OnShardDone(size_t shard, const Result<ResultSet>& result)
      EXCLUDES(mu) {
    MutexLock lk(&mu);
    if (trace != nullptr) {
      // Span start reconstructed from the shard's own response time, so
      // the trace shows each shard's submit -> deliver window.
      const int64_t end = QueryRuntime::NowNs();
      double response_s = 0.0;
      if (shard < shard_handles.size() && shard_handles[shard] != nullptr) {
        response_s = shard_handles[shard]->ResponseSeconds();
      }
      char label[16];
      std::snprintf(label, sizeof(label), "s%zu", shard);
      trace->AddSpan(obs::SpanKind::kShard, label,
                     end - static_cast<int64_t>(response_s * 1e9), end);
    }
    if (!result.ok() && failure.ok()) failure = result.status();
    assert(remaining > 0);
    if (--remaining == 0) FinishMerge();
  }

 private:
  // Runs on the last shard's resolver thread.
  void FinishMerge() REQUIRES(mu) {
    std::shared_ptr<QueryRuntime> rt = merge_rt.lock();
    if (rt == nullptr) return;  // caller dropped the merged handle

    // Submission time of the logical query = the slowest shard's (the
    // registration is only complete once mirrored everywhere).
    double max_submission = 0.0;
    for (const auto& h : shard_handles) {
      if (h != nullptr) {
        max_submission = std::max(max_submission, h->SubmissionSeconds());
      }
    }
    if (max_submission > 0.0) {
      rt->registered_ns.store(
          rt->submit_ns.load() +
          static_cast<int64_t>(max_submission * 1e9));
    }
    rt->completed_ns.store(QueryRuntime::NowNs());

    if (!failure.ok()) {
      rt->phase.store(failure.code() == StatusCode::kCancelled ||
                              failure.code() == StatusCode::kDeadlineExceeded
                          ? QueryPhase::kCancelled
                          : QueryPhase::kAborted);
      rt->Deliver(failure);
      return;
    }

    const int64_t merge_start = QueryRuntime::NowNs();
    ResultSet rs;
    {
      MutexLock lk(&box->mu);
      if (box->shared_agg != nullptr) {
        rs = box->shared_agg->Finish();
      } else {
        GroupTable merged(fns);
        for (auto& partial : box->by_shard) {
          if (partial.has_value()) {
            merged.MergeFrom(std::move(*partial));
            partial.reset();
          }
        }
        rs = merged.Finish(columns, global_row_when_empty);
        rs.tuples_consumed = box->consumed;
      }
    }
    const int64_t merge_end = QueryRuntime::NowNs();
    if (trace != nullptr) {
      trace->AddSpan(obs::SpanKind::kMerge, "", merge_start, merge_end);
    }
    obs::MetricsRegistry::Global()
        .GetHistogram("cjoin_merge_ns",
                      "Cross-shard partial-aggregate merge time")
        ->Record(static_cast<uint64_t>(merge_end - merge_start));
    rt->phase.store(QueryPhase::kCompleted);
    rt->Deliver(std::move(rs));
  }
};

}  // namespace

ShardedCJoinOperator::ShardedCJoinOperator(const StarSchema& source,
                                           size_t num_shards,
                                           Options options)
    : source_(source), opts_(options) {
  assert(num_shards > 0 && "at least one shard required");
  for (size_t s = 0; s < num_shards; ++s) {
    CJoinOperator::Options op_opts = opts_.op;
    op_opts.disk_reader_id = opts_.op.disk_reader_id + s;
    op_opts.name_prefix = "s" + std::to_string(s) + "/";
    shards_.push_back(std::make_unique<CJoinOperator>(
        source_, op_opts, ScanSlice{s, num_shards}));
  }
}

ShardedCJoinOperator::~ShardedCJoinOperator() { Stop(); }

Status ShardedCJoinOperator::Start() {
  for (auto& shard : shards_) {
    CJOIN_RETURN_IF_ERROR(shard->Start());
  }
  return Status::OK();
}

void ShardedCJoinOperator::Stop() {
  // Stopping shard by shard is safe: a logical query's merged ticket only
  // resolves (with kAborted) once its last shard resolves.
  for (auto& shard : shards_) shard->Stop();
}

SnapshotId ShardedCJoinOperator::covered_snapshot() const {
  SnapshotId covered = kMaxSnapshot;
  for (const auto& shard : shards_) {
    covered = std::min(covered, shard->covered_snapshot());
  }
  return covered;
}

Result<std::unique_ptr<QueryHandle>> ShardedCJoinOperator::Submit(
    StarQuerySpec spec, CJoinOperator::SubmitOptions options) {
  if (spec.schema != &source_) {
    return Status::InvalidArgument(
        "query targets a different star schema than this operator");
  }
  if (shards_.size() == 1 && !opts_.force_merge_path) {
    // The pool degenerates to exactly the single-operator pipeline.
    return shards_[0]->Submit(std::move(spec), std::move(options));
  }

  if (!options.assume_normalized) {
    CJOIN_ASSIGN_OR_RETURN(spec, NormalizeSpec(std::move(spec)));
    options.assume_normalized = true;
  }
  if (options.deadline_ns != 0 &&
      QueryRuntime::NowNs() >= options.deadline_ns) {
    return Status::DeadlineExceeded("deadline expired before submission");
  }

  auto state = std::make_shared<MergeState>();
  auto box = std::make_shared<ResultBox>();
  {
    // Nothing else can reference the fresh state/box yet; the locks only
    // satisfy the GUARDED_BY contracts on their fields.
    MutexLock box_lk(&box->mu);
    box->by_shard.resize(shards_.size());
  }
  state->box = box;
  {
    MutexLock state_lk(&state->mu);
    state->remaining = shards_.size();
    state->shard_handles.resize(shards_.size());
  }
  for (const AggregateSpec& a : spec.aggregates) state->fns.push_back(a.fn);
  state->columns = spec.group_by_labels;
  for (const AggregateSpec& a : spec.aggregates) {
    state->columns.push_back(a.label);
  }
  state->global_row_when_empty = spec.group_by.empty();

  auto merge_rt = std::make_shared<QueryRuntime>();
  merge_rt->spec = spec;
  merge_rt->deadline_ns.store(options.deadline_ns, std::memory_order_relaxed);
  merge_rt->submit_ns.store(QueryRuntime::NowNs());
  merge_rt->completion_observer = std::move(options.completion_observer);
  merge_rt->trace = options.trace;
  state->trace = options.trace;
  state->merge_rt = merge_rt;
  std::future<Result<ResultSet>> fut = merge_rt->promise.get_future();

  bool use_shared_agg = false;
  if (options.aggregator_factory != nullptr) {
    MutexLock box_lk(&box->mu);
    box->shared_agg = options.aggregator_factory(merge_rt->spec);
    use_shared_agg = box->shared_agg != nullptr;
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    CJoinOperator::SubmitOptions so;
    so.deadline_ns = options.deadline_ns;
    so.assume_normalized = true;
    so.id_acquire_grace_ns = options.id_acquire_grace_ns;
    // Shard pipelines share the logical query's trace; their stage spans
    // are disambiguated by a per-shard label prefix ("s2/pre").
    so.trace = options.trace;
    so.trace_prefix = "s" + std::to_string(s) + "/";
    if (use_shared_agg) {
      so.aggregator_factory = [box](const StarQuerySpec&) {
        return std::make_unique<LockedProxyAggregator>(box);
      };
    } else {
      so.aggregator_factory = [box, s](const StarQuerySpec& qs) {
        return MakePartialHashAggregator(
            qs, [box, s](GroupTable&& partial, uint64_t consumed) {
              MutexLock lk(&box->mu);
              box->by_shard[s] = std::move(partial);
              box->consumed += consumed;
            });
      };
    }
    // Weak: shard runtimes outlive an abandoned merged handle, and the
    // observer must not keep the collector (and its handles) alive.
    so.completion_observer = [weak = std::weak_ptr<MergeState>(state), s](
                                 const Result<ResultSet>& result) {
      if (std::shared_ptr<MergeState> st = weak.lock()) {
        st->OnShardDone(s, result);
      }
    };

    Result<std::unique_ptr<QueryHandle>> handle =
        shards_[s]->Submit(merge_rt->spec, std::move(so));
    if (!handle.ok()) {
      // Unwind the shards already registered; their early termination is
      // observed only by the (now dying) weak state.
      MutexLock lk(&state->mu);
      for (auto& h : state->shard_handles) {
        if (h != nullptr) h->Cancel();
      }
      return handle.status();
    }
    MutexLock lk(&state->mu);
    state->shard_handles[s] = std::move(*handle);
  }

  {
    MutexLock lk(&state->mu);
    merge_rt->query_id = state->shard_handles[0]->query_id();
  }
  // The merged handle's Cancel() fans out to every shard (each shard then
  // deregisters the query mid-lap and reclaims its bit-vector slot). The
  // hook also anchors the MergeState's lifetime to the merged runtime.
  merge_rt->cancel_hook = [state] {
    MutexLock lk(&state->mu);
    for (auto& h : state->shard_handles) {
      if (h != nullptr) h->Cancel();
    }
  };
  return std::make_unique<QueryHandle>(std::move(merge_rt), std::move(fut));
}

CJoinOperator::Stats ShardedCJoinOperator::GetStats() const {
  CJoinOperator::Stats total = shards_[0]->GetStats();
  for (size_t s = 1; s < shards_.size(); ++s) {
    const CJoinOperator::Stats st = shards_[s]->GetStats();
    total.rows_scanned += st.rows_scanned;
    total.rows_skipped_at_preprocessor += st.rows_skipped_at_preprocessor;
    total.tuples_routed += st.tuples_routed;
    total.blocks_in_use += st.blocks_in_use;
    total.query_ids_in_use += st.query_ids_in_use;
    total.runtimes_registered += st.runtimes_registered;
    total.filter_reorders += st.filter_reorders;
    total.manager_iterations += st.manager_iterations;
    total.table_laps = std::min(total.table_laps, st.table_laps);
    for (size_t f = 0;
         f < total.filter_tuples_in.size() && f < st.filter_tuples_in.size();
         ++f) {
      total.filter_tuples_in[f] += st.filter_tuples_in[f];
      total.filter_tuples_dropped[f] += st.filter_tuples_dropped[f];
    }
    // Queue telemetry: element-wise worst case across shards (depths are
    // point samples, not additive loads); progress counters sum.
    for (size_t q = 0;
         q < total.queue_depths.size() && q < st.queue_depths.size(); ++q) {
      total.queue_depths[q] = std::max(total.queue_depths[q],
                                       st.queue_depths[q]);
      total.queue_high_watermarks[q] = std::max(
          total.queue_high_watermarks[q], st.queue_high_watermarks[q]);
    }
    for (size_t b = 0;
         b < total.stage_batches.size() && b < st.stage_batches.size(); ++b) {
      total.stage_batches[b] += st.stage_batches[b];
    }
  }
  return total;
}

std::vector<CJoinOperator::Stats> ShardedCJoinOperator::PerShardStats()
    const {
  std::vector<CJoinOperator::Stats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->GetStats());
  return out;
}

}  // namespace cjoin
