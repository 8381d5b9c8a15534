#include "cjoin/distributor.h"

#include <cassert>

#include "common/bitvector.h"
#include "obs/flight_recorder.h"

namespace cjoin {

Distributor::Distributor(size_t width_words, size_t max_queries,
                         EpochTracker* epochs, BatchQueue* in,
                         CleanupQueue* cleanup)
    : width_(width_words),
      epochs_(epochs),
      in_(in),
      cleanup_(cleanup) {
  live_.assign(max_queries, nullptr);
  auto& reg = obs::MetricsRegistry::Global();
  obs_routed_ = reg.GetCounter("cjoin_tuples_routed_total",
                               "Fact tuples delivered to aggregators");
  obs_completed_ = reg.GetCounter("cjoin_queries_completed_total",
                                  "Pipeline queries completed normally");
  obs_cancelled_ = reg.GetCounter(
      "cjoin_queries_cancelled_total",
      "Pipeline queries terminated early (cancel/deadline)");
}

void Distributor::ProcessDataBatch(TupleBatch batch) {
  ColumnBlock& block = *batch.block;
  const size_t n = block.live;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* fact_row = block.fact_rows[i];
    const uint8_t* const* dim_rows = block.dim_rows(i);
    bitops::ForEachSetBit(block.bits(i), width_, [&](size_t qid) {
      QueryRuntime* rt = live_[qid];
      // A set bit with no live query can only mean a protocol violation;
      // epoch ordering guarantees the start tuple was processed first.
      assert(rt != nullptr && "tuple routed to unregistered query");
      if (rt != nullptr && rt->aggregator != nullptr) {
        rt->aggregator->Consume(fact_row, dim_rows);
      }
    });
  }
  routed_.fetch_add(n, std::memory_order_relaxed);
  obs_routed_->Add(n);
  epochs_->AddRetired(batch.epoch, n);
}

void Distributor::ProcessControl(const TupleBatch& control) {
  QueryRuntime* rt = control.runtime;
  if (control.kind == BatchKind::kQueryStart) {
    assert(rt->aggregator != nullptr &&
           "admission must create the aggregation operator");
    live_[rt->query_id] = rt;
    if (rt->trace != nullptr) {
      rt->trace->BeginSpan(obs::SpanKind::kStage,
                           (rt->trace_prefix + "dist").c_str(),
                           QueryRuntime::NowNs());
    }
  } else {
    assert(control.kind == BatchKind::kQueryEnd);
    live_[rt->query_id] = nullptr;
    const int64_t done = QueryRuntime::NowNs();
    rt->completed_ns.store(done);
    obs::RecordEvent(obs::EventKind::kQueryDone,
                     (rt->trace_prefix + "dist").c_str(), rt->query_id);
    if (rt->trace != nullptr) {
      rt->trace->EndSpan(obs::SpanKind::kStage,
                         (rt->trace_prefix + "dist").c_str(), done);
    }
    // A query deregistered early (cancelled / deadline-expired) delivers
    // its terminal status instead of a (partial, meaningless) result.
    const TerminalReason reason = rt->terminal.load(std::memory_order_acquire);
    // Counters are bumped before the promise resolves so a caller that
    // wakes from Wait() observes consistent stats.
    if (reason == TerminalReason::kNone) {
      ResultSet rs = rt->aggregator->Finish();
      rt->phase.store(QueryPhase::kCompleted);
      completed_.fetch_add(1, std::memory_order_relaxed);
      obs_completed_->Add();
      rt->Deliver(std::move(rs));
    } else {
      rt->phase.store(QueryPhase::kCancelled);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs_cancelled_->Add();
      rt->Deliver(
          reason == TerminalReason::kDeadline
              ? Status::DeadlineExceeded("query deadline expired mid-lap")
              : Status::Cancelled("query cancelled"));
    }
    cleanup_->Push(rt->query_id);
  }
}

void Distributor::TryAdvance() {
  for (;;) {
    // The control closing the current epoch may fire only once every data
    // tuple of that epoch has been consumed or dropped.
    auto ctrl = pending_controls_.find(current_epoch_);
    if (ctrl == pending_controls_.end() ||
        !epochs_->Complete(current_epoch_)) {
      return;
    }
    ProcessControl(ctrl->second);
    pending_controls_.erase(ctrl);
    epochs_->Recycle(current_epoch_);
    ++current_epoch_;
    // Release any data of the newly opened epoch that arrived early.
    auto it = pending_data_.find(current_epoch_);
    if (it != pending_data_.end()) {
      for (TupleBatch& b : it->second) ProcessDataBatch(std::move(b));
      pending_data_.erase(it);
    }
  }
}

void Distributor::HandleBatch(TupleBatch batch) {
  if (batch.control()) {
    const uint64_t e = batch.epoch;
    pending_controls_.emplace(e, std::move(batch));
  } else if (batch.epoch == current_epoch_) {
    ProcessDataBatch(std::move(batch));
  } else {
    assert(batch.epoch > current_epoch_);
    pending_data_[batch.epoch].push_back(std::move(batch));
  }
  TryAdvance();
}

void Distributor::Run() {
  for (;;) {
    // A timed pop, not a blocking one: the epoch that a held-back control
    // tuple is waiting on can complete via a Filter *dropping* the last
    // outstanding tuples, which produces no downstream batch to wake us.
    // Re-checking TryAdvance on timeout guarantees progress.
    std::optional<TupleBatch> popped =
        in_->PopWithTimeout(std::chrono::microseconds(500));
    if (!popped.has_value()) {
      TryAdvance();
      if (in_->closed() && in_->empty()) break;  // closed and drained
      continue;
    }
    HandleBatch(std::move(*popped));
  }
  // Shutdown: drop anything left unprocessed; the batches return their
  // blocks.
  pending_data_.clear();
  pending_controls_.clear();
}

}  // namespace cjoin
