#include "cjoin/preprocessor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/bitvector.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"

namespace cjoin {

Preprocessor::Preprocessor(const StarSchema& star, size_t width_words,
                           BlockFreeList* blocks, EpochTracker* epochs,
                           BatchQueue* out, Options options, ScanSlice slice)
    : star_(star),
      width_(width_words),
      num_dims_(star.num_dimensions()),
      blocks_(blocks),
      epochs_(epochs),
      out_(out),
      opts_(options),
      scan_(star.fact(),
            ContinuousScan::Options{options.scan_run_rows, options.disk,
                                    options.reader_id},
            slice),
      admissions_(1024) {
  auto& reg = obs::MetricsRegistry::Global();
  obs_rows_scanned_ = reg.GetCounter("cjoin_preprocessor_rows_scanned_total",
                                     "Fact rows consumed from the scan");
  obs_installed_ = reg.GetCounter("cjoin_queries_registered_total",
                                  "Queries installed into the pipeline");
  obs_active_ = reg.GetGauge("cjoin_active_queries",
                             "Currently registered pipeline queries");
  obs_ck_misses_ = reg.GetCounter(
      "cjoin_checkpoint_misses_total",
      "Completion checkpoints that fired past their exact stream position");
  assert(width_ <= kMaxWidthWords);
  active_.resize(width_ * bitops::kBitsPerWord);
  partition_mask_.resize(star.fact().num_partitions());
  for (auto& m : partition_mask_) m.fill(0);
}

void Preprocessor::RequestAdmission(std::shared_ptr<QueryRuntime> runtime) {
  admissions_.Push(std::move(runtime));
}

void Preprocessor::HandleAdmissions() {
  while (auto rt = admissions_.TryPop()) {
    InstallQuery(std::move(*rt));
  }
}

void Preprocessor::ComputeCheckpoint(const std::vector<uint32_t>& partitions,
                                     ActiveQuery* aq) const {
  const uint32_t num_parts = star_.fact().num_partitions();
  // Needed partitions with a non-empty frozen size this lap.
  std::vector<uint32_t> needed;
  if (partitions.empty()) {
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (scan_.frozen_size(p) > 0) needed.push_back(p);
    }
  } else {
    for (uint32_t p : partitions) {
      if (scan_.frozen_size(p) > 0) needed.push_back(p);
    }
  }
  if (needed.empty()) {
    aq->ck_kind = ActiveQuery::CkKind::kImmediate;
    return;
  }

  const uint32_t p_cur = scan_.current_partition();
  const uint64_t i_cur = scan_.current_index();

  // Rank each candidate completion event by its distance in scan order;
  // the query finishes at the farthest one (see DESIGN.md / §3.3.2).
  uint64_t best_rank = 0;
  bool have = false;
  for (uint32_t p : needed) {
    uint64_t rank;
    ActiveQuery::CkKind kind = ActiveQuery::CkKind::kPassEnd;
    uint64_t lap, index = 0;
    if (p != p_cur) {
      rank = (p + num_parts - p_cur) % num_parts;
      lap = scan_.partition_lap(p) + 1;
    } else if (i_cur == 0) {
      // At the start of p's pass: the current/imminent pass covers it.
      rank = 0;
      lap = scan_.partition_lap(p) + (scan_.pass_started() ? 0 : 1);
    } else if (i_cur >= scan_.frozen_size(p)) {
      // p's pass just ended; the next full pass is a whole lap away.
      rank = num_parts;
      lap = scan_.partition_lap(p) + 1;
    } else {
      // Mid-pass: complete when the scan revisits this exact index.
      rank = num_parts;
      kind = ActiveQuery::CkKind::kRevisitIndex;
      lap = scan_.partition_lap(p) + 1;
      index = i_cur;
    }
    if (!have || rank > best_rank) {
      have = true;
      best_rank = rank;
      aq->ck_kind = kind;
      aq->ck_partition = p;
      aq->ck_lap = lap;
      aq->ck_index = index;
    }
  }
}

void Preprocessor::InstallQuery(std::shared_ptr<QueryRuntime> runtime) {
  const uint32_t qid = runtime->query_id;
  TraceLogf(qid, "pre", "install");
  assert(qid < active_.size() && active_[qid] == nullptr);
  auto aq = std::make_unique<ActiveQuery>();
  aq->runtime = runtime;
  aq->snapshot = runtime->spec.snapshot;
  aq->has_fact_pred = runtime->spec.fact_predicate != nullptr &&
                      !IsTrueLiteral(runtime->spec.fact_predicate);
  ComputeCheckpoint(runtime->spec.partitions, aq.get());

  // The query-start control tuple precedes the query's first fact tuple
  // in the stream (§3.3.1), so emit it before turning the bit on.
  EmitControl(BatchKind::kQueryStart, runtime.get());
  const int64_t now = QueryRuntime::NowNs();
  runtime->registered_ns.store(now);
  runtime->phase.store(QueryPhase::kRegistered);
  if (runtime->trace != nullptr) {
    runtime->trace->BeginSpan(obs::SpanKind::kStage,
                              (runtime->trace_prefix + "pre").c_str(), now);
  }
  obs_installed_->Add();
  obs_active_->Add();

  bitops::SetBit(active_mask_, qid);
  if (runtime->spec.partitions.empty()) {
    for (auto& m : partition_mask_) bitops::SetBit(m.data(), qid);
  } else {
    for (uint32_t p : runtime->spec.partitions) {
      bitops::SetBit(partition_mask_[p].data(), qid);
    }
  }
  snapshot_checks_.emplace_back(qid, aq->snapshot);
  if (aq->has_fact_pred) {
    fact_preds_.push_back(FactPred{qid, runtime->spec.fact_predicate.get()});
  }

  const bool immediate = aq->ck_kind == ActiveQuery::CkKind::kImmediate;
  active_[qid] = std::move(aq);
  active_count_.fetch_add(1, std::memory_order_relaxed);

  if (immediate) {
    // Empty fact table / empty partition set: zero relevant tuples, so
    // the query completes as soon as it starts.
    FinalizeQuery(qid);
  }
}

void Preprocessor::FinalizeQuery(uint32_t qid) {
  TraceLogf(qid, "pre", "finalize");
  ActiveQuery* aq = active_[qid].get();
  assert(aq != nullptr);
  // Close the "pre" span before the end-of-query control leaves this
  // thread: once emitted, the control can race through the pipeline and
  // deliver the query while an after-the-fact EndSpan is still pending,
  // leaving an open span in the completed trace.
  if (aq->runtime->trace != nullptr) {
    aq->runtime->trace->EndSpan(
        obs::SpanKind::kStage, (aq->runtime->trace_prefix + "pre").c_str(),
        QueryRuntime::NowNs());
  }
  // The end-of-query control tuple precedes the wrap-around tuple
  // (§3.3.2), so it is emitted at the current stream position, before
  // clearing the query's bookkeeping.
  EmitControl(BatchKind::kQueryEnd, aq->runtime.get());
  obs_active_->Sub();

  bitops::ClearBit(active_mask_, qid);
  for (auto& m : partition_mask_) bitops::ClearBit(m.data(), qid);
  snapshot_checks_.erase(
      std::remove_if(snapshot_checks_.begin(), snapshot_checks_.end(),
                     [qid](const auto& pr) { return pr.first == qid; }),
      snapshot_checks_.end());
  fact_preds_.erase(
      std::remove_if(fact_preds_.begin(), fact_preds_.end(),
                     [qid](const FactPred& fp) { return fp.qid == qid; }),
      fact_preds_.end());
  active_[qid].reset();
  active_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Preprocessor::PollInterrupts() {
  if (active_count_.load(std::memory_order_relaxed) == 0) return;
  const int64_t now = QueryRuntime::NowNs();
  std::vector<std::pair<uint32_t, TerminalReason>> due;
  for (const auto& pr : snapshot_checks_) {
    const ActiveQuery* aq = active_[pr.first].get();
    if (aq == nullptr) continue;
    QueryRuntime* rt = aq->runtime.get();
    if (rt->cancel_requested.load(std::memory_order_acquire)) {
      due.emplace_back(pr.first, TerminalReason::kCancelled);
    } else if (rt->DeadlinePassed(now)) {
      due.emplace_back(pr.first, TerminalReason::kDeadline);
    }
  }
  for (const auto& [qid, reason] : due) {
    active_[qid]->runtime->terminal.store(reason, std::memory_order_release);
    FinalizeQuery(qid);
  }
}

void Preprocessor::FlushBatch() {
  if (block_ == nullptr) return;
  TupleBatch batch;
  batch.epoch = cur_epoch_;
  batch.block = std::move(block_);
  const size_t n = batch.size();
  epochs_->AddProduced(cur_epoch_, n);
  if (!out_->Push(std::move(batch))) {
    // Queue closed during shutdown; keep epoch accounting balanced. The
    // dropped batch returned its block.
    epochs_->AddRetired(cur_epoch_, n);
  }
}

void Preprocessor::EmitControl(BatchKind kind, QueryRuntime* runtime) {
  FlushBatch();
  epochs_->Close(cur_epoch_);
  TupleBatch control;
  control.kind = kind;
  control.epoch = cur_epoch_;
  control.runtime = runtime;
  out_->Push(std::move(control));
  ++cur_epoch_;
}

void Preprocessor::ProcessRowRange(const ScanEvent& ev, size_t from,
                                   size_t to) {
  if (from >= to) return;
  const size_t stride = star_.fact().row_stride();
  const Schema& fschema = star_.fact().schema();
  const uint64_t* pmask = partition_mask_[ev.partition].data();

  uint64_t tmp[kMaxWidthWords];
  uint64_t skipped = 0;
  for (size_t r = from; r < to; ++r) {
    const uint8_t* base = ev.base + r * stride;
    const RowHeader* hdr = reinterpret_cast<const RowHeader*>(base);
    const uint8_t* fact_row = base + sizeof(RowHeader);

    uint64_t any = 0;
    for (size_t w = 0; w < width_; ++w) {
      tmp[w] = active_mask_[w] & pmask[w];
      any |= tmp[w];
    }
    if (any == 0) {
      ++skipped;
      continue;
    }

    if (!hdr->VisibleToAll()) {
      // Snapshot visibility is a virtual fact predicate (§3.5).
      for (const auto& [qid, snap] : snapshot_checks_) {
        if (bitops::TestBit(tmp, qid) && !hdr->VisibleAt(snap)) {
          bitops::ClearBit(tmp, qid);
        }
      }
    }
    for (const FactPred& fp : fact_preds_) {
      if (bitops::TestBit(tmp, fp.qid) &&
          !fp.pred->EvalBool(fschema, fact_row)) {
        bitops::ClearBit(tmp, fp.qid);
      }
    }
    if (bitops::IsZero(tmp, width_)) {
      ++skipped;
      continue;
    }

    if (block_ == nullptr) block_ = blocks_->Take();
    const size_t i = block_->live++;
    block_->fact_rows[i] = fact_row;
    std::memset(block_->dim_rows(i), 0, num_dims_ * sizeof(const uint8_t*));
    bitops::Copy(block_->bits(i), tmp, width_);
    if (block_->live >= opts_.batch_size) FlushBatch();
  }
  rows_skipped_.fetch_add(skipped, std::memory_order_relaxed);
}

void Preprocessor::ProcessRows(const ScanEvent& ev) {
  rows_scanned_.fetch_add(ev.count, std::memory_order_relaxed);
  obs_rows_scanned_->Add(ev.count);

  // Collect completion checkpoints that fire inside this run. The
  // end-of-query control tuple must precede the wrap-around row, so the
  // run is split at each firing offset.
  std::vector<std::pair<size_t, uint32_t>> fires;  // (offset, qid)
  for (const auto& pr : snapshot_checks_) {
    const uint32_t qid = pr.first;
    const ActiveQuery* aq = active_[qid].get();
    if (aq == nullptr ||
        aq->ck_kind != ActiveQuery::CkKind::kRevisitIndex) {
      continue;
    }
    if (aq->ck_partition != ev.partition || aq->ck_lap != ev.lap) continue;
    if (aq->ck_index < ev.first_index) {
      // Defensive: the exact completion position was already passed (a
      // skipped or re-split run). Finishing at offset 0 is still correct
      // — every row of the query's lap has been seen — but the engine
      // should never get here silently: count and log it.
      obs_ck_misses_->Add(1);
      TraceLogf(qid, "pre",
                "checkpoint miss: ck_index=%llu < run first_index=%llu "
                "(partition=%u lap=%llu); finishing at run start",
                static_cast<unsigned long long>(aq->ck_index),
                static_cast<unsigned long long>(ev.first_index),
                ev.partition, static_cast<unsigned long long>(ev.lap));
      fires.emplace_back(0, qid);
    } else if (aq->ck_index < ev.first_index + ev.count) {
      fires.emplace_back(static_cast<size_t>(aq->ck_index - ev.first_index),
                         qid);
    }
  }
  if (fires.empty()) {
    ProcessRowRange(ev, 0, ev.count);
    return;
  }
  std::sort(fires.begin(), fires.end());
  size_t pos = 0;
  for (const auto& [off, qid] : fires) {
    ProcessRowRange(ev, pos, off);
    pos = off;
    FinalizeQuery(qid);
  }
  ProcessRowRange(ev, pos, ev.count);
}

void Preprocessor::HandlePassEnd(const ScanEvent& ev) {
  std::vector<uint32_t> to_finish;
  for (const auto& pr : snapshot_checks_) {
    const uint32_t qid = pr.first;
    const ActiveQuery* aq = active_[qid].get();
    if (aq == nullptr) continue;
    if (aq->ck_partition != ev.partition) continue;
    if (aq->ck_kind == ActiveQuery::CkKind::kPassEnd &&
        ev.lap >= aq->ck_lap) {
      to_finish.push_back(qid);
    }
  }
  for (uint32_t qid : to_finish) FinalizeQuery(qid);
}

void Preprocessor::Run(const std::atomic<bool>& stop) {
  // Initial coverage: sample the snapshot, then freeze, so every row of
  // the sampled snapshot is inside the frozen ranges (rows are appended
  // before their snapshot is published).
  if (opts_.snapshot_probe) {
    const SnapshotId s = opts_.snapshot_probe();
    scan_.RefreezeNow();
    covered_snapshot_.store(s, std::memory_order_release);
  }

  ScanEvent ev;
  while (!stop.load(std::memory_order_relaxed)) {
    HandleAdmissions();
    PollInterrupts();

    if (active_count_.load(std::memory_order_relaxed) == 0) {
      // Quiescent: the "always-on" scan idles at its current position
      // until a query latches on.
      auto rt = admissions_.PopWithTimeout(std::chrono::milliseconds(2));
      if (rt.has_value()) {
        // No query is mid-cycle, so it is safe to re-freeze here: the
        // incoming query immediately covers everything committed up to
        // now (zero append-visibility staleness from idle).
        if (opts_.snapshot_probe) {
          const SnapshotId s = opts_.snapshot_probe();
          scan_.RefreezeNow();
          covered_snapshot_.store(s, std::memory_order_release);
        }
        InstallQuery(std::move(*rt));
      }
      continue;
    }

    // Pre-sample so that if this Next() wraps the lap (and re-freezes),
    // the coverage bound is a snapshot taken BEFORE the freeze.
    const SnapshotId pre_sample =
        opts_.snapshot_probe ? opts_.snapshot_probe() : kMaxSnapshot;
    const uint64_t laps_before = scan_.table_laps();

    if (!scan_.Next(&ev)) {
      // Fact table empty; any admitted query completes immediately, which
      // InstallQuery already handled. Just wait for work.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (opts_.snapshot_probe && scan_.table_laps() != laps_before) {
      covered_snapshot_.store(pre_sample, std::memory_order_release);
    }
    switch (ev.kind) {
      case ScanEvent::Kind::kRows:
        ProcessRows(ev);
        break;
      case ScanEvent::Kind::kPassEnd:
        HandlePassEnd(ev);
        break;
      case ScanEvent::Kind::kPassStart:
        break;
    }
    const uint64_t laps_now = scan_.table_laps();
    if (laps_now != laps_before) {
      // Lap boundary: every in-flight query's completion checkpoint is one
      // of these; they anchor the timeline's coarse rhythm.
      obs::RecordEvent(obs::EventKind::kLap, opts_.flight_label.c_str(),
                       static_cast<uint32_t>(laps_now));
    }
    laps_done_.store(laps_now, std::memory_order_relaxed);
  }

  // Shutdown: flush what we have and close downstream. Unfinished
  // queries' promises are aborted by CJoinOperator::Stop() after all
  // pipeline threads have joined.
  FlushBatch();
  out_->Close();
  admissions_.Close();
  for (auto& aq : active_) {
    if (aq != nullptr) obs_active_->Sub();
    aq.reset();
  }
}

}  // namespace cjoin
