#include "cjoin/stage.h"

#include <algorithm>
#include <cstring>

#include "cjoin/query_runtime.h"
#include "common/bitvector.h"
#include "common/mutex.h"
#include "obs/flight_recorder.h"

namespace cjoin {

Stage::Stage(std::string name, const Schema* fact_schema, size_t width_words,
             std::shared_ptr<const FilterOrder> filters, BatchQueue* in,
             BatchQueue* out, bool owns_output, EpochTracker* epochs)
    : name_(std::move(name)),
      fact_schema_(fact_schema),
      width_(width_words),
      order_(std::move(filters)),
      in_(in),
      out_(out),
      owns_output_(owns_output),
      epochs_(epochs) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string label = obs::LabelPair("stage", name_);
  batch_ns_ = reg.GetHistogram("cjoin_stage_batch_ns",
                               "Per-batch filter time by pipeline stage",
                               label);
  tuples_dropped_ = reg.GetCounter(
      "cjoin_stage_tuples_dropped_total",
      "Fact tuples dropped by a stage's filters", label);
}

void Stage::Start(size_t num_threads) {
  live_workers_.store(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    // The worker's flight-recorder track name; fixed here so the loop
    // never touches threads_ concurrently with this emplacing loop.
    std::string track = thread_label_.empty() ? name_ : thread_label_;
    if (num_threads > 1) track += "." + std::to_string(i);
    threads_.emplace_back(
        [this, track = std::move(track)] { WorkerLoop(track); });
  }
}

void Stage::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

namespace {

/// Hoisted foreign-key load: the column's offset and physical width are
/// resolved once per filter, not per tuple (what Schema::GetIntAny would
/// redo for every probe).
inline int64_t LoadFkKey(const uint8_t* row, uint32_t offset, bool is_i32) {
  if (is_i32) {
    int32_t v;
    std::memcpy(&v, row + offset, sizeof(v));
    return static_cast<int64_t>(v);
  }
  int64_t v;
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

}  // namespace

size_t Stage::FilterBatch(ColumnBlock* block, const FilterOrder& filters) {
  const size_t in_batch = block->live;
  size_t live = in_batch;
  const size_t probe_batch = std::min(probe_batch_, kGatherCap);

  for (Filter* f : filters) {
    if (live == 0) break;
    DimensionHashTable* table = f->table.get();
    const uint64_t* comp = table->complement();
    const size_t dim_index = f->dim_index;
    const Column& fk = fact_schema_->column(f->fact_fk_col);
    const uint32_t fk_offset = fk.offset;
    const bool fk_is_i32 = fk.type == DataType::kInt32;

    // Probe-skipping optimization (§3.2.2): if every query that tuple i
    // is still relevant to ignores D_j, the filtering vector is all-ones
    // on those bits — skip the probe.
    auto needs_probe = [&](size_t i) {
      const uint64_t* bits = block->bits(i);
      uint64_t relevant = 0;
      for (size_t w = 0; w < width_; ++w) {
        relevant |= bits[w] & ~bitops::AtomicLoadWord(comp, w);
      }
      return relevant != 0;
    };
    // ANDs the probe result into tuple i; false when the tuple is dead.
    auto apply = [&](size_t i, const DimensionHashTable::Entry* entry) {
      if (entry != nullptr) block->dim_rows(i)[dim_index] = entry->row;
      return bitops::AndIntoAtomicSrc(
          block->bits(i), entry != nullptr ? entry->bits : comp, width_);
    };
    // Survivors are copied down to the write cursor `out` (always <= the
    // tuple being read); a dead tuple is simply not copied.
    size_t out = 0;
    auto keep = [&](size_t i) {
      if (out != i) block->MoveRow(out, i);
      ++out;
    };

    // Hold the shared lock for the whole batch: entry pointers stay valid
    // and the per-probe cost is one uncontended atomic in the common case.
    ReaderMutexLock lk(&table->mutex());

    if (probe_batch <= 1) {
      // Scalar arm (probe_batch_size=1): one table probe per tuple, each
      // eating its full memory latency. Kept as the A/B reference for
      // bench_dim_probe and the byte-identity tests.
      for (size_t i = 0; i < live; ++i) {
        if (needs_probe(i) &&
            !apply(i, table->ProbeLocked(LoadFkKey(block->fact_rows[i],
                                                   fk_offset, fk_is_i32)))) {
          continue;
        }
        keep(i);
      }
    } else {
      // Batched arm: gather -> batch-probe -> resolve. The gather pass
      // applies the probe-skip test and collects the keys of the tuples
      // that do need a probe; ProbeBatchLocked then overlaps all their
      // bucket fetches via software prefetch; the resolve pass walks the
      // gathered range in order, so compaction never overwrites a tuple
      // it has yet to resolve. Survivors (and therefore every query
      // result) are identical to the scalar arm.
      size_t cand[kGatherCap];
      int64_t keys[kGatherCap];
      const DimensionHashTable::Entry* ents[kGatherCap];
      size_t r = 0;
      while (r < live) {
        const size_t first = r;
        size_t m = 0;
        for (; r < live && m < probe_batch; ++r) {
          if (!needs_probe(r)) continue;
          keys[m] = LoadFkKey(block->fact_rows[r], fk_offset, fk_is_i32);
          cand[m++] = r;
        }
        table->ProbeBatchLocked(keys, ents, m);
        size_t j = 0;
        for (size_t i = first; i < r; ++i) {
          if (j < m && cand[j] == i && !apply(i, ents[j++])) continue;
          keep(i);
        }
      }
    }

    f->tuples_in.fetch_add(live, std::memory_order_relaxed);
    f->tuples_dropped.fetch_add(live - out, std::memory_order_relaxed);
    live = out;
  }

  block->live = live;
  return in_batch - live;
}

void Stage::WorkerLoop(const std::string& track) {
  obs::RegisterThread(track);
  for (;;) {
    // Sleep/wake events bracket the blocking pop: the dump pairs each
    // wake with the following sleep into a "busy" timeline slice.
    obs::RecordEvent(obs::EventKind::kStageSleep, track.c_str());
    std::optional<TupleBatch> popped = in_->Pop();
    if (!popped.has_value()) break;  // closed and drained
    TupleBatch batch = std::move(*popped);
    obs::RecordEvent(obs::EventKind::kStageWake, track.c_str(),
                     static_cast<uint32_t>(batch.size()));
    batches_.fetch_add(1, std::memory_order_relaxed);

    if (batch.control()) {
      // Control tuples pass through unfiltered (§3.3.1). The query's own
      // start/end controls passing this stage bound its `stage:` span.
      QueryRuntime* rt = batch.runtime;
      if (rt != nullptr && rt->trace != nullptr) {
        const std::string label = rt->trace_prefix + name_;
        if (batch.kind == BatchKind::kQueryStart) {
          rt->trace->BeginSpan(obs::SpanKind::kStage, label.c_str(),
                               obs::NowNs());
        } else {
          rt->trace->EndSpan(obs::SpanKind::kStage, label.c_str(),
                             obs::NowNs());
        }
      }
      // Control tuples are not epoch-counted (EmitControl closes the
      // epoch before the control tuple enters the pipeline), so unlike
      // the data path below there is no AddRetired to balance here.
      if (!out_->Push(std::move(batch))) break;
      continue;
    }

    const int64_t t0 = obs::MetricsEnabled() ? obs::NowNs() : 0;
    std::shared_ptr<const FilterOrder> order = order_.Acquire();
    const size_t dropped = FilterBatch(batch.block.get(), *order);
    if (t0 != 0) {
      batch_ns_->Record(static_cast<uint64_t>(obs::NowNs() - t0));
      if (dropped > 0) tuples_dropped_->Add(dropped);
    }
    if (dropped > 0) epochs_->AddRetired(batch.epoch, dropped);
    // A batch with no survivor dies here and returns its block.
    if (batch.size() > 0) {
      const uint64_t epoch = batch.epoch;
      const size_t n = batch.size();
      if (!out_->Push(std::move(batch))) {
        // Downstream closed during shutdown; balance the accounting.
        epochs_->AddRetired(epoch, n);
        break;
      }
    }
  }
  if (live_workers_.fetch_sub(1) == 1 && owns_output_) {
    out_->Close();
  }
}

}  // namespace cjoin
