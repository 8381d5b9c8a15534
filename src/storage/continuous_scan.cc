#include "storage/continuous_scan.h"

#include <algorithm>
#include <cassert>

namespace cjoin {

namespace {

/// Fills `event` with the run of rows that starts at row `index` of
/// partition `part`, whose frozen size is `size`: at most max_run_rows
/// rows, never past the end of the page. Charges the optional disk model
/// for the run and returns its length. The caller sets lap and first_tick.
size_t BuildRun(const Table& table, const ContinuousScan::Options& opts,
                uint32_t part, uint64_t index, uint64_t size,
                ScanEvent* event) {
  const size_t rows_per_page = table.rows_per_page();
  const size_t in_page = index % rows_per_page;
  size_t run = std::min<uint64_t>(opts.max_run_rows, size - index);
  run = std::min(run, rows_per_page - in_page);

  const size_t stride = table.row_stride();
  event->kind = ScanEvent::Kind::kRows;
  event->partition = part;
  event->base =
      table.PageData(part, index / rows_per_page) + in_page * stride;
  event->count = run;
  event->first_index = index;
  event->partition_size = size;

  if (opts.disk != nullptr) {
    opts.disk->Acquire(opts.reader_id, static_cast<uint64_t>(run) * stride);
  }
  return run;
}

}  // namespace

ContinuousScan::ContinuousScan(const Table& table, Options options,
                               ScanSlice slice)
    : table_(table), opts_(options), slice_(slice) {
  assert(slice_.count > 0 && slice_.index < slice_.count);
  if (opts_.max_run_rows == 0) opts_.max_run_rows = 1;
  laps_.assign(table_.num_partitions(), 0);
  frozen_sizes_.assign(table_.num_partitions(), 0);
  FreezeSizes();
}

void ContinuousScan::FreezeSizes() {
  frozen_total_ = 0;
  for (uint32_t p = 0; p < table_.num_partitions(); ++p) {
    frozen_sizes_[p] = table_.PartitionRows(p);
    frozen_total_ += frozen_sizes_[p];
  }
}

void ContinuousScan::SkipUnownedPages() {
  if (slice_.count == 1) return;
  const size_t rows_per_page = table_.rows_per_page();
  uint64_t page = index_ / rows_per_page;
  if (slice_.Owns(part_, page)) return;
  do {
    ++page;
  } while (!slice_.Owns(part_, page));
  index_ = page * rows_per_page;
}

bool ContinuousScan::SkipEmptyPartitions() {
  // At most one full sweep; if every partition is frozen-empty, re-freeze
  // (the table may have grown) and give up if still empty.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (uint32_t hops = 0; hops < table_.num_partitions(); ++hops) {
      if (frozen_sizes_[part_] > 0) return true;
      ++part_;
      if (part_ >= table_.num_partitions()) {
        part_ = 0;
        ++table_laps_;
        FreezeSizes();
      }
    }
    FreezeSizes();
  }
  return frozen_total_ > 0;
}

bool ContinuousScan::Next(ScanEvent* event) {
  if (index_ == 0 && need_pass_start_) {
    if (!SkipEmptyPartitions()) return false;
    need_pass_start_ = false;
    ++laps_[part_];
    event->kind = ScanEvent::Kind::kPassStart;
    event->partition = part_;
    event->lap = laps_[part_];
    event->count = 0;
    return true;
  }

  SkipUnownedPages();  // the pass's first page may be another slice's
  const uint64_t size = frozen_sizes_[part_];
  if (index_ >= size) {
    // Partition pass complete.
    event->kind = ScanEvent::Kind::kPassEnd;
    event->partition = part_;
    event->lap = laps_[part_];
    event->count = 0;
    index_ = 0;
    ++part_;
    if (part_ >= table_.num_partitions()) {
      part_ = 0;
      ++table_laps_;
      FreezeSizes();
    }
    need_pass_start_ = true;
    return true;
  }

  const size_t run = BuildRun(table_, opts_, part_, index_, size, event);
  event->lap = laps_[part_];
  event->first_tick = tick_;
  index_ += run;
  tick_ += run;
  // Skip now, not before the next run: ComputeCheckpoint may read
  // current_index() in between (see current_index()).
  SkipUnownedPages();
  return true;
}

SinglePassScan::SinglePassScan(const Table& table,
                               ContinuousScan::Options options,
                               std::vector<uint32_t> partitions)
    : table_(table), opts_(options), parts_(std::move(partitions)) {
  if (opts_.max_run_rows == 0) opts_.max_run_rows = 1;
  if (parts_.empty()) {
    for (uint32_t p = 0; p < table_.num_partitions(); ++p) {
      parts_.push_back(p);
    }
  }
}

bool SinglePassScan::Next(ScanEvent* event) {
  while (part_cursor_ < parts_.size() &&
         index_ >= table_.PartitionRows(parts_[part_cursor_])) {
    ++part_cursor_;
    index_ = 0;
  }
  if (part_cursor_ >= parts_.size()) return false;

  const uint32_t part = parts_[part_cursor_];
  const size_t run = BuildRun(table_, opts_, part, index_,
                              table_.PartitionRows(part), event);
  event->lap = 1;
  event->first_tick = index_;
  index_ += run;
  return true;
}

}  // namespace cjoin
