// The "always-on" continuous scan (paper §3.1).
//
// CJOIN receives its input from a continuous scan of the fact table: when
// the scan reaches the end it wraps around, turning the fact table into an
// endless stream. Queries latch on at an arbitrary position and complete
// when the scan returns to that position (§3.3), so the scan must
// (correctness property 1, §3.3.3) return fact tuples in the same order on
// every lap.
//
// The scan iterates partitions in order and rows within each partition in
// order, delivering *runs*: maximal row ranges within one page. It also
// emits explicit pass-start / pass-end events at partition boundaries;
// the Preprocessor uses these to implement per-query completion
// checkpoints, including the partition-limited early termination of §5.
//
// Rows appended to the table while a lap is in flight are not observed
// until the next lap: partition sizes are frozen at each lap start, which
// keeps the per-lap row universe stable (appended rows are invisible to
// older snapshots anyway under MVCC).
//
// A scan may deliver only a slice of the table (ScanSlice): slice s of N
// owns page g of partition p iff (p + g) % N == s. N slices cover every
// row exactly once per lap, in a fixed order, so N scans of one table can
// feed N parallel CJOIN pipelines with no copy of the data. A slice still
// emits every non-empty partition's pass-start / pass-end events, owned
// pages or not.

#ifndef CJOIN_STORAGE_CONTINUOUS_SCAN_H_
#define CJOIN_STORAGE_CONTINUOUS_SCAN_H_

#include <cstdint>
#include <vector>

#include "storage/sim_disk.h"
#include "storage/table.h"

namespace cjoin {

/// One step of the continuous scan: either a run of rows or a
/// partition-pass boundary event.
struct ScanEvent {
  enum class Kind {
    kRows,       ///< `base/count/...` describe a run of consecutive rows
    kPassStart,  ///< the scan is entering partition `partition`, pass `lap`
    kPassEnd,    ///< the scan finished partition `partition`, pass `lap`
  };

  Kind kind = Kind::kRows;
  uint32_t partition = 0;
  /// Pass number of this partition (1 on the first visit).
  uint64_t lap = 0;

  // --- kRows only ---
  /// First row slot (RowHeader followed by payload). Rows are
  /// `stride` bytes apart.
  const uint8_t* base = nullptr;
  size_t count = 0;
  /// Index (within the partition) of the first row of the run.
  uint64_t first_index = 0;
  /// Frozen size of this partition for the current table lap.
  uint64_t partition_size = 0;
  /// Global tick (total rows delivered before this run) of the first row.
  uint64_t first_tick = 0;
};

/// The pages one scan delivers: page `page` of partition `partition`
/// belongs to slice `index` of `count` iff (partition + page) % count ==
/// index. Adding the partition spreads single-page partitions across
/// slices. The default {0, 1} is the whole table.
struct ScanSlice {
  size_t index = 0;
  size_t count = 1;

  bool Owns(uint32_t partition, uint64_t page) const {
    return (partition + page) % count == index;
  }
};

/// Endless cyclic scan over a Table (or one slice of it). Single-consumer;
/// the CJOIN Preprocessor is the only caller.
class ContinuousScan {
 public:
  struct Options {
    /// Maximum rows per kRows event (also the unit of SimDisk charging).
    size_t max_run_rows = 1024;
    /// Optional shared-disk model; nullptr scans at memory speed.
    SimDisk* disk = nullptr;
    /// Identifies this scan to the disk model.
    uint64_t reader_id = 0;
  };

  ContinuousScan(const Table& table, Options options, ScanSlice slice = {});
  explicit ContinuousScan(const Table& table)
      : ContinuousScan(table, Options{}) {}

  /// Produces the next event. Returns false only if the table has no rows
  /// at all (empty tables produce no stream).
  bool Next(ScanEvent* event);

  /// Current position: the partition/index of the next row to deliver.
  /// After every run the index is stepped past pages the slice does not
  /// own, so it always lies in an owned page (or is 0 before a pass's
  /// first run), possibly at or past the frozen size. A completion
  /// checkpoint stored at this index therefore names a row the next lap
  /// delivers; one on an unowned page would never be revisited and its
  /// query would never complete.
  uint32_t current_partition() const { return part_; }
  uint64_t current_index() const { return index_; }
  /// Global tick of the next row to deliver (rows this slice delivered).
  uint64_t tick() const { return tick_; }
  /// Number of completed passes of partition p (i.e. lap counter).
  uint64_t partition_lap(uint32_t p) const { return laps_[p]; }
  /// Frozen size of partition p for the current table lap.
  uint64_t frozen_size(uint32_t p) const { return frozen_sizes_[p]; }
  /// Sum of frozen partition sizes (rows per full lap).
  uint64_t frozen_total() const { return frozen_total_; }
  /// Number of completed full table laps.
  uint64_t table_laps() const { return table_laps_; }
  /// True iff the kPassStart event of the current partition pass has been
  /// delivered (i.e. partition_lap(current_partition()) names the pass in
  /// progress rather than the previous one).
  bool pass_started() const { return !need_pass_start_; }

  /// Re-freezes partition sizes at the current position, making rows
  /// appended since the last lap freeze immediately scannable. Only safe
  /// when no query is mid-cycle (the caller must guarantee it — the
  /// Preprocessor invokes this while quiescent); sizes only grow, so
  /// indices remain stable.
  void RefreezeNow() { FreezeSizes(); }

  const Table& table() const { return table_; }

 private:
  /// Re-freezes partition sizes at a table lap boundary.
  void FreezeSizes();
  /// Moves index_ to the first row of the next page this slice owns
  /// (index_ itself when its page is owned).
  void SkipUnownedPages();
  /// Advances part_ past empty partitions; wraps the table lap.
  /// Returns false if all partitions are empty.
  bool SkipEmptyPartitions();

  const Table& table_;
  Options opts_;
  ScanSlice slice_;
  std::vector<uint64_t> frozen_sizes_;
  uint64_t frozen_total_ = 0;
  std::vector<uint64_t> laps_;

  uint32_t part_ = 0;
  uint64_t index_ = 0;
  uint64_t tick_ = 0;
  uint64_t table_laps_ = 0;
  bool need_pass_start_ = true;
};

/// One-shot sequential scan used by the query-at-a-time baseline: visits
/// every row of the table exactly once (no wrap), charging the optional
/// disk model per run.
class SinglePassScan {
 public:
  /// Scans all partitions, or only `partitions` when non-empty (partition
  /// pruning, §5).
  SinglePassScan(const Table& table, ContinuousScan::Options options = {},
                 std::vector<uint32_t> partitions = {});

  /// Next run of rows; false when the table is exhausted.
  bool Next(ScanEvent* event);

 private:
  const Table& table_;
  ContinuousScan::Options opts_;
  /// Partitions to visit, in order.
  std::vector<uint32_t> parts_;
  size_t part_cursor_ = 0;
  uint64_t index_ = 0;
};

}  // namespace cjoin

#endif  // CJOIN_STORAGE_CONTINUOUS_SCAN_H_
