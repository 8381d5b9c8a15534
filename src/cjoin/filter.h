// Filters and filter ordering (paper §3.2.2, §3.4).
//
// One Filter exists per dimension of the star schema for the lifetime of
// the pipeline. A dimension referenced by no current query degenerates to
// a two-word bit test (the probe-skipping optimization of §3.2.2 with
// b_Dj = all-ones), so the fixed filter set costs nothing — dynamic
// insertion/removal of Filters (Algorithms 1/2, lines 17-18 / 10-13)
// degenerates to complement-bitmap updates (b_Dj in dim_hash_table.h).
//
// The *order* of filters is the run-time-optimized quantity (§3.4): an
// immutable ordering vector swapped atomically by the Pipeline Manager;
// workers pin the current order for the duration of one batch.

#ifndef CJOIN_CJOIN_FILTER_H_
#define CJOIN_CJOIN_FILTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cjoin/dim_hash_table.h"

namespace cjoin {

/// One filter: a dimension hash table plus the fact FK column to probe
/// with, and drop statistics for adaptive ordering.
struct Filter {
  size_t dim_index = 0;
  size_t fact_fk_col = 0;
  std::unique_ptr<DimensionHashTable> table;

  /// Statistics window (relaxed; sampled and decayed by the manager).
  std::atomic<uint64_t> tuples_in{0};
  std::atomic<uint64_t> tuples_dropped{0};

  /// Observed drop rate in the current window.
  double DropRate() const {
    const uint64_t in = tuples_in.load(std::memory_order_relaxed);
    if (in == 0) return 0.0;
    return static_cast<double>(
               tuples_dropped.load(std::memory_order_relaxed)) /
           static_cast<double>(in);
  }

  /// Exponential decay of the window (manager thread).
  void DecayStats() {
    tuples_in.store(tuples_in.load(std::memory_order_relaxed) / 2,
                    std::memory_order_relaxed);
    tuples_dropped.store(
        tuples_dropped.load(std::memory_order_relaxed) / 2,
        std::memory_order_relaxed);
  }
};

/// An immutable ordering of filters, atomically published.
using FilterOrder = std::vector<Filter*>;

/// Holder for the active order; readers Acquire() per batch, the manager
/// Publish()es a new order. (std::atomic<shared_ptr> free functions.)
class FilterOrderRef {
 public:
  explicit FilterOrderRef(std::shared_ptr<const FilterOrder> initial)
      : order_(std::move(initial)) {}

  std::shared_ptr<const FilterOrder> Acquire() const {
    return std::atomic_load_explicit(&order_, std::memory_order_acquire);
  }

  void Publish(std::shared_ptr<const FilterOrder> next) {
    std::atomic_store_explicit(&order_, std::move(next),
                               std::memory_order_release);
  }

 private:
  std::shared_ptr<const FilterOrder> order_;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_FILTER_H_
