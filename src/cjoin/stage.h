// Stages: the thread mapping of Filters (paper §4).
//
// "Our implementation allows for a flexible mapping of Filters to threads
//  by collapsing multiple adjacent Filters to a Stage (to reduce the
//  overhead of passing tuples between the threads) and assigning multiple
//  threads to each Stage (to increase parallelism)."
//
// A Stage owns an ordered subset of the pipeline's Filters, an input
// queue, and an output sink (the next Stage's queue, or the Distributor's
// queue for the last Stage). Each worker thread pops a batch, runs it
// through the Stage's filters (probing dimension hash tables and ANDing
// bit-vectors, §3.2.2), and pushes the survivors on in the same block.
// Each filter compacts the block's columns with a write cursor, so a dead
// tuple is one the cursor does not copy forward. A batch with no survivor
// dies in the stage, which returns its block to the free list.
//
//   * horizontal configuration: one Stage boxing all Filters, N threads;
//   * vertical configuration: one Stage per Filter;
//   * hybrid: arbitrary boxing.

#ifndef CJOIN_CJOIN_STAGE_H_
#define CJOIN_CJOIN_STAGE_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cjoin/epoch_tracker.h"
#include "cjoin/filter.h"
#include "cjoin/tuple_slot.h"
#include "obs/metrics.h"
#include "storage/schema.h"

namespace cjoin {

/// One stage of the filter pipeline. Start() spawns the worker threads;
/// they exit when the input queue closes and drains, closing the output
/// queue when the last worker leaves (if `owns_output`).
class Stage {
 public:
  Stage(std::string name, const Schema* fact_schema, size_t width_words,
        std::shared_ptr<const FilterOrder> filters, BatchQueue* in,
        BatchQueue* out, bool owns_output, EpochTracker* epochs);

  /// Publishes a new filter order for this stage (manager thread; §3.4).
  void SetFilterOrder(std::shared_ptr<const FilterOrder> order) {
    order_.Publish(std::move(order));
  }

  std::shared_ptr<const FilterOrder> filter_order() const {
    return order_.Acquire();
  }

  /// Flight-recorder / OS thread-track label for this stage's workers
  /// (e.g. "s2/stage0"). Defaults to the stage name; the operator sets
  /// a shard-qualified label before Start().
  void set_thread_label(std::string label) {
    thread_label_ = std::move(label);
  }

  /// Upper bound on FilterBatch's candidate gather (stack scratch size);
  /// ProbeBatchLocked pipelines internally in kMaxBatch chunks.
  static constexpr size_t kGatherCap = 128;

  /// Probe batch width for FilterBatch's gather→prefetch→resolve
  /// pipeline. <=1 selects the scalar probe loop; values above
  /// kGatherCap are clamped. Set before Start().
  void set_probe_batch_size(size_t n) { probe_batch_ = n; }

  void Start(size_t num_threads);
  void Join();

  /// Batches processed (for tests/metrics).
  uint64_t batches_processed() const {
    return batches_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  void WorkerLoop(const std::string& track);
  /// Filters `block` in place, compacting survivors to its front;
  /// returns the number of dropped tuples.
  size_t FilterBatch(ColumnBlock* block, const FilterOrder& filters);

  std::string name_;
  std::string thread_label_;
  const Schema* fact_schema_;
  size_t width_;
  FilterOrderRef order_;
  BatchQueue* in_;
  BatchQueue* out_;
  bool owns_output_;
  EpochTracker* epochs_;
  size_t probe_batch_ = 128;

  std::vector<std::thread> threads_;
  std::atomic<size_t> live_workers_{0};
  std::atomic<uint64_t> batches_{0};
  /// Engine-wide per-stage-name telemetry (registered once in the
  /// constructor; recording is lock-free).
  obs::LatencyHistogram* batch_ns_ = nullptr;
  obs::Counter* tuples_dropped_ = nullptr;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_STAGE_H_
