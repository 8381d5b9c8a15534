// The Distributor (paper §3.1, §3.2.2, §3.3).
//
// Terminal pipeline component: routes each surviving fact tuple to the
// aggregation operator of every query whose bit is set (one virtual
// "output" per concurrent query), handles query-start control tuples
// (sets up the query's aggregation operator) and query-end control tuples
// (finalizes the operator, delivers the result, and notifies the Pipeline
// Manager to run the cleanup of Algorithm 2). It consumes each data
// batch's column block row by row, then drops the batch, which returns
// the block to the free list.
//
// The Distributor is where the §3.3.3 ordering property is enforced: it
// advances through epochs strictly in order (see EpochTracker), buffering
// early data and holding back control tuples until their epoch drains.

#ifndef CJOIN_CJOIN_DISTRIBUTOR_H_
#define CJOIN_CJOIN_DISTRIBUTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cjoin/epoch_tracker.h"
#include "cjoin/query_runtime.h"
#include "cjoin/tuple_slot.h"
#include "common/queue.h"
#include "obs/metrics.h"

namespace cjoin {

/// Query ids whose Algorithm-2 cleanup is due (distributor -> manager).
using CleanupQueue = BoundedQueue<uint32_t>;

class Distributor {
 public:
  Distributor(size_t width_words, size_t max_queries, EpochTracker* epochs,
              BatchQueue* in, CleanupQueue* cleanup);

  /// Thread body; returns when the input queue closes and drains.
  void Run();

  uint64_t tuples_routed() const {
    return routed_.load(std::memory_order_relaxed);
  }
  uint64_t queries_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Queries terminated early (cancelled or deadline-expired).
  uint64_t queries_cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  void HandleBatch(TupleBatch batch);
  void ProcessDataBatch(TupleBatch batch);
  void TryAdvance();
  void ProcessControl(const TupleBatch& control);

  size_t width_;
  EpochTracker* epochs_;
  BatchQueue* in_;
  CleanupQueue* cleanup_;

  /// Live queries by id (installed at query-start, removed at query-end).
  std::vector<QueryRuntime*> live_;

  uint64_t current_epoch_ = 0;
  std::map<uint64_t, std::vector<TupleBatch>> pending_data_;
  /// Held-back control tuples keyed by the epoch they close. Keyed (not
  /// FIFO) because a multi-threaded Stage can reorder two back-to-back
  /// control batches in flight; exactly one control closes each epoch.
  std::map<uint64_t, TupleBatch> pending_controls_;

  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cancelled_{0};

  /// Engine-wide telemetry (registered in the constructor; lock-free).
  obs::Counter* obs_routed_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_DISTRIBUTOR_H_
