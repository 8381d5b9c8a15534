// Bounded multi-producer / multi-consumer queue with batch transfer and
// wakeup hysteresis (paper §4).
//
// The CJOIN pipeline links its components (Preprocessor -> Stage(s) ->
// Distributor) with these queues. Two of the paper's implementation
// principles live here:
//
//  * "reduce the overhead of queue synchronization by having each thread
//    retrieve or deposit tuples in batches" — PushBatch/PopBatch move many
//    items under one lock acquisition;
//  * "wake up a consumer thread only when its input queue is almost full
//    [and] resume the producer only when its output queue is almost empty"
//    — the wake watermarks are configurable (Options::consumer_wake_depth /
//    producer_wake_space). To keep the queue live when a producer goes
//    quiet below the watermark, blocked waiters use a bounded timed wait
//    and re-check, so hysteresis is a throughput optimization, never a
//    correctness hazard.

#ifndef CJOIN_COMMON_QUEUE_H_
#define CJOIN_COMMON_QUEUE_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/flight_recorder.h"

namespace cjoin {

/// Bounded blocking FIFO queue. All methods are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  struct Options {
    /// Maximum number of items held.
    size_t capacity = 1024;
    /// A sleeping consumer is signalled once at least this many items are
    /// queued (or the queue is flushed/closed). 1 disables hysteresis.
    size_t consumer_wake_depth = 1;
    /// A sleeping producer is signalled once at least this much free space
    /// exists. 1 disables hysteresis.
    size_t producer_wake_space = 1;
    /// Upper bound on a single sleep; waiters re-check after this long even
    /// without a signal so watermarks cannot strand the last items.
    std::chrono::microseconds wait_slice = std::chrono::microseconds(500);
    /// Flight-recorder identity. When non-empty, every push/pop records
    /// a timeline event carrying the observed depth (one event per
    /// batch call); empty queues stay invisible to the recorder.
    std::string name;
  };

  static Options WithCapacity(size_t capacity) {
    Options o;
    o.capacity = capacity;
    return o;
  }

  BoundedQueue() : BoundedQueue(Options{}) {}
  explicit BoundedQueue(Options opts) : opts_(opts) {
    if (opts_.capacity == 0) opts_.capacity = 1;
    if (opts_.consumer_wake_depth == 0) opts_.consumer_wake_depth = 1;
    if (opts_.producer_wake_space == 0) opts_.producer_wake_space = 1;
  }
  explicit BoundedQueue(size_t capacity) : BoundedQueue(WithCapacity(capacity)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is space, then enqueues. Returns false iff the
  /// queue was closed (the item is dropped).
  bool Push(T item) EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    while (items_.size() >= opts_.capacity && !closed_) {
      not_full_.WaitFor(mu_, opts_.wait_slice);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    NotePush();
    MaybeWakeConsumer();
    return true;
  }

  /// Enqueues all of `batch` (blocking as needed, possibly in chunks).
  /// Returns the number of items accepted; fewer than batch.size() only if
  /// the queue was closed mid-way.
  size_t PushBatch(std::vector<T>& batch) EXCLUDES(mu_) {
    size_t pushed = 0;
    MutexLock lk(&mu_);
    while (pushed < batch.size()) {
      while (items_.size() >= opts_.capacity && !closed_) {
        not_full_.WaitFor(mu_, opts_.wait_slice);
      }
      if (closed_) break;
      while (pushed < batch.size() && items_.size() < opts_.capacity) {
        items_.push_back(std::move(batch[pushed]));
        ++pushed;
      }
      NotePush();
      MaybeWakeConsumer();
    }
    return pushed;
  }

  /// Blocks until an item is available or the queue is closed-and-drained.
  /// Returns nullopt in the latter case.
  std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    while (items_.empty() && !closed_) {
      not_empty_.WaitFor(mu_, opts_.wait_slice);
    }
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    NotePop();
    MaybeWakeProducer();
    return out;
  }

  /// Pops up to `max_items` items into `out` (appending). Blocks until at
  /// least one item is available or the queue is closed-and-drained.
  /// Returns the number of items popped (0 means closed and empty).
  size_t PopBatch(std::vector<T>& out, size_t max_items) EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    while (items_.empty() && !closed_) {
      not_empty_.WaitFor(mu_, opts_.wait_slice);
    }
    size_t n = 0;
    while (n < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    if (n > 0) {
      NotePop();
      MaybeWakeProducer();
    }
    return n;
  }

  /// Pop that waits at most `timeout`; nullopt on timeout, close, or
  /// empty-after-timeout.
  template <typename Rep, typename Period>
  std::optional<T> PopWithTimeout(std::chrono::duration<Rep, Period> timeout)
      EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lk(&mu_);
    while (items_.empty() && !closed_) {
      if (not_empty_.WaitUntil(mu_, deadline) == std::cv_status::timeout &&
          items_.empty()) {
        return std::nullopt;
      }
    }
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    NotePop();
    MaybeWakeProducer();
    return out;
  }

  /// Non-blocking pop; nullopt if empty (even when open).
  std::optional<T> TryPop() EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    NotePop();
    MaybeWakeProducer();
    return out;
  }

  /// Non-blocking: moves every queued item into `out` (appending) under
  /// one lock hold. Returns the number of items moved (0 if empty).
  size_t TryPopAll(std::vector<T>& out) EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    const size_t n = items_.size();
    if (n == 0) return 0;
    for (T& item : items_) out.push_back(std::move(item));
    items_.clear();
    NotePop();
    MaybeWakeProducer();
    return n;
  }

  /// Wakes all waiters regardless of watermarks. Producers call this after
  /// their final Push when running with hysteresis enabled.
  void Flush() EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  /// Closes the queue: subsequent pushes fail, pops drain remaining items
  /// then return empty. Idempotent.
  void Close() EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return closed_;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

  size_t capacity() const { return opts_.capacity; }
  const std::string& name() const { return opts_.name; }

  /// Highest depth observed since the last call; reading re-arms the
  /// mark at the current depth (reset-on-read), so each scrape reports
  /// the peak within its own interval.
  size_t HighWatermark() EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    const size_t hw = high_watermark_;
    high_watermark_ = items_.size();
    return hw;
  }

 private:
  /// Both hooks run with mu_ held, right after the deque changed.
  void NotePush() REQUIRES(mu_) {
    if (items_.size() > high_watermark_) high_watermark_ = items_.size();
    if (!opts_.name.empty()) {
      obs::RecordEvent(obs::EventKind::kQueuePush, opts_.name.c_str(),
                       static_cast<uint32_t>(items_.size()));
    }
  }
  void NotePop() REQUIRES(mu_) {
    if (!opts_.name.empty()) {
      obs::RecordEvent(obs::EventKind::kQueuePop, opts_.name.c_str(),
                       static_cast<uint32_t>(items_.size()));
    }
  }

  void MaybeWakeConsumer() REQUIRES(mu_) {
    if (items_.size() >= opts_.consumer_wake_depth ||
        items_.size() >= opts_.capacity) {
      not_empty_.NotifyAll();
    }
  }
  void MaybeWakeProducer() REQUIRES(mu_) {
    const size_t space = opts_.capacity - items_.size();
    if (space >= opts_.producer_wake_space || items_.empty()) {
      not_full_.NotifyAll();
    }
  }

  Options opts_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  size_t high_watermark_ GUARDED_BY(mu_) = 0;  ///< reset on read
};

}  // namespace cjoin

#endif  // CJOIN_COMMON_QUEUE_H_
