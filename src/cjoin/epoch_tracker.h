// Epoch accounting: enforces the control/data ordering property of §3.3.3.
//
// "If a control tuple tau' is placed in the output queue of the
//  Preprocessor before (respectively after) a fact tuple tau, then tau'
//  is not processed in the Distributor after (respectively before) tau.
//  This property needs to be enforced by the implementation."
//
// With a multi-threaded Stage, data batches can overtake each other, so
// FIFO queues alone do not provide the property. Instead the Preprocessor
// partitions the stream into *epochs* delimited by control tuples: every
// data tuple is tagged with the epoch it was produced in, and a control
// tuple closes its epoch. The Distributor processes epochs strictly in
// order: a control tuple is held until every data tuple of the epoch it
// closes has been accounted for (consumed by the Distributor or dropped
// by a Filter), and data tuples of later epochs are buffered until their
// epoch opens. Within an epoch, data order is free — aggregation is
// order-insensitive.

#ifndef CJOIN_CJOIN_EPOCH_TRACKER_H_
#define CJOIN_CJOIN_EPOCH_TRACKER_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace cjoin {

/// Per-epoch produced/retired counters in a fixed ring. All methods are
/// thread-safe. Epochs must be created in increasing order and are
/// recycled once complete; the ring bounds the number of epochs in
/// flight (in practice: #queries admitted+finished while tuples from one
/// epoch are still in the pipeline — far below the ring size).
class EpochTracker {
 public:
  explicit EpochTracker(size_t ring_size = 4096)
      : ring_size_(ring_size), ring_(new Cell[ring_size]) {}

  /// Registers `n` produced tuples in epoch `e` (Preprocessor only).
  void AddProduced(uint64_t e, uint64_t n) {
    Cell& c = cell(e);
    c.produced.fetch_add(n, std::memory_order_relaxed);
  }

  /// Declares that epoch `e` will produce no more tuples (Preprocessor,
  /// immediately before emitting the closing control tuple).
  void Close(uint64_t e) {
    cell(e).closed.store(true, std::memory_order_release);
  }

  /// Registers `n` retired tuples of epoch `e` (Filters on drop,
  /// Distributor on consume).
  void AddRetired(uint64_t e, uint64_t n) {
    cell(e).retired.fetch_add(n, std::memory_order_release);
  }

  /// True iff epoch e is closed and every produced tuple was retired.
  bool Complete(uint64_t e) const {
    const Cell& c = cell(e);
    if (!c.closed.load(std::memory_order_acquire)) return false;
    return c.retired.load(std::memory_order_acquire) ==
           c.produced.load(std::memory_order_acquire);
  }

  /// Resets epoch e's counters for ring reuse (Distributor, after it has
  /// advanced past e).
  void Recycle(uint64_t e) {
    Cell& c = cell(e);
    c.produced.store(0, std::memory_order_relaxed);
    c.retired.store(0, std::memory_order_relaxed);
    c.closed.store(false, std::memory_order_relaxed);
  }

  size_t ring_size() const { return ring_size_; }

 private:
  struct Cell {
    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> retired{0};
    std::atomic<bool> closed{false};
  };

  Cell& cell(uint64_t e) { return ring_[e % ring_size_]; }
  const Cell& cell(uint64_t e) const { return ring_[e % ring_size_]; }

  size_t ring_size_;
  std::unique_ptr<Cell[]> ring_;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_EPOCH_TRACKER_H_
