// In-flight tuple representation (paper §3.2.2, §4).
//
// Every fact tuple moving through the pipeline carries the fact row
// pointer, the dimension-row pointers that Filters attach (§3.2.2 "attach
// to tau memory pointers to the joining dimension tuples"), and the query
// bit-vector b_tau. Tuples travel in batches, the queue transfer unit of
// §4, and a data batch owns its tuples as the columns of one ColumnBlock:
//
//   fact_rows   rows x 1 pointer
//   bits        rows x width_words (tuple i's vector is bits(i))
//   dim_rows    rows x num_dims (tuple i's attached rows are dim_rows(i),
//               the array a StarAggregator consumes)
//   live        rows [0, live) hold tuples
//
// The layout follows kuzu's FactorizedTable::allocateDataBlocks: fixed
// blocks filled by append, with an entry count. The Preprocessor appends
// rows in place. A Stage compacts all three columns with a write cursor,
// so dropping a tuple is a copy it skips. The Distributor consumes the
// block, and the block goes back to the BlockFreeList when its batch is
// destroyed, on whichever thread and path that happens.
//
// Paper §4 reserves and releases each tuple "using bitmap operations".
// Here that cost set the scan rate: on ssb_n128 every tuple made atomic
// read-modify-writes on bitmap words that the scan thread and four stage
// threads all wrote. Reserving a block per batch instead removes every
// per-tuple atomic; README.md ("Fact tuples in column blocks") gives the
// measurements.
//
// Control tuples (query start/end, §3.3) are batches of their own kind.
// They carry the query's runtime and no block, so emitting one never
// waits for memory. They travel through the same queues as data, and
// EpochTracker orders them against it.

#ifndef CJOIN_CJOIN_TUPLE_SLOT_H_
#define CJOIN_CJOIN_TUPLE_SLOT_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/queue.h"

namespace cjoin {

struct QueryRuntime;

/// Column storage for up to `rows` in-flight tuples (see the file comment).
struct ColumnBlock {
  ColumnBlock(size_t rows, size_t width_words, size_t num_dims)
      : width(width_words),
        dims(num_dims),
        fact_rows(new const uint8_t*[rows]),
        bit_words(new uint64_t[rows * width_words]),
        dim_ptrs(new const uint8_t*[rows * num_dims]) {}

  uint64_t* bits(size_t i) { return bit_words.get() + i * width; }
  const uint8_t** dim_rows(size_t i) { return dim_ptrs.get() + i * dims; }

  /// Copies tuple `from` over tuple `to`: how a Stage keeps a survivor
  /// while it compacts the block.
  void MoveRow(size_t to, size_t from) {
    fact_rows[to] = fact_rows[from];
    std::memcpy(bits(to), bits(from), width * sizeof(uint64_t));
    std::memcpy(dim_rows(to), dim_rows(from), dims * sizeof(const uint8_t*));
  }

  const size_t width;
  const size_t dims;
  std::unique_ptr<const uint8_t*[]> fact_rows;
  std::unique_ptr<uint64_t[]> bit_words;
  std::unique_ptr<const uint8_t*[]> dim_ptrs;
  size_t live = 0;
  ColumnBlock* next = nullptr;  ///< free-list link
};

class BlockFreeList;

/// Deleter that returns a block to the free list it came from.
struct BlockReturn {
  BlockFreeList* list = nullptr;
  void operator()(ColumnBlock* block) const;
};
using BlockPtr = std::unique_ptr<ColumnBlock, BlockReturn>;

/// LIFO free list of ColumnBlocks with a budget of `max_blocks`. Blocks
/// are allocated on first use, up to the budget, and never pre-touched;
/// after that they only recycle. The budget bounds the tuples in flight
/// and so back-pressures the scan.
///
/// Single consumer: only one thread (the Preprocessor's) calls Take().
/// Any thread may return a block, by destroying the BlockPtr that holds
/// it. With one popper the lock-free stack has no ABA hazard: a block on
/// the list leaves it only through Take(), so the head that Take() read
/// cannot be popped and pushed back before its compare-exchange.
class BlockFreeList {
 public:
  BlockFreeList(size_t max_blocks, size_t rows, size_t width_words,
                size_t num_dims);
  /// Frees the blocks on the list; every block must have been returned.
  ~BlockFreeList();

  BlockFreeList(const BlockFreeList&) = delete;
  BlockFreeList& operator=(const BlockFreeList&) = delete;

  /// Returns an empty block, waiting for one to come back while the whole
  /// budget is in flight. Single consumer (see the class comment).
  BlockPtr Take();

  /// Blocks currently held by batches.
  size_t InUse() const { return in_use_.load(std::memory_order_relaxed); }

 private:
  friend struct BlockReturn;
  void Give(ColumnBlock* block);

  const size_t max_blocks_;
  const size_t rows_;
  const size_t width_;
  const size_t dims_;
  size_t allocated_ = 0;  ///< consumer thread only
  std::atomic<ColumnBlock*> head_{nullptr};
  std::atomic<size_t> in_use_{0};
};

inline void BlockReturn::operator()(ColumnBlock* block) const {
  list->Give(block);
}

/// What a batch carries.
enum class BatchKind : uint32_t {
  kData = 0,
  kQueryStart = 1,  ///< control: query registered
  kQueryEnd = 2,    ///< control: query completed
};

/// Unit of queue transfer: the data tuples of one epoch in one block, or
/// one control tuple.
struct TupleBatch {
  BatchKind kind = BatchKind::kData;
  uint64_t epoch = 0;
  QueryRuntime* runtime = nullptr;  ///< control batches: the query
  BlockPtr block;                   ///< data batches: the tuples

  bool control() const { return kind != BatchKind::kData; }
  size_t size() const { return block == nullptr ? 0 : block->live; }
};

using BatchQueue = BoundedQueue<TupleBatch>;

}  // namespace cjoin

#endif  // CJOIN_CJOIN_TUPLE_SLOT_H_
