#include "cjoin/tuple_slot.h"

#include <cassert>

namespace cjoin {

BlockFreeList::BlockFreeList(size_t max_blocks, size_t rows,
                             size_t width_words, size_t num_dims)
    : max_blocks_(max_blocks),
      rows_(rows),
      width_(width_words),
      dims_(num_dims) {
  assert(max_blocks_ > 0 && rows_ > 0);
}

BlockFreeList::~BlockFreeList() {
  assert(InUse() == 0 && "a batch outlived its block free list");
  ColumnBlock* block = head_.load(std::memory_order_acquire);
  while (block != nullptr) {
    ColumnBlock* next = block->next;
    delete block;
    block = next;
  }
}

BlockPtr BlockFreeList::Take() {
  ColumnBlock* block = head_.load(std::memory_order_acquire);
  for (;;) {
    if (block == nullptr) {
      if (allocated_ < max_blocks_) {
        ++allocated_;
        block = new ColumnBlock(rows_, width_, dims_);
        break;
      }
      head_.wait(nullptr, std::memory_order_acquire);
      block = head_.load(std::memory_order_acquire);
      continue;
    }
    // Only this thread pops, so `block` is still on the list and
    // block->next is what its pusher published before its release.
    if (head_.compare_exchange_weak(block, block->next,
                                    std::memory_order_acquire,
                                    std::memory_order_acquire)) {
      break;
    }
  }
  block->live = 0;
  in_use_.fetch_add(1, std::memory_order_relaxed);
  return BlockPtr(block, BlockReturn{this});
}

void BlockFreeList::Give(ColumnBlock* block) {
  in_use_.fetch_sub(1, std::memory_order_relaxed);
  ColumnBlock* head = head_.load(std::memory_order_relaxed);
  do {
    block->next = head;
  } while (!head_.compare_exchange_weak(head, block,
                                        std::memory_order_release,
                                        std::memory_order_relaxed));
  head_.notify_one();
}

}  // namespace cjoin
