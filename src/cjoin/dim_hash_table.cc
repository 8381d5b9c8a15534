#include "cjoin/dim_hash_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "common/hash.h"

namespace cjoin {

namespace {

size_t NextPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

/// Zeroed allocation for the probe-path arrays. Small arrays are
/// 64B-aligned; arrays of at least one huge page are 2MB-aligned and
/// MADV_HUGEPAGE-advised. The latter is not cosmetic: x86 drops a
/// software prefetch whose address misses the TLB, so with 4K pages a
/// DRAM-resident table's prefetch schedule mostly evaporates — huge
/// pages are what make batched probing effective at size.
void* AllocZeroed(size_t bytes) {
  constexpr size_t kHugePage = 2u << 20;
  if (bytes >= kHugePage) {
    const size_t rounded = (bytes + kHugePage - 1) & ~(kHugePage - 1);
    void* p = std::aligned_alloc(kHugePage, rounded);
    if (p != nullptr) {
#ifdef __linux__
      madvise(p, rounded, MADV_HUGEPAGE);
#endif
      std::memset(p, 0, rounded);
      return p;
    }
    // Fall through to the plain path on allocation failure.
  }
  const size_t rounded = (bytes + 63) & ~size_t{63};
  void* p = std::aligned_alloc(64, rounded);
  std::memset(p, 0, rounded);
  return p;
}

}  // namespace

DimensionHashTable::AlignedWordArray DimensionHashTable::AllocTags(size_t n) {
  // Capacity is a power of two >= 16, so n * 8 is a multiple of 64 and
  // the groups of 8 tags tile cache lines exactly.
  return AlignedWordArray(
      static_cast<uint64_t*>(AllocZeroed(n * sizeof(uint64_t))));
}

DimensionHashTable::SlotArray DimensionHashTable::AllocSlots(size_t n) {
  // Entry is an aggregate whose zero state equals its default state, so
  // the zeroed arena is already "constructed"; BindBits() then points
  // each entry's bits at its storage.
  return SlotArray(static_cast<Entry*>(AllocZeroed(n * sizeof(Entry))));
}

DimensionHashTable::DimensionHashTable(size_t width_words,
                                       size_t expected_entries)
    : width_(width_words) {
  assert(width_ > 0);
  // No other thread can reference the table yet; the lock is taken only
  // so the BindBits() REQUIRES(mu_) contract holds in the analysis.
  WriterMutexLock lk(&mu_);
  cap_ = NextPow2(expected_entries * 2);
  slots_ = AllocSlots(cap_);
  tags_ = AllocTags(cap_);
  if (!InlineBits()) words_.reset(new uint64_t[cap_ * width_]());
  for (size_t i = 0; i < cap_; ++i) BindBits(i);
  complement_.reset(new uint64_t[width_]());
}

void DimensionHashTable::AssignComplementBits(const uint64_t* mask,
                                              const uint64_t* values) {
  bitops::AssignMaskedWords(complement_.get(), mask, values, width_);
}

const DimensionHashTable::Entry* DimensionHashTable::ProbeLocked(
    int64_t key) const {
  const size_t mask = Mask();
  const uint64_t h = Mix64(static_cast<uint64_t>(key));
  const uint64_t want = TagFor(h);
  size_t idx = h & mask;
  for (;;) {
    const uint64_t tag = tags_[idx];
    if (tag == 0) return nullptr;
    if (tag == want && slots_[idx].key == key) return &slots_[idx];
    idx = (idx + 1) & mask;
  }
}

const DimensionHashTable::Entry* DimensionHashTable::ProbeChainFrom(
    size_t idx, uint64_t want, int64_t key) const {
  const size_t mask = Mask();
  for (;;) {
    const uint64_t tag = tags_[idx];
    if (tag == 0) return nullptr;
    if (tag == want && slots_[idx].key == key) return &slots_[idx];
    idx = (idx + 1) & mask;
  }
}

void DimensionHashTable::ProbeBatchLocked(const int64_t* keys,
                                          const Entry** out,
                                          size_t n) const {
  const size_t mask = Mask();
  const bool inline_bits = InlineBits();
  // Hoisted raw pointer: the lambda below is analyzed as a separate
  // function by -Wthread-safety, so it reads through this local instead
  // of the GUARDED_BY(mu_) member (the caller holds the shared lock for
  // the whole call).
  const uint64_t* tags = tags_.get();

  // Pass 1: hash every key of a chunk and prefetch its target tag line,
  // so the DRAM misses of the whole chunk overlap.
  const auto hash_chunk = [&](const int64_t* k, size_t m, size_t* idx,
                              uint64_t* want) {
    for (size_t i = 0; i < m; ++i) {
      const uint64_t h = Mix64(static_cast<uint64_t>(k[i]));
      idx[i] = h & mask;
      want[i] = TagFor(h);
      __builtin_prefetch(&tags[idx[i]], /*rw=*/0, /*locality=*/3);
    }
  };

  // Chunks are software-pipelined: chunk k+1's tag prefetches are issued
  // before chunk k resolves, so for n > kMaxBatch every tag line gets a
  // full chunk of prefetch distance instead of one pass.
  size_t idx_bufs[2][kMaxBatch];
  uint64_t want_bufs[2][kMaxBatch];
  int cur = 0;
  size_t m = std::min(n, kMaxBatch);
  hash_chunk(keys, m, idx_bufs[cur], want_bufs[cur]);

  size_t off = 0;
  while (m > 0) {
    size_t* idx = idx_bufs[cur];
    uint64_t* want = want_bufs[cur];
    const size_t m_next = std::min(n - off - m, kMaxBatch);
    if (m_next > 0) {
      hash_chunk(keys + off + m, m_next, idx_bufs[1 - cur],
                 want_bufs[1 - cur]);
    }

    // Pass 2: walk each tag chain to a definite miss or a tag match;
    // prefetch the matched slot's Entry line for pass 3. With inline
    // bits that one line is the whole hit (key, row, filter vector);
    // wider tables also prefetch the arena words, whose address derives
    // from the slot index alone — no Entry load needed.
    for (size_t i = 0; i < m; ++i) {
      size_t j = idx[i];
      for (;;) {
        const uint64_t tag = tags_[j];
        if (tag == 0) {
          idx[i] = SIZE_MAX;  // definite miss
          break;
        }
        if (tag == want[i]) {
          idx[i] = j;
          __builtin_prefetch(&slots_[j], 0, 3);
          if (!inline_bits) __builtin_prefetch(&words_[j * width_], 0, 3);
          break;
        }
        j = (j + 1) & mask;
      }
    }

    // Pass 3: confirm key identity. A tag match that fails the key check
    // is a full-64-bit hash collision — resolve it by continuing the
    // chain scalar-ly (astronomically rare).
    for (size_t i = 0; i < m; ++i) {
      if (idx[i] == SIZE_MAX) {
        out[off + i] = nullptr;
        continue;
      }
      const Entry& e = slots_[idx[i]];
      if (e.key == keys[off + i]) {
        out[off + i] = &e;
      } else {
        out[off + i] =
            ProbeChainFrom((idx[i] + 1) & mask, want[i], keys[off + i]);
      }
    }

    off += m;
    m = m_next;
    cur = 1 - cur;
  }
}

DimensionHashTable::Entry* DimensionHashTable::InsertOneLocked(
    int64_t key, const uint8_t* row) {
  const size_t mask = Mask();
  const uint64_t h = Mix64(static_cast<uint64_t>(key));
  const uint64_t want = TagFor(h);
  size_t idx = h & mask;
  for (;;) {
    const uint64_t tag = tags_[idx];
    if (tag == 0) break;
    if (tag == want && slots_[idx].key == key) return &slots_[idx];
    idx = (idx + 1) & mask;
  }
  tags_[idx] = want;
  Entry& e = slots_[idx];
  e.key = key;
  e.row = row;
  e.used = true;
  // New tuples start as "b_Dj" — not selected by any query referencing
  // D_j, implicitly selected by every query that does not reference it.
  for (size_t w = 0; w < width_; ++w) {
    e.bits[w] = bitops::AtomicLoadWord(complement_.get(), w);
  }
  ++size_;
  return &e;
}

void DimensionHashTable::ReserveLocked(size_t extra) {
  while ((size_.load(std::memory_order_relaxed) + extra) * 10 > cap_ * 7) {
    RehashLocked();
  }
}

void DimensionHashTable::RehashLocked() {
  const size_t old_cap = cap_;
  SlotArray old_slots = std::move(slots_);
  std::unique_ptr<uint64_t[]> old_words = std::move(words_);

  cap_ = old_cap * 2;
  slots_ = AllocSlots(cap_);
  tags_ = AllocTags(cap_);
  if (!InlineBits()) words_.reset(new uint64_t[cap_ * width_]());
  for (size_t i = 0; i < cap_; ++i) BindBits(i);

  const size_t mask = cap_ - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    const Entry& e = old_slots[i];
    if (!e.used) continue;
    const uint64_t h = Mix64(static_cast<uint64_t>(e.key));
    size_t idx = h & mask;
    while (tags_[idx] != 0) idx = (idx + 1) & mask;
    tags_[idx] = TagFor(h);
    Entry& dst = slots_[idx];
    dst.key = e.key;
    dst.row = e.row;
    dst.used = true;
    bitops::Copy(dst.bits, e.bits, width_);
  }
}

DimensionHashTable::Entry* DimensionHashTable::InsertOrGet(
    int64_t key, const uint8_t* row) {
  WriterMutexLock lk(&mu_);
  ReserveLocked(1);
  return InsertOneLocked(key, row);
}

void DimensionHashTable::InsertOrMerge(const int64_t* keys,
                                       const uint8_t* const* rows,
                                       const uint64_t* masks, size_t n) {
  WriterMutexLock lk(&mu_);
  while (n > 0) {
    const size_t m = std::min(n, kMaxBatch);
    // Worst case every key of the chunk is new. A rehash here moves the
    // entries of earlier chunks, which is fine: none is referenced past
    // its own merge below.
    ReserveLocked(m);
    const size_t cur_mask = Mask();
    for (size_t i = 0; i < m; ++i) {
      const uint64_t h = Mix64(static_cast<uint64_t>(keys[i]));
      __builtin_prefetch(&tags_[h & cur_mask], /*rw=*/1, /*locality=*/3);
    }
    for (size_t i = 0; i < m; ++i) {
      // The exclusive lock keeps every reader out, so plain ORs suffice.
      bitops::OrInto(InsertOneLocked(keys[i], rows[i])->bits,
                     masks + i * width_, width_);
    }
    keys += m;
    rows += m;
    masks += m * width_;
    n -= m;
  }
}

void DimensionHashTable::AssignBitsForAllEntries(const uint64_t* mask,
                                                 const uint64_t* values) {
  ReaderMutexLock lk(&mu_);
  for (size_t i = 0; i < cap_; ++i) {
    Entry& e = slots_[i];
    if (e.used) bitops::AssignMaskedWords(e.bits, mask, values, width_);
  }
}

size_t DimensionHashTable::RemoveDeadEntries(const uint64_t* active_mask) {
  WriterMutexLock lk(&mu_);
  size_t removed = 0;
  // Collect surviving entries, then rebuild in place (linear probing does
  // not support in-place deletion without tombstones). The staging
  // buffers are table-owned scratch: cleared, not freed, between passes,
  // so steady-state GC on the Pipeline Manager thread does not allocate.
  gc_survivors_.clear();
  gc_survivor_bits_.clear();
  gc_survivors_.reserve(size_);
  gc_survivor_bits_.reserve(size_ * width_);
  for (size_t s = 0; s < cap_; ++s) {
    const Entry& e = slots_[s];
    if (!e.used) continue;
    bool dead = true;
    for (size_t w = 0; w < width_; ++w) {
      const uint64_t relevant = e.bits[w] & active_mask[w];
      const uint64_t comp =
          bitops::AtomicLoadWord(complement_.get(), w) & active_mask[w];
      if (relevant != comp) {
        dead = false;
        break;
      }
    }
    if (dead) {
      ++removed;
      continue;
    }
    gc_survivors_.push_back(e);
    for (size_t w = 0; w < width_; ++w) {
      gc_survivor_bits_.push_back(e.bits[w]);
    }
  }
  if (removed == 0) return 0;

  for (size_t s = 0; s < cap_; ++s) {
    slots_[s].used = false;
  }
  std::memset(tags_.get(), 0, cap_ * sizeof(uint64_t));
  const size_t mask = Mask();
  for (size_t i = 0; i < gc_survivors_.size(); ++i) {
    const Entry& src = gc_survivors_[i];
    const uint64_t h = Mix64(static_cast<uint64_t>(src.key));
    size_t idx = h & mask;
    while (tags_[idx] != 0) idx = (idx + 1) & mask;
    tags_[idx] = TagFor(h);
    Entry& dst = slots_[idx];
    dst.key = src.key;
    dst.row = src.row;
    dst.used = true;
    bitops::Copy(dst.bits, &gc_survivor_bits_[i * width_], width_);
  }
  size_ = gc_survivors_.size();
  return removed;
}

}  // namespace cjoin
