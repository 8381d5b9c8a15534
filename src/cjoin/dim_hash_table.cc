#include "cjoin/dim_hash_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

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
  const uint64_t h = Mix64(static_cast<uint64_t>(key));
  return ProbeChainFrom(h & Mask(), TagFor(h), key);
}

const DimensionHashTable::Entry* DimensionHashTable::ProbeChainFrom(
    size_t idx, uint64_t want, int64_t key) const {
  const size_t mask = Mask();
  for (;;) {
    const uint64_t tag = LoadTag(tags_.get(), idx);
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
        const uint64_t tag = LoadTag(tags, j);
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

void DimensionHashTable::MergeOneLocked(int64_t key, const uint8_t* row,
                                        const uint64_t* mask) {
  // Tags are read plainly here: this thread is their only writer.
  const size_t slot_mask = Mask();
  const uint64_t h = Mix64(static_cast<uint64_t>(key));
  const uint64_t want = TagFor(h);
  size_t idx = h & slot_mask;
  for (;;) {
    const uint64_t tag = tags_[idx];
    if (tag == 0) break;
    if (tag == want && slots_[idx].key == key) {
      // Probes may be reading these words: a relaxed load and store per
      // word, which single-writer ORs need no more than.
      bitops::AssignMaskedWords(slots_[idx].bits, mask, mask, width_);
      return;
    }
    idx = (idx + 1) & slot_mask;
  }
  // An empty slot is invisible to probes until its tag is published, so
  // the entry is written plainly, then released through the tag.
  Entry& e = slots_[idx];
  e.key = key;
  e.row = row;
  bitops::Copy(e.bits, mask, width_);
  std::atomic_ref<uint64_t>(tags_[idx]).store(want,
                                              std::memory_order_release);
  size_.store(size_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

void DimensionHashTable::ReserveLocked(size_t extra) {
  while (!FitsLocked(extra)) RehashLocked();
}

void DimensionHashTable::RehashLocked() {
  const size_t old_cap = cap_;
  SlotArray old_slots = std::move(slots_);
  AlignedWordArray old_tags = std::move(tags_);
  std::unique_ptr<uint64_t[]> old_words = std::move(words_);

  cap_ = old_cap * 2;
  slots_ = AllocSlots(cap_);
  tags_ = AllocTags(cap_);
  if (!InlineBits()) words_.reset(new uint64_t[cap_ * width_]());
  for (size_t i = 0; i < cap_; ++i) BindBits(i);

  const size_t mask = cap_ - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    const uint64_t tag = old_tags[i];
    if (tag == 0) continue;
    size_t idx = tag & mask;
    while (tags_[idx] != 0) idx = (idx + 1) & mask;
    tags_[idx] = tag;
    const Entry& src = old_slots[i];
    Entry& dst = slots_[idx];
    dst.key = src.key;
    dst.row = src.row;
    bitops::Copy(dst.bits, src.bits, width_);
  }
}

void DimensionHashTable::InsertOrMerge(const int64_t* keys,
                                       const uint8_t* const* rows,
                                       const uint64_t* masks, size_t n) {
  // Count the keys not yet stored, unless even all n fit. Only this
  // thread inserts, so the count still holds once the lock is retaken.
  size_t absent = n;
  bool fits;
  {
    ReaderMutexLock lk(&mu_);
    if (!FitsLocked(n)) {
      const Entry* found[kMaxBatch];
      absent = 0;
      for (size_t off = 0; off < n; off += kMaxBatch) {
        const size_t m = std::min(n - off, kMaxBatch);
        ProbeBatchLocked(keys + off, found, m);
        for (size_t i = 0; i < m; ++i) absent += found[i] == nullptr;
      }
    }
    fits = FitsLocked(absent);
  }
  if (!fits) {
    WriterMutexLock lk(&mu_);
    ReserveLocked(absent);
  }

  ReaderMutexLock lk(&mu_);
  const size_t slot_mask = Mask();
  for (size_t off = 0; off < n; off += kMaxBatch) {
    const size_t m = std::min(n - off, kMaxBatch);
    for (size_t i = 0; i < m; ++i) {
      const uint64_t h = Mix64(static_cast<uint64_t>(keys[off + i]));
      __builtin_prefetch(&tags_[h & slot_mask], /*rw=*/1, /*locality=*/3);
    }
    for (size_t i = off; i < off + m; ++i) {
      MergeOneLocked(keys[i], rows[i], masks + i * width_);
    }
  }
}

void DimensionHashTable::EraseLocked(int64_t key) {
  const size_t mask = Mask();
  const uint64_t h = Mix64(static_cast<uint64_t>(key));
  const uint64_t want = TagFor(h);
  size_t hole = h & mask;
  while (tags_[hole] != want || slots_[hole].key != key) {
    assert(tags_[hole] != 0 && "EraseLocked: key not stored");
    hole = (hole + 1) & mask;
  }
  for (size_t j = (hole + 1) & mask; tags_[j] != 0; j = (j + 1) & mask) {
    // The entry at j stays iff its home lies cyclically in (hole, j]:
    // a probe for it starts past the hole and never crosses it.
    const size_t home = tags_[j] & mask;
    const bool stays =
        hole < j ? hole < home && home <= j : hole < home || home <= j;
    if (stays) continue;
    tags_[hole] = tags_[j];
    Entry& dst = slots_[hole];
    const Entry& src = slots_[j];
    dst.key = src.key;
    dst.row = src.row;
    bitops::Copy(dst.bits, src.bits, width_);
    hole = j;
  }
  tags_[hole] = 0;
}

size_t DimensionHashTable::RemoveDeadEntries(const uint64_t* active_mask) {
  std::vector<int64_t> dead;
  {
    // Tags are read plainly here: this thread is their only writer.
    ReaderMutexLock lk(&mu_);
    for (size_t i = 0; i < cap_; ++i) {
      if (tags_[i] == 0) continue;
      const Entry& e = slots_[i];
      if (!bitops::RetainMaskedWords(e.bits, active_mask, width_)) {
        dead.push_back(e.key);
      }
    }
  }
  if (dead.empty()) return 0;

  WriterMutexLock lk(&mu_);
  for (int64_t key : dead) EraseLocked(key);
  size_.store(size_.load(std::memory_order_relaxed) - dead.size(),
              std::memory_order_relaxed);
  return dead.size();
}

}  // namespace cjoin
