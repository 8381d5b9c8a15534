// Unit tests for CJOIN's internal components: dimension hash tables with
// bit-vectors, the epoch tracker, column blocks and their free list,
// filter ordering, and the bit-vector invariants of §3.2.1 under query id
// reuse.

#include <atomic>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cjoin/dim_hash_table.h"
#include "cjoin/epoch_tracker.h"
#include "cjoin/filter.h"
#include "cjoin/tuple_slot.h"
#include "common/bitvector.h"
#include "common/hash.h"
#include "common/queue.h"

namespace cjoin {
namespace {

// --------------------------- DimensionHashTable ------------------------------

class DimHashTableTest : public ::testing::Test {
 protected:
  static constexpr size_t kWidth = 2;  // 128 query ids

  /// A `width`-word mask with exactly `bits` set.
  static std::vector<uint64_t> Mask(std::initializer_list<size_t> bits,
                                    size_t width = kWidth) {
    std::vector<uint64_t> m(width, 0);
    for (size_t b : bits) bitops::SetBit(m.data(), b);
    return m;
  }

  /// Inserts `key` (if absent) and selects it for `qids`.
  void Select(int64_t key, const uint8_t* row,
              std::initializer_list<size_t> qids) {
    const std::vector<uint64_t> m = Mask(qids);
    ht_.InsertOrMerge(&key, &row, m.data(), 1);
  }

  /// Sets bit `qid` of the complement b_Dj to `value`.
  void SetComplement(size_t qid, bool value) {
    const std::vector<uint64_t> m = Mask({qid});
    const std::vector<uint64_t> zero(kWidth, 0);
    ht_.AssignComplementBits(m.data(), value ? m.data() : zero.data());
  }

  /// The filtering vector a probe for `key` ANDs into an all-ones tuple.
  std::vector<uint64_t> FilterVector(int64_t key) {
    std::vector<uint64_t> acc(kWidth, ~uint64_t{0});
    cjoin::ReaderMutexLock lk(&ht_.mutex());
    ht_.AndFilterInto(acc.data(), ht_.ProbeLocked(key));
    return acc;
  }

  DimensionHashTable ht_{kWidth, 16};
  uint8_t rows_[64] = {};
};

TEST_F(DimHashTableTest, InsertAndProbe) {
  Select(42, &rows_[0], {});
  EXPECT_EQ(ht_.size(), 1u);

  cjoin::ReaderMutexLock lk(&ht_.mutex());
  const auto* found = ht_.ProbeLocked(42);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->key, 42);
  EXPECT_EQ(found->row, &rows_[0]);
  EXPECT_EQ(ht_.ProbeLocked(43), nullptr);
}

TEST_F(DimHashTableTest, InsertIsIdempotentPerKey) {
  Select(7, &rows_[0], {3});
  Select(7, &rows_[1], {});  // same key: existing entry
  EXPECT_EQ(ht_.size(), 1u);
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  const auto* e = ht_.ProbeLocked(7);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->row, &rows_[0]) << "row pointer of first insert wins";
  EXPECT_TRUE(bitops::TestBit(e->bits, 3));
}

TEST_F(DimHashTableTest, NewEntriesHoldOnlySelections) {
  // b_Dj semantics (§3.2.1): a query that does NOT reference this
  // dimension passes every tuple. That bit lives in b_Dj alone: a new
  // entry's bits are its selections, and the probe ORs b_Dj back in.
  SetComplement(5, true);   // query 5 does not reference this dim
  SetComplement(9, false);  // query 9 references it
  Select(1, &rows_[0], {});
  {
    cjoin::ReaderMutexLock lk(&ht_.mutex());
    const auto* e = ht_.ProbeLocked(1);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(bitops::IsZero(e->bits, kWidth));
  }
  EXPECT_EQ(FilterVector(1), Mask({5}));
  EXPECT_EQ(FilterVector(2), Mask({5})) << "a miss filters by b_Dj";
}

TEST_F(DimHashTableTest, GrowsAndKeepsEntries) {
  for (int64_t k = 0; k < 1000; ++k) {
    Select(k, &rows_[k % 64], {static_cast<size_t>(k % 128)});
  }
  EXPECT_EQ(ht_.size(), 1000u);
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  for (int64_t k = 0; k < 1000; ++k) {
    const auto* e = ht_.ProbeLocked(k);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_TRUE(bitops::TestBit(e->bits, static_cast<size_t>(k % 128)));
  }
}

TEST_F(DimHashTableTest, AssignMaskedBitsChangeExactlyTheMaskedBits) {
  // Width 4 (256 ids): the mask spans all four words. Masked bits take
  // the value's bits, and every other bit keeps its old value.
  constexpr size_t kW = 4;
  DimensionHashTable ht(kW, 16);
  const std::vector<uint64_t> mask = Mask({3, 64, 130, 255}, kW);
  const std::vector<uint64_t> values = Mask({3, 130, 200}, kW);  // 200 unmasked

  // A distinct starting pattern: all-ones in words 0 and 2.
  const uint64_t ones[kW] = {~uint64_t{0}, 0, ~uint64_t{0}, 0};
  ht.AssignComplementBits(ones, ones);
  std::vector<uint64_t> before(ht.complement(), ht.complement() + kW);
  ht.AssignComplementBits(mask.data(), values.data());
  for (size_t b = 0; b < kW * 64; ++b) {
    const bool want = bitops::TestBit(mask.data(), b)
                          ? bitops::TestBit(values.data(), b)
                          : bitops::TestBit(before.data(), b);
    EXPECT_EQ(bitops::TestBit(ht.complement(), b), want) << "bit " << b;
  }
}

TEST_F(DimHashTableTest, RemoveDeadEntriesKeepsLiveOnes) {
  // Query 2 references the dim and selects keys 0..9; query 4 does not
  // reference it (complement bit set).
  SetComplement(2, false);
  SetComplement(4, true);
  for (int64_t k = 0; k < 20; ++k) {
    if (k < 10) {
      Select(k, &rows_[0], {2});
    } else {
      Select(k, &rows_[0], {});
    }
  }
  uint64_t active[2] = {};
  bitops::SetBit(active, 2);
  bitops::SetBit(active, 4);
  // Entries 10..19 are selected by no query => dead.
  const size_t removed = ht_.RemoveDeadEntries(active);
  EXPECT_EQ(removed, 10u);
  EXPECT_EQ(ht_.size(), 10u);
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  for (int64_t k = 0; k < 10; ++k) {
    EXPECT_NE(ht_.ProbeLocked(k), nullptr) << k;
  }
  for (int64_t k = 10; k < 20; ++k) {
    EXPECT_EQ(ht_.ProbeLocked(k), nullptr) << k;
  }
}

TEST_F(DimHashTableTest, RemoveDeadEntriesClearsFinishedIdsOnSurvivors) {
  // Key 7 is selected by queries 1 and 2; query 2 finishes. The entry
  // survives for query 1, and bit 2 must be gone from it: a later query
  // reusing id 2 starts from no selections.
  Select(7, &rows_[0], {1, 2, 100});
  const std::vector<uint64_t> active = Mask({1});
  EXPECT_EQ(ht_.RemoveDeadEntries(active.data()), 0u);
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  const auto* e = ht_.ProbeLocked(7);
  ASSERT_NE(e, nullptr);
  const std::vector<uint64_t> got(e->bits, e->bits + kWidth);
  EXPECT_EQ(got, Mask({1}));
}

TEST_F(DimHashTableTest, ConcurrentProbesDuringBitUpdates) {
  // Admission updates b_Dj while filters probe (§3.3.1).
  for (int64_t k = 0; k < 256; ++k) Select(k, &rows_[0], {});
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    uint64_t acc[kWidth];
    while (!stop.load()) {
      cjoin::ReaderMutexLock lk(&ht_.mutex());
      for (int64_t k = 0; k < 256; k += 7) {
        const auto* e = ht_.ProbeLocked(k);
        ASSERT_NE(e, nullptr);
        bitops::Fill(acc, kWidth, ~uint64_t{0});
        ht_.AndFilterInto(acc, e);
      }
    }
  });
  const std::vector<uint64_t> zero(kWidth, 0);
  for (int round = 0; round < 200; ++round) {
    // A batch of two ids per round, one in each word.
    const std::vector<uint64_t> batch =
        Mask({static_cast<size_t>(round % 64),
              static_cast<size_t>(64 + round % 64)});
    ht_.AssignComplementBits(batch.data(),
                             round % 2 == 0 ? zero.data() : batch.data());
  }
  // Structural change under probes too.
  for (int64_t k = 256; k < 512; ++k) Select(k, &rows_[0], {});
  stop.store(true);
  prober.join();
  EXPECT_EQ(ht_.size(), 512u);
}

TEST_F(DimHashTableTest, ProbeBatchMatchesScalarProbe) {
  // Element-wise identity with ProbeLocked on an interleaved hit/miss
  // mix, at a size spanning several internal kMaxBatch rounds.
  for (int64_t k = 0; k < 1000; k += 2) Select(k, &rows_[0], {});

  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 1000; ++k) keys.push_back(k);  // 50% misses
  std::vector<const DimensionHashTable::Entry*> got(keys.size());

  cjoin::ReaderMutexLock lk(&ht_.mutex());
  ht_.ProbeBatchLocked(keys.data(), got.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i], ht_.ProbeLocked(keys[i])) << "key " << keys[i];
  }
}

TEST_F(DimHashTableTest, ProbeBatchHandlesDuplicatesAndShortBatches) {
  Select(5, &rows_[0], {});
  const int64_t keys[] = {5, -5, 5, 5};
  const DimensionHashTable::Entry* got[4];
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  ht_.ProbeBatchLocked(keys, got, 4);
  EXPECT_NE(got[0], nullptr);
  EXPECT_EQ(got[1], nullptr);
  EXPECT_EQ(got[0], got[2]);
  EXPECT_EQ(got[0], got[3]);
  ht_.ProbeBatchLocked(keys, got, 0);  // n=0 is a no-op
}

TEST_F(DimHashTableTest, InsertOrMergeOrsMasksOfARepeatedKey) {
  // An existing key merges into its stored bits; a key repeated within
  // one call accumulates every mask, and its first row wins.
  Select(7, &rows_[0], {1});
  const int64_t keys[] = {7, 9, 7, 9};
  const uint8_t* rows[] = {&rows_[1], &rows_[2], &rows_[3], &rows_[4]};
  std::vector<uint64_t> masks;
  for (const auto& m : {Mask({2}), Mask({3}), Mask({70}), Mask({127})}) {
    masks.insert(masks.end(), m.begin(), m.end());
  }
  ht_.InsertOrMerge(keys, rows, masks.data(), 4);

  EXPECT_EQ(ht_.size(), 2u);
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  const auto* e7 = ht_.ProbeLocked(7);
  const auto* e9 = ht_.ProbeLocked(9);
  ASSERT_NE(e7, nullptr);
  ASSERT_NE(e9, nullptr);
  EXPECT_EQ(e7->row, &rows_[0]) << "row of the first insert wins";
  EXPECT_EQ(e9->row, &rows_[2]) << "first row within the call wins";
  const std::vector<uint64_t> want7 = Mask({1, 2, 70});
  const std::vector<uint64_t> want9 = Mask({3, 127});
  for (size_t w = 0; w < kWidth; ++w) {
    EXPECT_EQ(e7->bits[w], want7[w]) << "word " << w;
    EXPECT_EQ(e9->bits[w], want9[w]) << "word " << w;
  }
}

TEST_F(DimHashTableTest, InsertOrMergeStartsNewKeysAtTheirMask) {
  // A new key's bits are exactly its mask (40). The probe then passes
  // the queries not referencing the dimension (11, 100) through b_Dj,
  // and a referencing query that did not select the key (12) does not
  // pass; a miss passes only 11 and 100.
  SetComplement(11, true);
  SetComplement(100, true);
  SetComplement(12, false);
  Select(5, &rows_[0], {40});
  {
    cjoin::ReaderMutexLock lk(&ht_.mutex());
    const auto* e = ht_.ProbeLocked(5);
    ASSERT_NE(e, nullptr);
    const std::vector<uint64_t> got(e->bits, e->bits + kWidth);
    EXPECT_EQ(got, Mask({40}));
  }
  EXPECT_EQ(FilterVector(5), Mask({11, 40, 100}));
  EXPECT_EQ(FilterVector(6), Mask({11, 100}));
}

TEST_F(DimHashTableTest, InsertOrMergeKeepsEveryKeyAndMaskAcrossRehash) {
  // One call of many more than kMaxBatch keys into a 16-entry table: the
  // table grows several doublings before the inserts, and no key or mask
  // may be lost.
  for (int64_t k = 0; k < 100; k += 3) Select(k, &rows_[0], {127});
  const size_t kN = 5 * DimensionHashTable::kMaxBatch + 7;
  std::vector<int64_t> keys;
  std::vector<const uint8_t*> rows;
  std::vector<uint64_t> masks;
  for (size_t i = 0; i < kN; ++i) {
    keys.push_back(static_cast<int64_t>(i) * 1024);  // clustered keys
    rows.push_back(&rows_[i % 64]);
    const std::vector<uint64_t> m = Mask({i % 127});
    masks.insert(masks.end(), m.begin(), m.end());
  }
  ht_.InsertOrMerge(keys.data(), rows.data(), masks.data(), kN);

  cjoin::ReaderMutexLock lk(&ht_.mutex());
  size_t preseeded = 0;
  for (int64_t k = 0; k < 100; k += 3) {
    const auto* e = ht_.ProbeLocked(k);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_TRUE(bitops::TestBit(e->bits, 127)) << k;
    ++preseeded;
  }
  // Key 0 is both pre-seeded and in the call.
  EXPECT_EQ(ht_.size(), preseeded + kN - 1);
  for (size_t i = 0; i < kN; ++i) {
    const auto* e = ht_.ProbeLocked(keys[i]);
    ASSERT_NE(e, nullptr) << keys[i];
    EXPECT_EQ(e->row, rows[i]) << keys[i];
    EXPECT_TRUE(bitops::TestBit(e->bits, i % 127)) << keys[i];
    EXPECT_EQ(bitops::PopCount(e->bits, kWidth), i == 0 ? 2u : 1u)
        << keys[i];
  }
}

TEST_F(DimHashTableTest, RemoveDeadEntriesRepairsCollisionChains) {
  // Regression for open-addressed deletion: fill the table close to its
  // load-factor bound so linear-probe chains are long, remove an
  // interleaved half, and verify every survivor — including ones that
  // were displaced PAST removed keys — is still reachable, both via
  // scalar and batched probes.
  SetComplement(1, false);
  const int64_t kN = 350;  // ~68% of the 512-slot table after growth
  for (int64_t k = 0; k < kN; ++k) {
    if (k % 2 == 0) {
      Select(k * 1024, &rows_[0], {1});  // clustered keys
    } else {
      Select(k * 1024, &rows_[0], {});
    }
  }
  uint64_t active[2] = {};
  bitops::SetBit(active, 1);
  const size_t removed = ht_.RemoveDeadEntries(active);
  EXPECT_EQ(removed, static_cast<size_t>(kN / 2));

  std::vector<int64_t> keys;
  for (int64_t k = 0; k < kN; ++k) keys.push_back(k * 1024);
  std::vector<const DimensionHashTable::Entry*> got(keys.size());
  {
    cjoin::ReaderMutexLock lk(&ht_.mutex());
    ht_.ProbeBatchLocked(keys.data(), got.data(), keys.size());
    for (int64_t k = 0; k < kN; ++k) {
      const auto* e = ht_.ProbeLocked(k * 1024);
      EXPECT_EQ(got[static_cast<size_t>(k)], e) << k;
      if (k % 2 == 0) {
        ASSERT_NE(e, nullptr) << "survivor lost at key " << k * 1024;
        EXPECT_EQ(e->key, k * 1024);
      } else {
        EXPECT_EQ(e, nullptr) << "removed key still present: " << k * 1024;
      }
    }
  }
  // A second GC pass removes nothing.
  EXPECT_EQ(ht_.RemoveDeadEntries(active), 0u);
}

TEST_F(DimHashTableTest, BackwardShiftDeletionAcrossTheWrap) {
  // A cluster that wraps past the last slot of a 32-slot table (16
  // expected entries), at width 2 (inline bits) and width 8 (the
  // out-of-line words arena). Keys are chosen by home slot, inserted in
  // this order: homes 30, 30, 31, 0, 0, 1 occupy slots 30, 31, 0, 1, 2, 3.
  // Deleting keys one group at a time exercises both outcomes of the
  // cyclic (hole, j] test: entries homed past the wrap stay, entries
  // homed before it move back across it.
  constexpr size_t kSlots = 32;
  const size_t homes[] = {30, 30, 31, 0, 0, 1};
  constexpr size_t kKeys = std::size(homes);
  std::vector<int64_t> keys;
  std::set<int64_t> used;
  for (size_t h : homes) {
    int64_t k = 0;
    while ((Mix64(static_cast<uint64_t>(k)) & (kSlots - 1)) != h ||
           used.count(k) != 0) {
      ++k;
    }
    used.insert(k);
    keys.push_back(k);
  }
  // Deletion rounds by key index: the head of the cluster first (the
  // rest stay or shift back), then one entry from each side of the
  // wrap, then everything.
  const std::vector<std::vector<size_t>> rounds = {{0}, {2, 4}, {1, 3, 5}};

  for (size_t width : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    DimensionHashTable ht(width, 16);
    // Key i is selected by query qid(i) alone, spread over every word.
    const auto qid = [&](size_t i) { return (i * 61 + 5) % (width * 64); };
    for (size_t i = 0; i < kKeys; ++i) {
      const std::vector<uint64_t> m = Mask({qid(i)}, width);
      const uint8_t* row = &rows_[i];
      ht.InsertOrMerge(&keys[i], &row, m.data(), 1);
    }
    {
      // The cluster does wrap: key 2 (home 31) sits before key 0 (slot 30).
      cjoin::ReaderMutexLock lk(&ht.mutex());
      ASSERT_LT(ht.ProbeLocked(keys[2]), ht.ProbeLocked(keys[0]));
    }

    std::vector<bool> live(kKeys, true);
    for (const std::vector<size_t>& round : rounds) {
      for (size_t i : round) live[i] = false;
      std::vector<uint64_t> active(width, 0);
      for (size_t i = 0; i < kKeys; ++i) {
        if (live[i]) bitops::SetBit(active.data(), qid(i));
      }
      EXPECT_EQ(ht.RemoveDeadEntries(active.data()), round.size());
      std::vector<const DimensionHashTable::Entry*> got(kKeys);
      cjoin::ReaderMutexLock lk(&ht.mutex());
      ht.ProbeBatchLocked(keys.data(), got.data(), kKeys);
      size_t found = 0;
      for (size_t i = 0; i < kKeys; ++i) {
        const DimensionHashTable::Entry* e = ht.ProbeLocked(keys[i]);
        EXPECT_EQ(got[i], e) << "key index " << i;
        if (!live[i]) {
          EXPECT_EQ(e, nullptr) << "deleted key index " << i << " found";
          continue;
        }
        ASSERT_NE(e, nullptr) << "survivor index " << i << " unreachable";
        ++found;
        EXPECT_EQ(e->key, keys[i]);
        EXPECT_EQ(e->row, &rows_[i]);
        const std::vector<uint64_t> bits(e->bits, e->bits + width);
        EXPECT_EQ(bits, Mask({qid(i)}, width)) << "key index " << i;
      }
      EXPECT_EQ(ht.size(), found);
    }
  }
}

TEST_F(DimHashTableTest, RehashPreservesCollisionChains) {
  // Grow across several rehashes with adversarially clustered keys and
  // verify batched and scalar probes agree on every key afterwards.
  SetComplement(0, false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 2000; ++k) {
    const int64_t key = (k % 2 == 0) ? k : k * (1 << 20);
    keys.push_back(key);
    Select(key, &rows_[0], {static_cast<size_t>(k % 128)});
  }
  EXPECT_EQ(ht_.size(), 2000u);
  std::vector<const DimensionHashTable::Entry*> got(keys.size());
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  ht_.ProbeBatchLocked(keys.data(), got.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(got[i], nullptr) << keys[i];
    EXPECT_EQ(got[i], ht_.ProbeLocked(keys[i]));
    EXPECT_TRUE(bitops::TestBit(got[i]->bits, i % 128));
  }
}

TEST_F(DimHashTableTest, ConcurrentBatchProbesDuringInsertAndGc) {
  // TSan-covered stress of the full concurrency contract: filter-side
  // batched probes under the shared lock race the Pipeline Manager's
  // shared-lock inserts and merges, its GC bit pass, and its exclusive
  // growth rehashes and backward-shift deletions. Keys 0..127 are
  // selected by query 3 throughout, so every probe of one must find it
  // with bit 3 set, whatever the manager is doing.
  constexpr size_t kLiveQid = 3;
  for (int64_t k = 0; k < 128; ++k) Select(k, &rows_[0], {kLiveQid});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> live_probes{0};
  std::vector<std::thread> probers;
  for (int t = 0; t < 3; ++t) {
    probers.emplace_back([&, t] {
      int64_t keys[DimensionHashTable::kMaxBatch];
      const DimensionHashTable::Entry* out[DimensionHashTable::kMaxBatch];
      int64_t base = t;
      while (!stop.load()) {
        for (size_t i = 0; i < DimensionHashTable::kMaxBatch; ++i) {
          keys[i] = (base + static_cast<int64_t>(i) * 3) % 4096;
        }
        base += 17;
        cjoin::ReaderMutexLock lk(&ht_.mutex());
        ht_.ProbeBatchLocked(keys, out, DimensionHashTable::kMaxBatch);
        for (size_t i = 0; i < DimensionHashTable::kMaxBatch; ++i) {
          if (out[i] != nullptr) {
            ASSERT_EQ(out[i]->key, keys[i]);
          }
          if (keys[i] >= 128) continue;
          ASSERT_NE(out[i], nullptr) << "live key " << keys[i] << " missed";
          ASSERT_TRUE((bitops::AtomicLoadWord(out[i]->bits, 0) >> kLiveQid) & 1)
              << "live key " << keys[i] << " lost its bit";
          live_probes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  uint64_t active[kWidth] = {};
  bitops::SetBit(active, kLiveQid);
  int64_t next = 128;
  // At least 60 rounds, and on until the probers have checked live keys
  // many times (bounded, so a prober that failed cannot hang the test).
  for (int round = 0;
       round < 60 || (round < 5000 && live_probes.load() < 5000); ++round) {
    // One batch of transient keys selected by a finished-soon query
    // (never 3), merged into some live keys too. The GC pass clears the
    // transient bit everywhere and deletes the transient keys.
    const size_t qid = 64 + static_cast<size_t>(round % 64);
    const std::vector<uint64_t> m = Mask({qid});
    int64_t keys[DimensionHashTable::kMaxBatch];
    const uint8_t* rows[DimensionHashTable::kMaxBatch];
    uint64_t masks[DimensionHashTable::kMaxBatch * kWidth];
    for (size_t i = 0; i < DimensionHashTable::kMaxBatch; ++i) {
      keys[i] = i % 8 == 0 ? static_cast<int64_t>(i + round) % 128
                           : 128 + next++ % 3968;
      rows[i] = &rows_[0];
      bitops::Copy(masks + i * kWidth, m.data(), kWidth);
    }
    ht_.InsertOrMerge(keys, rows, masks, DimensionHashTable::kMaxBatch);
    if (round % 10 == 9) ht_.RemoveDeadEntries(active);
  }
  ht_.RemoveDeadEntries(active);
  stop.store(true);
  for (auto& t : probers) t.join();
  EXPECT_EQ(ht_.size(), 128u) << "only the query-3 keys survive GC";
  cjoin::ReaderMutexLock lk(&ht_.mutex());
  for (int64_t k = 0; k < 128; ++k) {
    const auto* e = ht_.ProbeLocked(k);
    ASSERT_NE(e, nullptr) << k;
    const std::vector<uint64_t> bits(e->bits, e->bits + kWidth);
    EXPECT_EQ(bits, Mask({kLiveQid})) << "finished bits cleared on key " << k;
  }
}

// ------------------------------ EpochTracker ---------------------------------

TEST(EpochTrackerTest, CompleteRequiresCloseAndBalance) {
  EpochTracker t(64);
  t.AddProduced(0, 10);
  EXPECT_FALSE(t.Complete(0)) << "not closed yet";
  t.Close(0);
  EXPECT_FALSE(t.Complete(0)) << "nothing retired";
  t.AddRetired(0, 4);
  t.AddRetired(0, 6);
  EXPECT_TRUE(t.Complete(0));
}

TEST(EpochTrackerTest, EmptyEpochCompletesOnClose) {
  EpochTracker t(64);
  t.Close(3);
  EXPECT_TRUE(t.Complete(3));
}

TEST(EpochTrackerTest, RecycleResetsRingCell) {
  EpochTracker t(4);  // tiny ring: epoch 5 shares a cell with epoch 1
  t.AddProduced(1, 2);
  t.Close(1);
  t.AddRetired(1, 2);
  EXPECT_TRUE(t.Complete(1));
  t.Recycle(1);
  EXPECT_FALSE(t.Complete(5)) << "recycled cell must start fresh";
  t.Close(5);
  EXPECT_TRUE(t.Complete(5));
}

TEST(EpochTrackerTest, ConcurrentRetiresBalance) {
  EpochTracker t(16);
  constexpr uint64_t kPerThread = 10000;
  t.AddProduced(7, 4 * kPerThread);
  t.Close(7);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t] {
      for (uint64_t n = 0; n < kPerThread; ++n) t.AddRetired(7, 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(t.Complete(7));
}

// ------------------------ ColumnBlock / BlockFreeList ------------------------

TEST(ColumnBlockTest, ColumnsDoNotOverlapAndMoveRowCopiesAll) {
  constexpr size_t kRows = 8, kDims = 4, kWords = 4;
  ColumnBlock block(kRows, kWords, kDims);
  for (size_t i = 0; i < kRows; ++i) {
    block.fact_rows[i] = reinterpret_cast<const uint8_t*>(0x1000 + i);
    bitops::Zero(block.bits(i), kWords);
    bitops::SetBit(block.bits(i), i);
    bitops::SetBit(block.bits(i), 255 - i);
    for (size_t d = 0; d < kDims; ++d) {
      block.dim_rows(i)[d] = reinterpret_cast<const uint8_t*>(0x100 * d + i);
    }
  }
  // Nothing clobbered anything else.
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(block.fact_rows[i], reinterpret_cast<const uint8_t*>(0x1000 + i));
    EXPECT_EQ(bitops::PopCount(block.bits(i), kWords), 2u);
    EXPECT_TRUE(bitops::TestBit(block.bits(i), i));
    EXPECT_TRUE(bitops::TestBit(block.bits(i), 255 - i));
    for (size_t d = 0; d < kDims; ++d) {
      EXPECT_EQ(block.dim_rows(i)[d],
                reinterpret_cast<const uint8_t*>(0x100 * d + i));
    }
  }
  block.MoveRow(2, 6);
  EXPECT_EQ(block.fact_rows[2], reinterpret_cast<const uint8_t*>(0x1006));
  EXPECT_TRUE(bitops::TestBit(block.bits(2), 6));
  EXPECT_TRUE(bitops::TestBit(block.bits(2), 249));
  EXPECT_FALSE(bitops::TestBit(block.bits(2), 2));
  for (size_t d = 0; d < kDims; ++d) {
    EXPECT_EQ(block.dim_rows(2)[d],
              reinterpret_cast<const uint8_t*>(0x100 * d + 6));
  }
  // Neighbours are untouched.
  EXPECT_EQ(block.fact_rows[3], reinterpret_cast<const uint8_t*>(0x1003));
  EXPECT_TRUE(bitops::TestBit(block.bits(3), 3));
}

TEST(BlockFreeListTest, AllocatesUpToBudgetThenRecyclesLifo) {
  BlockFreeList list(/*max_blocks=*/2, /*rows=*/4, /*width_words=*/1,
                     /*num_dims=*/2);
  EXPECT_EQ(list.InUse(), 0u);
  BlockPtr a = list.Take();
  BlockPtr b = list.Take();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(list.InUse(), 2u);
  a->live = 3;
  ColumnBlock* const a_raw = a.get();
  a.reset();  // the batch died: its block goes back
  EXPECT_EQ(list.InUse(), 1u);
  BlockPtr c = list.Take();
  EXPECT_EQ(c.get(), a_raw) << "a returned block is reused, not reallocated";
  EXPECT_EQ(c->live, 0u) << "a taken block starts empty";
  c.reset();
  b.reset();
  EXPECT_EQ(list.InUse(), 0u);
}

TEST(BlockFreeListTest, ExhaustedTakeWaitsForAReturn) {
  BlockFreeList list(1, 4, 1, 1);
  BlockPtr held = list.Take();
  std::atomic<bool> got{false};
  std::thread taker([&] {
    BlockPtr p = list.Take();
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  held.reset();
  taker.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(list.InUse(), 0u);
}

TEST(BlockFreeListTest, OneTakerManyReturners) {
  // The pipeline's shape: one thread takes, several threads return.
  constexpr size_t kBlocks = 4;
  constexpr int kPerThread = 5000;
  constexpr int kReturners = 3;
  BlockFreeList list(kBlocks, 8, 2, 2);
  BoundedQueue<BlockPtr> handoff(kBlocks);
  std::vector<std::thread> returners;
  for (int t = 0; t < kReturners; ++t) {
    returners.emplace_back([&handoff] {
      while (std::optional<BlockPtr> p = handoff.Pop()) {
        // The block is this thread's alone until it is returned.
        ColumnBlock& block = **p;
        for (size_t i = 0; i < block.live; ++i) {
          EXPECT_EQ(block.fact_rows[i],
                    reinterpret_cast<const uint8_t*>(&block));
        }
      }
    });
  }
  std::set<ColumnBlock*> seen;
  for (int i = 0; i < kReturners * kPerThread; ++i) {
    BlockPtr p = list.Take();
    seen.insert(p.get());
    p->live = 8;
    for (size_t r = 0; r < 8; ++r) {
      p->fact_rows[r] = reinterpret_cast<const uint8_t*>(p.get());
    }
    handoff.Push(std::move(p));
  }
  handoff.Close();
  for (auto& t : returners) t.join();
  EXPECT_LE(seen.size(), kBlocks);
  EXPECT_EQ(list.InUse(), 0u);
}

// ----------------------------- FilterOrderRef --------------------------------

TEST(FilterOrderTest, PublishIsVisibleToReaders) {
  Filter f1, f2;
  f1.dim_index = 0;
  f2.dim_index = 1;
  FilterOrderRef ref(std::make_shared<const FilterOrder>(
      FilterOrder{&f1, &f2}));
  EXPECT_EQ((*ref.Acquire())[0], &f1);
  ref.Publish(std::make_shared<const FilterOrder>(FilterOrder{&f2, &f1}));
  EXPECT_EQ((*ref.Acquire())[0], &f2);
}

TEST(FilterOrderTest, DropRateAndDecay) {
  Filter f;
  f.tuples_in.store(1000);
  f.tuples_dropped.store(250);
  EXPECT_DOUBLE_EQ(f.DropRate(), 0.25);
  f.DecayStats();
  EXPECT_EQ(f.tuples_in.load(), 500u);
  EXPECT_EQ(f.tuples_dropped.load(), 125u);
  Filter empty;
  EXPECT_DOUBLE_EQ(empty.DropRate(), 0.0);
}

TEST(FilterOrderTest, ConcurrentAcquirePublish) {
  Filter f1, f2, f3;
  FilterOrderRef ref(
      std::make_shared<const FilterOrder>(FilterOrder{&f1, &f2, &f3}));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto order = ref.Acquire();
        ASSERT_EQ(order->size(), 3u);
        size_t sum = 0;
        for (const Filter* f : *order) sum += f->dim_index;
        ASSERT_EQ(sum, f1.dim_index + f2.dim_index + f3.dim_index);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    FilterOrder next = {&f3, &f1, &f2};
    if (i % 2 == 0) std::swap(next[0], next[2]);
    ref.Publish(std::make_shared<const FilterOrder>(std::move(next)));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace cjoin
