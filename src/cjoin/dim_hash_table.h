// Dimension hash tables with query bit-vectors (paper §3.2.1).
//
// H_Dj stores the union of dimension-j tuples selected by at least one
// registered query. Each stored tuple carries a bit-vector b_delta of
// selections only (bit i set iff query i references D_j and selects the
// tuple), and the table carries one complementary bitmap b_Dj (bit i set
// iff query i does not reference D_j). A probe's filtering vector is
// b_delta | b_Dj on a hit and b_Dj alone on a miss (AndFilterInto), which
// is the paper's b_delta: a query that ignores D_j passes every tuple.
// Keeping b_Dj out of the entries means admission never passes over the
// stored entries: it writes b_Dj and the rows its queries select.
//
// Layout (cache-line conscious, after DRAMHiT's simple_kht): the probe
// path never touches the wide Entry records until a likely hit is found.
// Occupancy and key identity live in a dense out-of-line *tag* array —
// one 64-bit tag per slot, 8 tags per 64-byte-aligned cache line (the
// "slot group") — so one prefetched line resolves up to 8 linear-probe
// steps. A tag is the slot key's full Mix64 hash with bit 63 forced on
// (0 = empty slot), so tag equality is a near-certain key match, a miss
// never loads an Entry at all, and `tag & mask` is the key's home slot.
// Entries are 64-byte aligned — one per cache line — with the bit-vector
// words stored inline in the same line when the width fits (<= 4 words =
// 256 concurrent queries, the engine default), so a hit costs exactly
// one data line: key, row pointer, and filter vector arrive together.
// Wider tables fall back to an out-of-line words arena, indexed by slot.
//
// Probing is batched: ProbeBatchLocked() hashes a whole batch of keys
// first, issues a software prefetch for every target tag line, then
// resolves, keeping up to kMaxBatch independent DRAM loads in flight
// instead of serializing one full miss latency per fact tuple. Admission
// inserts batch the same way through InsertOrMerge().
//
// Admission and cleanup work on a whole batch of query ids at once: one
// InsertOrMerge call per dimension (each key carrying the mask of the
// batch queries that selected it) admits the batch, and one
// RemoveDeadEntries call per dimension retires one.
//
// Concurrency model (paper §3.3.1: registration proceeds in the Pipeline
// Manager thread "in parallel with the processing of fact tuples"):
//   * Filter workers take the shared lock for the duration of a probe
//     batch. They load tags with acquire and read entry bit-words and
//     b_Dj with relaxed atomic loads.
//   * The Pipeline Manager is the single writer of every tag, entry and
//     b_Dj word. It inserts and merges under the shared lock, beside the
//     probes: a new entry's key, row and bits are written in full, then
//     the entry is published by a release store of its tag, so a probe
//     that sees the tag sees the whole entry. Bit updates are a relaxed
//     load plus a relaxed store (bitops::AssignMaskedWords,
//     RetainMaskedWords), not atomic RMWs.
//   * The exclusive lock is taken for two structural steps only: a
//     growth rehash (when an InsertOrMerge call's new keys do not fit
//     under the load-factor bound) and the deletion step of
//     RemoveDeadEntries (backward-shift deletion of the keys its shared
//     pass found dead).
// Mid-flight bit changes are harmless: the Preprocessor keeps a new
// query's bit at 0 in every fact tuple until registration completes, and
// a finished query's results were emitted before cleanup clears its bits.
// Cleanup must clear them before the id is reused: a new holder of the
// id starts from all-zero selections.

#ifndef CJOIN_CJOIN_DIM_HASH_TABLE_H_
#define CJOIN_CJOIN_DIM_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/bitvector.h"
#include "common/mutex.h"

namespace cjoin {

/// Hash table from dimension primary key to (row pointer, bit-vector).
class DimensionHashTable {
 public:
  /// Largest batch the batched probe/insert paths resolve per internal
  /// round (bounds the stack scratch; callers may pass any n).
  static constexpr size_t kMaxBatch = 64;

  /// Bit-vector words stored inside the Entry itself when the width
  /// allows (<= 256 concurrent queries — the engine default): a probe hit
  /// then touches exactly one entry cache line, key, row, and filter
  /// vector together.
  static constexpr size_t kInlineWords = 4;

  /// An entry; `bits` has the table's word width and points either at the
  /// entry's own inline words or into the out-of-line arena (wider
  /// tables). Pointers to entries are invalidated by structural changes —
  /// callers only hold them while holding at least the shared lock.
  /// 64-byte aligned: one entry, one cache line. Whether a slot holds an
  /// entry is told by its tag alone.
  struct alignas(64) Entry {
    int64_t key = 0;
    const uint8_t* row = nullptr;
    /// The selection bit-vector b_delta. Always read through this pointer,
    /// with relaxed atomic loads.
    uint64_t* bits = nullptr;
    uint64_t inline_words[kInlineWords] = {};
  };
  static_assert(sizeof(Entry) == 64, "one entry per cache line");

  /// `width_words`: bit-vector width (ceil(maxConc/64)).
  DimensionHashTable(size_t width_words, size_t expected_entries = 64);

  size_t width_words() const { return width_; }
  /// Entry count. Readable without the lock (stats paths sample it while
  /// the Pipeline Manager mutates the table), hence atomic.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Lock taken shared by probing filters and by the Pipeline Manager's
  /// inserts and bit passes, exclusive by growth and deletion.
  /// RETURN_CAPABILITY lets the analysis unify a caller's
  /// `ReaderMutexLock lk(&table->mutex())` with this table's mu_, so the
  /// ProbeLocked/ProbeBatchLocked REQUIRES_SHARED contracts check across
  /// translation units.
  SharedMutex& mutex() RETURN_CAPABILITY(mu_) { return mu_; }

  /// Complementary bitmap b_Dj words; read with bitops::AtomicLoadWord,
  /// written via AssignComplementBits.
  const uint64_t* complement() const { return complement_.get(); }

  /// For every bit set in `mask`, sets that bit of b_Dj to the same bit
  /// of `values` (both width_words() words); other bits are untouched.
  /// Pipeline Manager only (single writer; lock-free readers are safe).
  void AssignComplementBits(const uint64_t* mask, const uint64_t* values);

  // --- Probe path (caller holds shared lock) ------------------------------

  /// Returns the entry for `key` or nullptr. The returned pointer is valid
  /// while the shared lock is held.
  const Entry* ProbeLocked(int64_t key) const REQUIRES_SHARED(mu_);

  /// Batched probe: resolves `keys[0..n)` into `out[0..n)` (entry pointer
  /// or nullptr, same contract as ProbeLocked). Hashes every key first and
  /// software-prefetches each target tag line before resolving, so up to
  /// kMaxBatch probe misses overlap in the memory system instead of
  /// costing one serialized DRAM latency each. Result is element-wise
  /// identical to n ProbeLocked calls.
  void ProbeBatchLocked(const int64_t* keys, const Entry** out, size_t n) const
      REQUIRES_SHARED(mu_);

  /// ANDs the filtering vector of a probe result into `tuple_bits`
  /// (width_words() words): e->bits | b_Dj for a hit, b_Dj for a miss
  /// (e == nullptr). Returns false when no bit of `tuple_bits` is left.
  /// `e` must come from a probe under the shared lock still held.
  bool AndFilterInto(uint64_t* tuple_bits, const Entry* e) const {
    const uint64_t* comp = complement_.get();
    if (e == nullptr) return bitops::AndIntoAtomicSrc(tuple_bits, comp, width_);
    uint64_t any = 0;
    for (size_t w = 0; w < width_; ++w) {
      tuple_bits[w] &= bitops::AtomicLoadWord(e->bits, w) |
                       bitops::AtomicLoadWord(comp, w);
      any |= tuple_bits[w];
    }
    return any != 0;
  }

  // --- Admission / cleanup path (Pipeline Manager thread) -----------------

  /// Batched insert-and-select: for each i < n, inserts keys[i] if absent
  /// (rows[i] attached, bits all clear) and ORs the width_words() words
  /// at masks + i * width_words() into its bit-vector. A key repeated
  /// within the call accumulates every mask; the first row wins. Runs
  /// under the shared lock, beside the probes; when the call's new keys
  /// would not fit under the load-factor bound, the table first grows
  /// under the exclusive lock.
  void InsertOrMerge(const int64_t* keys, const uint8_t* const* rows,
                     const uint64_t* masks, size_t n) EXCLUDES(mu_);

  /// Algorithm 2's garbage collection: clears every entry bit outside
  /// `active_mask` (the ids of registered queries; width_words() words)
  /// and removes the entries left with no bit set — tuples no registered
  /// query selects, whose filtering vector is b_Dj, the same as a miss.
  /// The bit pass runs under the shared lock; the exclusive lock is held
  /// only to delete the dead keys by backward-shift deletion. Returns
  /// entries removed.
  size_t RemoveDeadEntries(const uint64_t* active_mask) EXCLUDES(mu_);

  /// Visits every entry under the shared lock: fn(const Entry&).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    for (size_t i = 0; i < cap_; ++i) {
      if (LoadTag(tags_.get(), i) != 0) fn(slots_[i]);
    }
  }

 private:
  /// Tag for an occupied slot holding `hash`: the full hash with bit 63
  /// forced on, so no occupied tag is ever 0 (the empty marker). No slot
  /// index uses bit 63, so `tag & Mask()` is the entry's home slot, and
  /// key identity is always confirmed against Entry::key on a tag match.
  static uint64_t TagFor(uint64_t hash) { return hash | (uint64_t{1} << 63); }
  /// Probe-side tag load: acquire, pairing with the release store that
  /// publishes an entry inserted under the shared lock.
  static uint64_t LoadTag(const uint64_t* tags, size_t i) {
    return std::atomic_ref<const uint64_t>(tags[i]).load(
        std::memory_order_acquire);
  }

  size_t Mask() const REQUIRES_SHARED(mu_) { return cap_ - 1; }
  void RehashLocked() REQUIRES(mu_);
  /// Finds or inserts `key` and ORs `mask` into its bits; capacity already
  /// ensured. Pipeline Manager only (the single writer), shared lock held.
  void MergeOneLocked(int64_t key, const uint8_t* row, const uint64_t* mask)
      REQUIRES_SHARED(mu_);
  /// Deletes stored `key` by backward shift (Knuth's Algorithm R): each
  /// later entry of the cluster moves into the hole unless its home slot
  /// lies cyclically in (hole, its slot], so no tombstone is left.
  void EraseLocked(int64_t key) REQUIRES(mu_);
  /// Continues a probe chain at `idx` looking for (tag, key); used by the
  /// batched probe to resolve the rare full-64-bit tag collision.
  const Entry* ProbeChainFrom(size_t idx, uint64_t want, int64_t key) const
      REQUIRES_SHARED(mu_);
  /// Grows until `extra` more entries fit under the load-factor bound.
  void ReserveLocked(size_t extra) REQUIRES(mu_);
  bool FitsLocked(size_t extra) const REQUIRES_SHARED(mu_) {
    return (size_.load(std::memory_order_relaxed) + extra) * 10 <= cap_ * 7;
  }

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  /// 64-byte-aligned uint64_t array (the tag slot groups). Large arrays
  /// are 2MB-aligned and hugepage-advised: software prefetches are
  /// silently dropped on a TLB miss, so without huge pages a big table's
  /// prefetch schedule does nothing (DRAMHiT §4 makes the same point).
  using AlignedWordArray = std::unique_ptr<uint64_t[], FreeDeleter>;
  static AlignedWordArray AllocTags(size_t n);
  using SlotArray = std::unique_ptr<Entry[], FreeDeleter>;
  static SlotArray AllocSlots(size_t n);

  /// True when width_ <= kInlineWords: bit words live inside the Entry
  /// line and the words arena is not allocated.
  bool InlineBits() const { return width_ <= kInlineWords; }
  /// Points entry i's `bits` at its storage (inline or arena slot i).
  void BindBits(size_t i) REQUIRES(mu_) {
    slots_[i].bits =
        InlineBits() ? slots_[i].inline_words : &words_[i * width_];
  }

  size_t width_;
  mutable SharedMutex mu_;
  /// Slot capacity (power of two); slots_/tags_/words_ all have cap_
  /// elements (x width_ for words_).
  size_t cap_ GUARDED_BY(mu_) = 0;
  SlotArray slots_ GUARDED_BY(mu_);
  /// Occupancy/identity tags: tags_[i] == 0 iff slot i is empty, else
  /// TagFor(Mix64(slots_[i].key)). 8 tags per 64B line.
  AlignedWordArray tags_ GUARDED_BY(mu_);
  /// Bit-vector arena for widths beyond kInlineWords: one `width_` word
  /// block per slot, same index as slots_. Null when bits are inline.
  std::unique_ptr<uint64_t[]> words_ GUARDED_BY(mu_);
  /// Not guarded: written by the Pipeline Manager alone (relaxed stores),
  /// read with relaxed atomic loads at any lock level.
  std::unique_ptr<uint64_t[]> complement_;
  /// Written by the Pipeline Manager alone; read lock-free by size().
  std::atomic<size_t> size_{0};
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_DIM_HASH_TABLE_H_
