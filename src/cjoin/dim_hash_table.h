// Dimension hash tables with query bit-vectors (paper §3.2.1).
//
// H_Dj stores the union of dimension-j tuples selected by at least one
// registered query. Each stored tuple carries a bit-vector b_delta
// (bit i set iff query i selects the tuple, or does not reference D_j at
// all), and the table carries one complementary bitmap b_Dj (bit i set
// iff query i does not reference D_j) — the filtering vector of any tuple
// NOT present in the table.
//
// Layout (cache-line conscious, after DRAMHiT's simple_kht): the probe
// path never touches the wide Entry records until a likely hit is found.
// Occupancy and key identity live in a dense out-of-line *tag* array —
// one 64-bit tag per slot, 8 tags per 64-byte-aligned cache line (the
// "slot group") — so one prefetched line resolves up to 8 linear-probe
// steps. A tag is the slot key's full Mix64 hash with bit 0 forced on
// (0 = empty slot), so tag equality is a near-certain key match and a
// miss never loads an Entry at all. Entries are 64-byte aligned — one
// per cache line — with the bit-vector words stored inline in the same
// line when the width fits (<= 4 words = 256 concurrent queries, the
// engine default), so a hit costs exactly one data line: key, row
// pointer, and filter vector arrive together. Wider tables fall back to
// an out-of-line words arena, indexed by slot.
//
// Probing is batched: ProbeBatchLocked() hashes a whole batch of keys
// first, issues a software prefetch for every target tag line, then
// resolves, keeping up to kMaxBatch independent DRAM loads in flight
// instead of serializing one full miss latency per fact tuple. Admission
// inserts batch the same way through InsertOrMerge().
//
// Admission and cleanup work on a whole batch of query ids at once: the
// Pipeline Manager passes a word mask of the batch's ids, so one pass
// over the table (AssignBitsForAllEntries) or one insert call
// (InsertOrMerge, each key carrying the batch's selection mask) serves
// every query in the batch.
//
// Concurrency model (paper §3.3.1: registration proceeds in the Pipeline
// Manager thread "in parallel with the processing of fact tuples"):
//   * Filter workers take the shared lock for the duration of a probe
//     batch and read entry bit-words and b_Dj with relaxed atomic loads.
//   * The Pipeline Manager is the single writer of every bit-word, entry
//     and b_Dj alike. With no second writer, its masked updates are a
//     relaxed load plus a relaxed store (bitops::AssignMaskedWords), not
//     atomic RMWs. Bit-only passes run under the shared lock, beside the
//     probes; structural changes (insert, rehash, GC) take the exclusive
//     lock, once per dimension per admission batch (InsertOrMerge) and
//     once per dimension per cleanup batch (RemoveDeadEntries).
// Mid-flight bit flips are harmless: the Preprocessor keeps the new
// query's bit at 0 in every fact tuple until registration completes, and
// a finished query's results were already emitted before cleanup starts.

#ifndef CJOIN_CJOIN_DIM_HASH_TABLE_H_
#define CJOIN_CJOIN_DIM_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

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
  /// 64-byte aligned: one entry, one cache line.
  struct alignas(64) Entry {
    int64_t key = 0;
    const uint8_t* row = nullptr;
    bool used = false;
    /// The filter bit-vector (b_delta). Always read through this pointer.
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

  /// Lock taken shared by probing filters, exclusive by structure-changing
  /// admission steps. RETURN_CAPABILITY lets the analysis unify a caller's
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

  // --- Admission / cleanup path (Pipeline Manager thread) -----------------

  /// Inserts `key` if absent, initializing the new entry's bits to the
  /// current complement b_Dj (a tuple not previously stored behaves as
  /// "not selected" for queries that reference D_j and "selected" for
  /// queries that don't — exactly b_Dj, paper §3.3.1). Takes the
  /// exclusive lock internally. Returns the entry (existing or new).
  Entry* InsertOrGet(int64_t key, const uint8_t* row) EXCLUDES(mu_);

  /// Batched insert-and-select: for each i < n, inserts keys[i] as
  /// InsertOrGet would (rows[i] attached on first insert, bits starting
  /// at b_Dj) and ORs the width_words() words at masks + i *
  /// width_words() into its bit-vector. A key repeated within the call
  /// accumulates every mask; the first row wins. One exclusive-lock
  /// acquisition for the whole call, with the hash-then-prefetch schedule
  /// of ProbeBatchLocked. Capacity is reserved per kMaxBatch chunk: a
  /// rehash between chunks is harmless because no entry pointer leaves
  /// the call.
  void InsertOrMerge(const int64_t* keys, const uint8_t* const* rows,
                     const uint64_t* masks, size_t n) EXCLUDES(mu_);

  /// For every stored entry, sets the bits selected by `mask` to those of
  /// `values` (as AssignComplementBits does for b_Dj). Shared lock taken
  /// internally, so probes proceed meanwhile. Restores the bit-vector
  /// invariant for a batch of (re)assigned query ids in one pass — see
  /// DESIGN.md §5.
  void AssignBitsForAllEntries(const uint64_t* mask, const uint64_t* values)
      EXCLUDES(mu_);

  /// Removes entries whose bit-vectors are all-zero across `active_words`
  /// mask (i.e. selected by no live query and irrelevant to all).
  /// Exclusive lock taken internally. Returns entries removed.
  ///
  /// An entry is dead iff (bits & active_mask) == (complement &
  /// active_mask): its vector carries no information beyond b_Dj, so a
  /// probe miss yields the same filtering vector (Algorithm 2's garbage
  /// collection, generalized). Survivors are staged in table-owned
  /// scratch buffers, so periodic GC passes stop allocating once the
  /// scratch has grown to the table's working size.
  size_t RemoveDeadEntries(const uint64_t* active_mask) EXCLUDES(mu_);

  /// Visits every entry under the shared lock: fn(const Entry&).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const EXCLUDES(mu_) {
    ReaderMutexLock lk(&mu_);
    for (size_t i = 0; i < cap_; ++i) {
      if (slots_[i].used) fn(slots_[i]);
    }
  }

 private:
  /// Tag for an occupied slot holding `hash`: full hash with bit 0 forced
  /// on so no occupied tag is ever 0 (the empty marker). Bit 0 does not
  /// feed the slot index beyond the hash's own low bit, and key identity
  /// is always confirmed against Entry::key on a tag match.
  static uint64_t TagFor(uint64_t hash) { return hash | 1; }

  size_t Mask() const REQUIRES_SHARED(mu_) { return cap_ - 1; }
  void RehashLocked() REQUIRES(mu_);
  /// Scalar insert body (caller holds the exclusive lock, capacity
  /// already ensured).
  Entry* InsertOneLocked(int64_t key, const uint8_t* row) REQUIRES(mu_);
  /// Continues a probe chain at `idx` looking for (tag, key); used by the
  /// batched probe to resolve the rare full-64-bit tag collision.
  const Entry* ProbeChainFrom(size_t idx, uint64_t want, int64_t key) const
      REQUIRES_SHARED(mu_);
  /// Grows until `extra` more entries fit under the load-factor bound.
  void ReserveLocked(size_t extra) REQUIRES(mu_);

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
  /// Probe-path occupancy/identity tags: tags_[i] == 0 iff slot i is
  /// empty, else TagFor(Mix64(slots_[i].key)). 8 tags per 64B line.
  AlignedWordArray tags_ GUARDED_BY(mu_);
  /// Bit-vector arena for widths beyond kInlineWords: one `width_` word
  /// block per slot, same index as slots_. Null when bits are inline.
  std::unique_ptr<uint64_t[]> words_ GUARDED_BY(mu_);
  /// Not guarded: written by the Pipeline Manager alone (relaxed stores),
  /// read with relaxed atomic loads at any lock level.
  std::unique_ptr<uint64_t[]> complement_;
  /// Mutated under the exclusive lock; read lock-free by size().
  std::atomic<size_t> size_{0};
  /// GC scratch (RemoveDeadEntries staging); retained across passes so
  /// the Pipeline Manager's periodic GC stops heap-allocating.
  std::vector<Entry> gc_survivors_ GUARDED_BY(mu_);
  std::vector<uint64_t> gc_survivor_bits_ GUARDED_BY(mu_);
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_DIM_HASH_TABLE_H_
