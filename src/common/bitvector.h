// Query bit-vectors (paper §3.1, §3.2).
//
// Every in-flight fact tuple carries a bit-vector b_tau with one bit per
// registered query id; every dimension hash-table entry carries b_delta, and
// every dimension hash table a complementary bitmap b_Dj. The hot path of
// CJOIN is "AND the tuple's vector with a filtering vector, drop if zero",
// so this file provides two layers:
//
//   * bitops::  — free functions over raw uint64_t word arrays. These are
//     what the pipeline uses: tuple slots embed their words inline in
//     pool-allocated memory, and dimension entries update words with
//     single-writer atomic stores so query admission can proceed
//     concurrently with filtering (paper §3.3.1).
//   * BitVector — an owning convenience type (small-buffer optimized) used
//     off the hot path: bookkeeping, tests, result reporting.

#ifndef CJOIN_COMMON_BITVECTOR_H_
#define CJOIN_COMMON_BITVECTOR_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace cjoin {
namespace bitops {

inline constexpr size_t kBitsPerWord = 64;

/// Number of 64-bit words needed to hold `bits` bits.
inline constexpr size_t WordsForBits(size_t bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

inline void SetBit(uint64_t* words, size_t i) {
  words[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

inline void ClearBit(uint64_t* words, size_t i) {
  words[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
}

inline bool TestBit(const uint64_t* words, size_t i) {
  return (words[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

inline uint64_t AtomicLoadWord(const uint64_t* words, size_t w) {
  std::atomic_ref<const uint64_t> r(words[w]);
  return r.load(std::memory_order_relaxed);
}

/// For every bit set in `mask`, sets that bit of `words` to the same bit
/// of `values`. Each touched word is a relaxed atomic load plus a relaxed
/// atomic store, not a read-modify-write: safe beside concurrent
/// AtomicLoadWord readers, but the words must have a single writer (the
/// Pipeline Manager, for dimension bit-vectors). Words whose mask is 0 are
/// not written.
inline void AssignMaskedWords(uint64_t* words, const uint64_t* mask,
                              const uint64_t* values, size_t nwords) {
  for (size_t i = 0; i < nwords; ++i) {
    if (mask[i] == 0) continue;
    std::atomic_ref<uint64_t> w(words[i]);
    w.store((w.load(std::memory_order_relaxed) & ~mask[i]) |
                (values[i] & mask[i]),
            std::memory_order_relaxed);
  }
}

inline void Fill(uint64_t* words, size_t nwords, uint64_t value) {
  for (size_t i = 0; i < nwords; ++i) words[i] = value;
}

inline void Zero(uint64_t* words, size_t nwords) { Fill(words, nwords, 0); }

inline void Copy(uint64_t* dst, const uint64_t* src, size_t nwords) {
  std::memcpy(dst, src, nwords * sizeof(uint64_t));
}

/// dst &= src. Returns true if dst is non-zero afterwards — the filter
/// hot-path operation ("combine and check relevance", §3.2.2).
inline bool AndInto(uint64_t* dst, const uint64_t* src, size_t nwords) {
  uint64_t any = 0;
  for (size_t i = 0; i < nwords; ++i) {
    dst[i] &= src[i];
    any |= dst[i];
  }
  return any != 0;
}

/// Like AndInto but loads `src` words with relaxed atomics; used when the
/// source is a live dimension bit-vector that admission may be mutating.
inline bool AndIntoAtomicSrc(uint64_t* dst, const uint64_t* src,
                             size_t nwords) {
  uint64_t any = 0;
  for (size_t i = 0; i < nwords; ++i) {
    dst[i] &= AtomicLoadWord(src, i);
    any |= dst[i];
  }
  return any != 0;
}

inline void OrInto(uint64_t* dst, const uint64_t* src, size_t nwords) {
  for (size_t i = 0; i < nwords; ++i) dst[i] |= src[i];
}

inline bool IsZero(const uint64_t* words, size_t nwords) {
  uint64_t any = 0;
  for (size_t i = 0; i < nwords; ++i) any |= words[i];
  return any == 0;
}

/// True iff (a AND NOT b) == 0, i.e. a is a subset of b. This implements the
/// probe-skipping test of §3.2.2: if b_tau AND NOT(b_Dj) is zero, the tuple
/// is only relevant to queries that do not reference D_j, so the probe of
/// H_Dj can be skipped entirely.
inline bool AndNotIsZero(const uint64_t* a, const uint64_t* b,
                         size_t nwords) {
  uint64_t any = 0;
  for (size_t i = 0; i < nwords; ++i) any |= (a[i] & ~b[i]);
  return any == 0;
}

inline size_t PopCount(const uint64_t* words, size_t nwords) {
  size_t n = 0;
  for (size_t i = 0; i < nwords; ++i) n += std::popcount(words[i]);
  return n;
}

/// Invokes fn(bit_index) for every set bit, in increasing order. Used by the
/// Distributor to route a surviving tuple to each interested query.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t nwords, Fn&& fn) {
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      fn(w * kBitsPerWord + static_cast<size_t>(bit));
      word &= word - 1;
    }
  }
}

}  // namespace bitops

/// Owning fixed-width bit-vector with small-buffer optimization (vectors of
/// up to 256 bits — the paper's maxConc — never allocate).
class BitVector {
 public:
  BitVector() : nbits_(0), nwords_(0) {}

  /// Creates a vector of `nbits` bits, all clear.
  explicit BitVector(size_t nbits);

  BitVector(const BitVector& other);
  BitVector& operator=(const BitVector& other);
  BitVector(BitVector&& other) noexcept;
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector();

  size_t size_bits() const { return nbits_; }
  size_t size_words() const { return nwords_; }
  uint64_t* words() { return heap_ ? heap_ : inline_; }
  const uint64_t* words() const { return heap_ ? heap_ : inline_; }

  void Set(size_t i) { bitops::SetBit(words(), i); }
  void Clear(size_t i) { bitops::ClearBit(words(), i); }
  bool Test(size_t i) const { return bitops::TestBit(words(), i); }
  void SetAll();
  void ClearAll() { bitops::Zero(words(), nwords_); }

  bool none() const { return bitops::IsZero(words(), nwords_); }
  bool any() const { return !none(); }
  size_t count() const { return bitops::PopCount(words(), nwords_); }

  bool operator==(const BitVector& other) const;

  /// e.g. "0110" (bit 0 first). Intended for tests and debugging.
  std::string ToString() const;

 private:
  static constexpr size_t kInlineWords = 4;  // 256 bits inline

  void AllocFrom(const BitVector& other);

  size_t nbits_;
  size_t nwords_;
  uint64_t inline_[kInlineWords] = {0, 0, 0, 0};
  uint64_t* heap_ = nullptr;
};

}  // namespace cjoin

#endif  // CJOIN_COMMON_BITVECTOR_H_
