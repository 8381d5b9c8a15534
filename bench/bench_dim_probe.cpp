// Per-tuple dimension-probe cost micro-bench (ROADMAP: batched,
// prefetched dimension probing; DRAMHiT's thesis applied to CJOIN's
// hottest loop).
//
// Measures DimensionHashTable probe throughput scalar
// (ProbeLocked per key) vs batched (ProbeBatchLocked), on a table
// sized well past LLC so probes actually pay DRAM latency, across
// three key mixes:
//   * hit-heavy   (95% of keys present) — admission-heavy workloads;
//   * miss-heavy  ( 5% of keys present) — selective queries, where the
//                 tag array should resolve misses without Entry loads;
//   * probe-skip  (~70% of tuples skipped by the §3.2.2 test before any
//                 key is gathered) — emulates Stage::FilterBatch's
//                 gather pass, where batching only sees the residue.
//
// Emits one JSON line per (mix, arm) plus a summary line; exits
// non-zero if the batched arm is below 1.5x scalar on the miss-heavy
// mix (the CI gate). The hit-heavy target is reported but soft:
// hiding a hit's full tag→Entry dependent-load chain needs working
// hugepages and real memory-level parallelism, and virtualized
// single-core CI hosts (EPT page walks serialize, THP advice is a
// no-op) compress the ratio to ~1.3-1.45x there while bare metal
// clears 1.5x.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "cjoin/dim_hash_table.h"
#include "common/bitvector.h"
#include "common/clock.h"
#include "common/rng.h"

using namespace cjoin;
using namespace cjoin::bench;

namespace {

struct MixResult {
  double scalar_mtps = 0.0;   // million probes (tuples) per second
  double batched_mtps = 0.0;
  uint64_t checksum_scalar = 0;
  uint64_t checksum_batched = 0;
};

// One probe stream: keys[] to look up, skip[] marking tuples the
// §3.2.2 probe-skip test would bypass (never probed by either arm).
struct Stream {
  std::vector<int64_t> keys;
  std::vector<uint8_t> skip;
};

Stream MakeStream(size_t n, size_t table_entries, double hit_rate,
                  double skip_rate, uint64_t seed) {
  Stream s;
  s.keys.resize(n);
  s.skip.resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    s.skip[i] = rng.Bernoulli(skip_rate) ? 1 : 0;
    if (rng.Bernoulli(hit_rate)) {
      // Present: keys 0..table_entries-1 are inserted.
      s.keys[i] = static_cast<int64_t>(
          rng.UniformInt(0, static_cast<int64_t>(table_entries) - 1));
    } else {
      // Absent: the insert key space is disjoint from this range.
      s.keys[i] = static_cast<int64_t>(table_entries) +
                  static_cast<int64_t>(
                      rng.UniformInt(0, static_cast<int64_t>(table_entries)));
    }
  }
  return s;
}

// Checksums fold each probe's outcome (entry key + first bit-vector word
// on hit, sentinel on miss) so the compiler cannot elide the probes and
// the two arms can be cross-checked for identical results. Reading the
// bit words matters: the real FilterBatch always ANDs them on a hit, so
// the probe's dependent-load chain is tag line → Entry → bit words, and
// an honest A/B must pay (or hide) all three levels.
uint64_t FoldProbe(uint64_t acc, const DimensionHashTable::Entry* e) {
  const uint64_t v = e != nullptr
                         ? static_cast<uint64_t>(e->key) ^ e->bits[0]
                         : 0x9e3779b97f4a7c15ull;
  return (acc ^ v) * 0x100000001b3ull;
}

double RunScalar(const DimensionHashTable& ht, const Stream& s,
                 uint64_t* checksum) {
  ReaderMutexLock lk(&const_cast<DimensionHashTable&>(ht).mutex());
  uint64_t acc = 0xcbf29ce484222325ull;
  Stopwatch sw;
  for (size_t i = 0; i < s.keys.size(); ++i) {
    if (s.skip[i]) continue;
    acc = FoldProbe(acc, ht.ProbeLocked(s.keys[i]));
  }
  const double secs = sw.ElapsedSeconds();
  *checksum = acc;
  return static_cast<double>(s.keys.size()) / secs / 1e6;
}

double RunBatched(const DimensionHashTable& ht, const Stream& s,
                  size_t batch, uint64_t* checksum) {
  ReaderMutexLock lk(&const_cast<DimensionHashTable&>(ht).mutex());
  uint64_t acc = 0xcbf29ce484222325ull;
  std::vector<int64_t> keys_buf(batch);
  std::vector<const DimensionHashTable::Entry*> out_buf(batch);
  int64_t* keys = keys_buf.data();
  const DimensionHashTable::Entry** out = out_buf.data();
  Stopwatch sw;
  size_t m = 0;
  for (size_t i = 0; i < s.keys.size(); ++i) {
    if (s.skip[i]) continue;  // gather pass: probe-skip bypasses batching
    keys[m++] = s.keys[i];
    if (m == batch) {
      ht.ProbeBatchLocked(keys, out, m);
      for (size_t j = 0; j < m; ++j) acc = FoldProbe(acc, out[j]);
      m = 0;
    }
  }
  if (m > 0) {
    ht.ProbeBatchLocked(keys, out, m);
    for (size_t j = 0; j < m; ++j) acc = FoldProbe(acc, out[j]);
  }
  const double secs = sw.ElapsedSeconds();
  *checksum = acc;
  return static_cast<double>(s.keys.size()) / secs / 1e6;
}

MixResult RunMix(const DimensionHashTable& ht, const Stream& s,
                 size_t batch, int trials) {
  MixResult r;
  for (int t = 0; t < trials; ++t) {
    uint64_t ck = 0;
    r.scalar_mtps = std::max(r.scalar_mtps, RunScalar(ht, s, &ck));
    r.checksum_scalar = ck;
    r.batched_mtps = std::max(r.batched_mtps, RunBatched(ht, s, batch, &ck));
    r.checksum_batched = ck;
  }
  return r;
}

}  // namespace

int main() {
  const bool full = FullScale();
  // 4M entries x (64B Entry + 8B tag) ≈ 300MB of table: past LLC, so a
  // cold probe is a genuine memory round-trip. Overridable for local
  // sweeps via CJOIN_BENCH_PROBE_ENTRIES.
  const char* entries_env = std::getenv("CJOIN_BENCH_PROBE_ENTRIES");
  const size_t kEntries =
      entries_env != nullptr ? static_cast<size_t>(std::atoll(entries_env))
                             : (1u << 22);
  const size_t kProbes = full ? 16'000'000 : 8'000'000;
  const char* batch_env = std::getenv("CJOIN_BENCH_PROBE_BATCH");
  const size_t kBatch =
      batch_env != nullptr ? static_cast<size_t>(std::atoll(batch_env)) : 128;
  const int kTrials = 3;
  constexpr size_t kWidth = 2;

  PrintHeader("Dimension probe cost: scalar vs batched+prefetched",
              "entries=" + std::to_string(kEntries) +
                  " probes=" + std::to_string(kProbes) +
                  " batch=" + std::to_string(kBatch) +
                  " trials=" + std::to_string(kTrials));

  DimensionHashTable ht(kWidth, kEntries);
  {
    // Bulk-load through the batched admission path.
    static uint8_t row[8] = {};
    int64_t keys[DimensionHashTable::kMaxBatch];
    const uint8_t* rows[DimensionHashTable::kMaxBatch];
    const uint64_t masks[DimensionHashTable::kMaxBatch * kWidth] = {};
    size_t m = 0;
    for (size_t k = 0; k < kEntries; ++k) {
      keys[m] = static_cast<int64_t>(k);
      rows[m] = row;
      if (++m == DimensionHashTable::kMaxBatch) {
        ht.InsertOrMerge(keys, rows, masks, m);
        m = 0;
      }
    }
    if (m > 0) ht.InsertOrMerge(keys, rows, masks, m);
  }
  std::printf("table loaded: %zu entries\n", ht.size());

  struct Mix {
    const char* name;
    double hit_rate;
    double skip_rate;
    double gate;  // hard-fail ratio (0 = ungated)
    double soft;  // warn-only target (0 = none)
  };
  const Mix mixes[] = {
      {"hit_heavy", 0.95, 0.0, 0.0, 1.5},
      {"miss_heavy", 0.05, 0.0, 1.5, 0.0},
      {"probe_skip", 0.50, 0.7, 0.0, 0.0},
  };

  std::printf("%-12s %-14s %-14s %-8s\n", "mix", "scalar Mt/s",
              "batched Mt/s", "ratio");
  bool gate_ok = true;
  for (const Mix& mix : mixes) {
    const Stream s =
        MakeStream(kProbes, kEntries, mix.hit_rate, mix.skip_rate, 42);
    const MixResult r = RunMix(ht, s, kBatch, kTrials);
    if (r.checksum_scalar != r.checksum_batched) {
      std::fprintf(stderr,
                   "FAIL: %s: batched checksum %llx != scalar %llx\n",
                   mix.name,
                   static_cast<unsigned long long>(r.checksum_batched),
                   static_cast<unsigned long long>(r.checksum_scalar));
      return 1;
    }
    const double ratio = r.batched_mtps / r.scalar_mtps;
    std::printf("%-12s %-14.1f %-14.1f %-8.2f\n", mix.name, r.scalar_mtps,
                r.batched_mtps, ratio);
    std::printf(
        "{\"bench\":\"dim_probe\",\"mix\":\"%s\",\"entries\":%zu,"
        "\"batch\":%zu,\"scalar_mtps\":%.2f,\"batched_mtps\":%.2f,"
        "\"ratio\":%.3f}\n",
        mix.name, kEntries, kBatch, r.scalar_mtps, r.batched_mtps, ratio);
    std::fflush(stdout);
    if (mix.gate > 0 && ratio < mix.gate) {
      std::fprintf(stderr, "FAIL: %s ratio %.2f < required %.2f\n",
                   mix.name, ratio, mix.gate);
      gate_ok = false;
    } else if (mix.soft > 0 && ratio < mix.soft) {
      std::fprintf(stderr,
                   "WARN: %s ratio %.2f < target %.2f (soft; expected on "
                   "virtualized hosts without hugepages)\n",
                   mix.name, ratio, mix.soft);
    }
  }
  if (!gate_ok) return 1;
  std::printf(
      "\nExpected shape: batched >= 1.5x scalar on the miss- and (on bare "
      "metal) hit-heavy mixes — DRAM latency hidden across %zu in-flight "
      "probes; the probe-skip mix narrows the gap since 70%% of tuples "
      "never reach the table.\n",
      kBatch);
  return 0;
}
