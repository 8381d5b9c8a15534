// Shared benchmark harness (paper §6.1 methodology).
//
// Implements the paper's measurement protocol: "the client initially
// submits the first n queries of the workload in a batch, and then
// submits the next query in the workload whenever an outstanding query
// finishes. This way, there are always n queries executing concurrently.
// To ensure that we evaluate the steady state, we measure the metrics
// over queries [warmup, warmup+measure) in the workload."
//
// Three systems under test share the storage/expression/aggregation
// substrates and differ only in the execution strategy:
//   * kCJoin    — the CJOIN operator (one shared always-on plan);
//   * kSystemX  — query-at-a-time hash-join pipelines (lean executor,
//                 private scans);
//   * kPostgres — query-at-a-time with a heavier per-tuple interpreter
//                 and synchronized-scan behaviour (shared disk reader
//                 identity), mirroring the tuned PostgreSQL of §6.1.1.

#ifndef CJOIN_BENCH_HARNESS_H_
#define CJOIN_BENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "ssb/generator.h"
#include "ssb/queries.h"
#include "storage/sim_disk.h"

namespace cjoin {
namespace bench {

enum class SystemKind { kCJoin, kSystemX, kPostgres };

const char* SystemName(SystemKind kind);

/// Per-run configuration.
struct RunConfig {
  /// Concurrency level n.
  size_t concurrency = 32;
  /// Queries completed before measurement starts / measured count.
  size_t warmup = 64;
  size_t measure = 64;

  /// Shared simulated disk (nullptr = memory-resident).
  SimDisk* disk = nullptr;

  // CJOIN knobs.
  /// Overrides the operator's maxConc (0 = derive from concurrency).
  /// Fixes the bit-vector width at ceil(value/64) words.
  size_t max_concurrency_override = 0;
  /// Fact-table shards, each driving its own CJOIN pipeline instance.
  size_t cjoin_shards = 1;
  size_t cjoin_threads = 4;
  size_t cjoin_batch_size = 256;
  size_t cjoin_queue_capacity = 64;
  size_t cjoin_pool_capacity = 64 * 1024;
  size_t scan_run_rows = 4096;
  bool cjoin_vertical = false;
  bool adaptive_ordering = true;

  // Baseline knobs.
  int systemx_overhead = 0;   ///< extra hash rounds per tuple
  int postgres_overhead = 48;  ///< models the slower interpreter
};

/// Result of one workload run.
struct RunResult {
  double qph = 0.0;            ///< measured throughput, queries/hour
  double elapsed_seconds = 0.0;
  RunningStat response_seconds;            ///< measured queries
  RunningStat submission_seconds;          ///< CJOIN only
  /// Percentile view of the measured response times (p50/p90/p99/p999),
  /// exact nearest-rank over the samples (see SnapshotSeconds).
  obs::LatencySnapshot response_latency;
  std::map<std::string, RunningStat> per_template_response;  ///< by "Qx.y"
  uint64_t disk_seeks = 0;
  /// CJOIN only: fact tuples scanned per second, summed across the pool's
  /// shards over the whole run (the shard-scaling metric).
  double fact_tuples_per_sec = 0.0;
};

/// Runs `workload` on the given system at concurrency config.concurrency,
/// measuring queries [warmup, warmup+measure) by completion order. The
/// workload must contain at least warmup+measure+concurrency queries.
RunResult RunWorkload(SystemKind kind, const ssb::SsbDatabase& db,
                      const std::vector<StarQuerySpec>& workload,
                      const RunConfig& config);

/// Builds a workload of `total` template instances at selectivity `s`.
std::vector<StarQuerySpec> MakeWorkload(const ssb::SsbQueries& queries,
                                        size_t total, double s,
                                        uint64_t seed);

/// Strips the "#k" suffix from a workload label ("Q4.2#17" -> "Q4.2").
std::string TemplateOf(const std::string& label);

/// Nearest-rank quantile `q` of `sorted` (ascending, non-empty): the
/// smallest sample with at least q * n samples at or below it.
template <typename T>
T NearestRank(const std::vector<T>& sorted, double q) {
  const auto k =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(k, 1, sorted.size()) - 1];
}

/// Exact nearest-rank percentiles (and count, sum, min, max) of raw
/// latency samples in seconds, reported in nanoseconds: the single
/// percentile implementation for every bench. Unlike obs::LatencyHistogram
/// it has no bucket error and does not depend on obs::MetricsEnabled().
obs::LatencySnapshot SnapshotSeconds(const std::vector<double>& seconds);

/// Nanoseconds -> milliseconds for printing snapshot fields.
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// True iff the CJOIN_BENCH_FULL environment variable asks for the
/// paper-scale (slow) parameters.
bool FullScale();

/// Prints a standard header naming the experiment and its parameters.
void PrintHeader(const std::string& experiment, const std::string& params);

}  // namespace bench
}  // namespace cjoin

#endif  // CJOIN_BENCH_HARNESS_H_
