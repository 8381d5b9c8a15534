// Shard scaling: fact-tuple throughput of the sharded CJOIN pool as the
// shard count grows at fixed concurrency, in memory.
//
// Each shard drives a full pipeline instance (continuous scan,
// preprocessor, filters, distributor) over a page slice of the one fact
// table: shard s of N scans the pages whose (partition + page) % N == s.
// With the data in memory the sweep measures CPU parallelism alone: how
// far N pipelines of 2 stage threads each, plus their scan, distributor
// and manager threads, outrun one pipeline on the cores at hand.
//
// Expected shape on 4 vCPUs at quick scale: two shards outrun one while
// cores are spare; past that, each shard's extra scan, distributor and
// manager threads compete for the same cores, and 8 shards fall back to
// about the 1-shard rate. Ten runs read medians of 19.3M fact tuples/s at
// 1 shard, 22.6M at 2, 22.4M at 4 and 19.0M at 8, but each shard count's
// runs spread over 5-10M: the whole sweep takes about 0.2 s, so each
// window lasts milliseconds. The bench is therefore report-only: it
// prints the sweep and always exits 0.
//
// Output: a human-readable table plus one JSON line per configuration
// (the harness benches' machine-readable shape) on stdout.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace cjoin;
using namespace cjoin::bench;

int main() {
  const bool full = FullScale();
  const double sf = full ? 0.1 : 0.01;
  const double s = 0.02;
  const size_t concurrency = full ? 64 : 32;
  const size_t warmup = full ? 128 : 48;
  const size_t measure = full ? 128 : 64;
  const std::vector<size_t> shard_counts = {1, 2, 4, 8};

  PrintHeader("Shard scaling: fact-tuple throughput vs shard count",
              "sf=" + std::to_string(sf) + " s=2%, n=" +
                  std::to_string(concurrency) +
                  " fixed; in memory; 2 pipeline threads per shard");

  ssb::GenOptions gopts;
  gopts.scale_factor = sf;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);
  auto workload = MakeWorkload(
      queries, warmup + measure + 4 * concurrency, s, 42);

  std::printf("%-8s %-16s %-12s %-14s\n", "shards", "fact tuples/s", "qph",
              "mean resp (s)");
  for (size_t shards : shard_counts) {
    RunConfig cfg;
    cfg.concurrency = concurrency;
    cfg.warmup = warmup;
    cfg.measure = measure;
    cfg.cjoin_shards = shards;
    // Keep per-shard thread budget flat so the sweep measures pipeline
    // replication, not a growing thread pool per instance.
    cfg.cjoin_threads = 2;
    RunResult r = RunWorkload(SystemKind::kCJoin, *db, workload, cfg);
    std::printf("%-8zu %-16.0f %-12.0f %-14.4f\n", shards,
                r.fact_tuples_per_sec, r.qph, r.response_seconds.mean());
    std::printf(
        "{\"bench\":\"shard_scaling\",\"sf\":%g,\"selectivity\":%g,"
        "\"concurrency\":%zu,\"shards\":%zu,\"fact_tuples_per_sec\":%.0f,"
        "\"qph\":%.0f,\"mean_response_s\":%.6f,\"p_submission_s\":%.6f}\n",
        sf, s, concurrency, shards, r.fact_tuples_per_sec, r.qph,
        r.response_seconds.mean(), r.submission_seconds.mean());
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: in memory, fact tuples/s rises from 1 to 2 shards "
      "while cores are spare, then flattens and falls back as the shards' "
      "threads outnumber the cores. Windows last milliseconds, so runs "
      "vary widely; report-only.\n");
  return 0;
}
