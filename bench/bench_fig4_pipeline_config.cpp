// Figure 4 reproduction: "The effect of pipeline configuration on
// performance" — query throughput of the horizontal vs vertical CJOIN
// configuration as the number of Stage threads grows (§6.2.1).
//
// Expected shape (paper): the horizontal configuration consistently
// outperforms the vertical one once it has >= 2 threads; the overhead of
// passing tuples between per-filter stages outweighs vertical
// parallelism.
//
// Every (threads, config) point runs kTrials times, the trials of all
// points interleaved so drift spreads evenly, and prints one JSON line
// with the median and quartiles of its qph. Report-only: the measurement
// windows are short (about 0.3 s at quick scale) and swung by about ±20%
// between runs, so the shape is not yet gated.

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench/harness.h"

using namespace cjoin;
using namespace cjoin::bench;

namespace {

constexpr int kTrials = 5;

}  // namespace

int main() {
  const bool full = FullScale();
  const double sf = full ? 0.1 : 0.01;
  const double s = 0.01;
  const size_t n = 32;
  const size_t warmup = full ? 64 : 24;
  const size_t measure = full ? 128 : 32;
  const size_t max_threads = 5;

  PrintHeader("Figure 4: pipeline configuration (horizontal vs vertical)",
              "sf=" + std::to_string(sf) + " s=1% n=" + std::to_string(n) +
                  " trials=" + std::to_string(kTrials) +
                  " (median throughput in queries/hour)");

  ssb::GenOptions gopts;
  gopts.scale_factor = sf;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);
  auto workload = MakeWorkload(queries, warmup + measure + n, s, 42);
  // The vertical configuration needs at least one thread per Filter
  // (4 dimensions in SSB), matching the paper's minimum.
  const size_t num_dims = db->star->num_dimensions();

  // qph samples keyed by (threads, vertical).
  std::map<std::pair<size_t, bool>, std::vector<double>> qph;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (size_t threads = 1; threads <= max_threads; ++threads) {
      for (bool vertical : {false, true}) {
        if (vertical && threads < num_dims) continue;
        RunConfig cfg;
        cfg.concurrency = n;
        cfg.warmup = warmup;
        cfg.measure = measure;
        cfg.cjoin_threads = threads;
        cfg.cjoin_vertical = vertical;
        qph[{threads, vertical}].push_back(
            RunWorkload(SystemKind::kCJoin, *db, workload, cfg).qph);
      }
    }
  }

  std::map<std::pair<size_t, bool>, double> median;
  for (auto& [key, samples] : qph) {
    std::sort(samples.begin(), samples.end());
    median[key] = NearestRank(samples, 0.5);
    std::printf(
        "{\"bench\":\"fig4_pipeline_config\",\"threads\":%zu,"
        "\"config\":\"%s\",\"trials\":%d,\"qph_median\":%.0f,"
        "\"qph_q1\":%.0f,\"qph_q3\":%.0f}\n",
        key.first, key.second ? "vertical" : "horizontal", kTrials,
        median[key], NearestRank(samples, 0.25), NearestRank(samples, 0.75));
  }

  std::printf("\n%-10s %-12s %-12s\n", "threads", "horizontal", "vertical");
  for (size_t threads = 1; threads <= max_threads; ++threads) {
    const auto v = median.find({threads, true});
    if (v != median.end()) {
      std::printf("%-10zu %-12.0f %-12.0f\n", threads,
                  median[{threads, false}], v->second);
    } else {
      std::printf("%-10zu %-12.0f %-12s\n", threads, median[{threads, false}],
                  "(needs >= 4)");
    }
  }
  std::printf("\nExpected shape: horizontal >= vertical at every thread "
              "count where both run.\n");
  return 0;
}
