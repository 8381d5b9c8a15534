// Tests of the shared bench harness (bench/harness.h): its percentiles
// are exact nearest-rank over the samples and do not depend on the
// metrics kill switch.

#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "obs/metrics.h"

namespace cjoin {
namespace {

/// Turns the obs metrics off for one scope.
class MetricsOff {
 public:
  MetricsOff() { obs::SetMetricsEnabled(false); }
  ~MetricsOff() { obs::SetMetricsEnabled(true); }
  MetricsOff(const MetricsOff&) = delete;
  MetricsOff& operator=(const MetricsOff&) = delete;
};

TEST(SnapshotSecondsTest, ExactNearestRankWithMetricsOff) {
  MetricsOff off;
  // 1 ms .. 1000 ms, given in descending order.
  std::vector<double> seconds;
  for (int i = 1000; i >= 1; --i) seconds.push_back(i * 1e-3);
  const obs::LatencySnapshot snap = bench::SnapshotSeconds(seconds);
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum_ns, 500'500'000'000u);
  EXPECT_EQ(snap.min_ns, 1'000'000u);
  EXPECT_EQ(snap.max_ns, 1'000'000'000u);
  EXPECT_EQ(snap.p50_ns, 500'000'000u);
  EXPECT_EQ(snap.p90_ns, 900'000'000u);
  EXPECT_EQ(snap.p99_ns, 990'000'000u);
  EXPECT_EQ(snap.p999_ns, 999'000'000u);
}

TEST(SnapshotSecondsTest, SmallAndEmptyInputs) {
  const obs::LatencySnapshot three =
      bench::SnapshotSeconds({0.003, 0.001, 0.002});
  EXPECT_EQ(three.count, 3u);
  EXPECT_EQ(three.p50_ns, 2'000'000u);
  EXPECT_EQ(three.p90_ns, 3'000'000u);
  EXPECT_EQ(three.p999_ns, 3'000'000u);
  // A value that log buckets would round up by up to 12.5% is kept exact.
  EXPECT_EQ(bench::SnapshotSeconds({0.0009}).p50_ns, 900'000u);
  EXPECT_EQ(bench::SnapshotSeconds({}).count, 0u);
}

TEST(RunWorkloadTest, ResponsePercentilesWithMetricsOff) {
  ssb::GenOptions gopts;
  gopts.scale_factor = 0.001;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);
  const auto workload = bench::MakeWorkload(queries, 24, 0.01, 3);
  bench::RunConfig cfg;
  cfg.concurrency = 4;
  cfg.warmup = 4;
  cfg.measure = 12;
  cfg.cjoin_threads = 2;
  bench::RunResult r;
  {
    MetricsOff off;
    r = bench::RunWorkload(bench::SystemKind::kCJoin, *db, workload, cfg);
  }
  const obs::LatencySnapshot& lat = r.response_latency;
  EXPECT_EQ(lat.count, cfg.measure);
  EXPECT_GT(lat.min_ns, 0u);
  EXPECT_LE(lat.min_ns, lat.p50_ns);
  EXPECT_LE(lat.p50_ns, lat.p99_ns);
  EXPECT_EQ(lat.p999_ns, lat.max_ns);
  EXPECT_NEAR(lat.mean_ns() * 1e-9, r.response_seconds.mean(), 1e-6);
}

}  // namespace
}  // namespace cjoin
