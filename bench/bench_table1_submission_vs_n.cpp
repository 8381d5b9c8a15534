// Table 1 reproduction: "Influence of concurrency on query submission
// time" (§6.2.2) — CJOIN's query submission time (Submit() until the
// query-start control tuple enters the pipeline) vs the number of
// concurrent queries, with the response time row for context.
//
// Expected shape (paper): submission time does NOT depend on n (flat
// ~2.4s at their scale) and is small relative to response time.
//
// Emits one JSON line per n ({"n", "submission_ms", "response_ms"}) and
// exits 1 when, at the largest n, mean submission time exceeds
// kMaxSubmissionShare of mean response time: the Pipeline Manager would
// then be the bottleneck the paper says it is not.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace cjoin;
using namespace cjoin::bench;

namespace {

/// Largest tolerated submission/response ratio at the largest n.
constexpr double kMaxSubmissionShare = 0.25;

}  // namespace

int main() {
  const bool full = FullScale();
  const double sf = full ? 0.1 : 0.01;
  const double s = 0.01;
  const size_t warmup = full ? 64 : 24;
  const size_t measure = full ? 128 : 48;
  const std::vector<size_t> ns = {32, 64, 128, 256};

  PrintHeader("Table 1: influence of concurrency on query submission time",
              "sf=" + std::to_string(sf) + " s=1% (CJOIN; milliseconds)");

  ssb::GenOptions gopts;
  gopts.scale_factor = sf;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);
  auto workload =
      MakeWorkload(queries, 5 * ns.back() + warmup + measure, s, 42);

  std::vector<double> submission, response;
  for (size_t n : ns) {
    SimDisk disk;
    RunConfig cfg;
    cfg.concurrency = n;
    cfg.warmup = std::max(warmup, 2 * n);
    cfg.measure = std::max(measure, 2 * n);
    cfg.disk = &disk;
    RunResult r = RunWorkload(SystemKind::kCJoin, *db, workload, cfg);
    submission.push_back(r.submission_seconds.mean() * 1e3);
    response.push_back(r.response_seconds.mean() * 1e3);
    std::printf(
        "{\"bench\":\"table1_submission_vs_n\",\"n\":%zu,"
        "\"submission_ms\":%.3f,\"response_ms\":%.3f}\n",
        n, submission.back(), response.back());
    std::fflush(stdout);
  }

  std::printf("\n%-24s", "n");
  for (size_t n : ns) std::printf(" %-10zu", n);
  std::printf("\n%-24s", "Submission time (ms)");
  for (double v : submission) std::printf(" %-10.2f", v);
  std::printf("\n%-24s", "Response time (ms)");
  for (double v : response) std::printf(" %-10.1f", v);
  std::printf(
      "\n\nExpected shape: submission time flat across n and a small "
      "fraction of response time.\n");

  const double share = submission.back() / response.back();
  if (!(share <= kMaxSubmissionShare)) {
    std::fprintf(stderr,
                 "FAIL: at n=%zu submission is %.2f of response time "
                 "(limit %.2f)\n",
                 ns.back(), share, kMaxSubmissionShare);
    return 1;
  }
  return 0;
}
