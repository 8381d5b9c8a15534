#include "bench/harness.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "baseline/qat_engine.h"
#include "cjoin/cjoin_operator.h"
#include "engine/query_engine.h"

namespace cjoin {
namespace bench {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kCJoin:
      return "CJOIN";
    case SystemKind::kSystemX:
      return "SystemX";
    case SystemKind::kPostgres:
      return "PostgreSQL";
  }
  return "?";
}

std::string TemplateOf(const std::string& label) {
  const size_t pos = label.find('#');
  return pos == std::string::npos ? label : label.substr(0, pos);
}

bool FullScale() {
  const char* v = std::getenv("CJOIN_BENCH_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

void PrintHeader(const std::string& experiment, const std::string& params) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", params.c_str());
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

obs::LatencySnapshot SnapshotSeconds(const std::vector<double>& seconds) {
  obs::LatencySnapshot snap;
  if (seconds.empty()) return snap;
  std::vector<uint64_t> ns;
  ns.reserve(seconds.size());
  for (double s : seconds) {
    ns.push_back(s > 0.0 ? static_cast<uint64_t>(std::llround(s * 1e9)) : 0);
  }
  std::sort(ns.begin(), ns.end());
  snap.count = ns.size();
  for (uint64_t v : ns) snap.sum_ns += v;
  snap.min_ns = ns.front();
  snap.max_ns = ns.back();
  snap.p50_ns = NearestRank(ns, 0.50);
  snap.p90_ns = NearestRank(ns, 0.90);
  snap.p99_ns = NearestRank(ns, 0.99);
  snap.p999_ns = NearestRank(ns, 0.999);
  return snap;
}

std::vector<StarQuerySpec> MakeWorkload(const ssb::SsbQueries& queries,
                                        size_t total, double s,
                                        uint64_t seed) {
  Rng rng(seed);
  auto wl = queries.MakeWorkload(total, s, rng);
  if (!wl.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 wl.status().ToString().c_str());
    std::abort();
  }
  return std::move(wl).value();
}

namespace {

/// Shared measurement bookkeeping: completion-order windows.
class Meter {
 public:
  Meter(size_t warmup, size_t measure)
      : warmup_(warmup), measure_(measure) {}

  /// Records the completion of the query with submission index `index`
  /// taking `response_s` seconds (plus optional submission time).
  void Complete(size_t index, const std::string& label, double response_s,
                double submission_s) {
    std::lock_guard<std::mutex> lk(mu_);
    const size_t order = completions_++;
    if (order == warmup_) window_watch_.Restart();
    if (order >= warmup_ && order < warmup_ + measure_) {
      (void)index;
      result_.response_seconds.Add(response_s);
      response_samples_.push_back(response_s);
      if (submission_s > 0) result_.submission_seconds.Add(submission_s);
      result_.per_template_response[TemplateOf(label)].Add(response_s);
      if (order + 1 == warmup_ + measure_) {
        window_seconds_ = window_watch_.ElapsedSeconds();
        done_.store(true, std::memory_order_release);
      }
    }
  }

  bool Done() const { return done_.load(std::memory_order_acquire); }

  RunResult Finish() {
    std::lock_guard<std::mutex> lk(mu_);
    result_.response_latency = SnapshotSeconds(response_samples_);
    result_.elapsed_seconds = window_seconds_;
    result_.qph = window_seconds_ > 0
                      ? static_cast<double>(measure_) / window_seconds_ * 3600.0
                      : 0.0;
    return result_;
  }

 private:
  size_t warmup_;
  size_t measure_;
  std::mutex mu_;
  size_t completions_ = 0;
  Stopwatch window_watch_;
  double window_seconds_ = 0.0;
  std::atomic<bool> done_{false};
  RunResult result_;
  std::vector<double> response_samples_;
};

/// All three systems under test run through the unified
/// QueryEngine::Execute() API; they differ only in routing policy and
/// per-request baseline executor knobs.
RunResult RunEngine(SystemKind kind, const ssb::SsbDatabase& db,
                    const std::vector<StarQuerySpec>& workload,
                    const RunConfig& cfg) {
  QueryEngine::Options eopts;
  eopts.cjoin.max_concurrent_queries =
      cfg.max_concurrency_override != 0
          ? cfg.max_concurrency_override
          : std::min<size_t>(1024, std::max<size_t>(cfg.concurrency, 8));
  eopts.cjoin_shards = cfg.cjoin_shards;
  eopts.cjoin.num_worker_threads = cfg.cjoin_threads;
  eopts.cjoin.batch_size = cfg.cjoin_batch_size;
  eopts.cjoin.queue_capacity = cfg.cjoin_queue_capacity;
  eopts.cjoin.pool_capacity = cfg.cjoin_pool_capacity;
  eopts.cjoin.scan_run_rows = cfg.scan_run_rows;
  eopts.cjoin.disk = cfg.disk;
  eopts.cjoin.adaptive_ordering = cfg.adaptive_ordering;
  eopts.cjoin.config = cfg.cjoin_vertical ? PipelineConfig::kVertical
                                          : PipelineConfig::kHorizontal;
  // One baseline worker per concurrent query, as in the paper's testbed.
  eopts.baseline_workers = cfg.concurrency;
  QueryEngine engine(eopts);
  if (Status st = engine.RegisterStar("ssb", *db.star); !st.ok()) {
    std::fprintf(stderr, "engine start failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  // The engine's cjoin.disk_reader_id default (0) is the single shared
  // continuous-scan identity.

  const bool is_cjoin = kind == SystemKind::kCJoin;
  const bool shared_reader = kind == SystemKind::kPostgres;
  const int overhead = kind == SystemKind::kPostgres ? cfg.postgres_overhead
                                                     : cfg.systemx_overhead;

  Meter meter(cfg.warmup, cfg.measure);
  Stopwatch run_watch;
  struct InFlight {
    size_t index;
    std::unique_ptr<QueryTicket> ticket;
  };
  std::vector<InFlight> in_flight;
  size_t next = 0;
  const size_t total = workload.size();

  auto submit_one = [&] {
    QueryRequest req = QueryRequest::FromSpec(workload[next]);
    req.policy = is_cjoin ? RoutePolicy::kCJoin : RoutePolicy::kBaseline;
    if (!is_cjoin) {
      QatOptions qopts;
      qopts.disk = cfg.disk;
      // PostgreSQL's synchronized scans share the device position (one
      // reader identity); System X's private scans compete (per-query
      // identity => seeks on every interleave).
      qopts.reader_id = shared_reader ? 1 : 1000 + next;
      qopts.per_tuple_overhead = overhead;
      qopts.scan_batch_rows = cfg.scan_run_rows;
      req.baseline_options = qopts;
    }
    auto t = engine.Execute(std::move(req));
    if (!t.ok()) {
      std::fprintf(stderr, "execute failed: %s\n",
                   t.status().ToString().c_str());
      std::abort();
    }
    in_flight.push_back(InFlight{next, std::move(*t)});
    ++next;
  };

  while (!meter.Done()) {
    while (in_flight.size() < cfg.concurrency && next < total &&
           !meter.Done()) {
      submit_one();
    }
    bool progress = false;
    for (size_t i = 0; i < in_flight.size();) {
      if (in_flight[i].ticket->Ready()) {
        auto rs = in_flight[i].ticket->Wait();
        if (!rs.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       rs.status().ToString().c_str());
          std::abort();
        }
        meter.Complete(in_flight[i].index, in_flight[i].ticket->label(),
                       in_flight[i].ticket->ResponseSeconds(),
                       in_flight[i].ticket->SubmissionSeconds());
        in_flight[i] = std::move(in_flight.back());
        in_flight.pop_back();
        progress = true;
      } else {
        ++i;
      }
    }
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (next >= total && in_flight.empty()) break;
  }
  // Pool-wide scan rate over the run (summed across shards), sampled
  // before shutdown stops the scans.
  double scanned = 0;
  if (is_cjoin) {
    if (auto op = engine.OperatorFor("ssb"); op.ok()) {
      scanned = static_cast<double>((*op)->GetStats().rows_scanned);
    }
  }
  const double total_seconds = run_watch.ElapsedSeconds();
  engine.Shutdown();
  RunResult r = meter.Finish();
  if (total_seconds > 0) r.fact_tuples_per_sec = scanned / total_seconds;
  if (cfg.disk != nullptr) r.disk_seeks = cfg.disk->SeekCount();
  return r;
}

}  // namespace

RunResult RunWorkload(SystemKind kind, const ssb::SsbDatabase& db,
                      const std::vector<StarQuerySpec>& workload,
                      const RunConfig& config) {
  if (workload.size() < config.warmup + config.measure) {
    std::fprintf(stderr, "workload too small for measurement window\n");
    std::abort();
  }
  return RunEngine(kind, db, workload, config);
}

}  // namespace bench
}  // namespace cjoin
