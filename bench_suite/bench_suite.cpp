// bench_suite: the end-to-end CJOIN benchmark.
//
// One process runs one workload: it generates the SSB database and the
// query stream from --seed, sets the engine up (timed), warms up, measures
// for --seconds, re-checks a sample of answers against the baseline
// executor at each query's snapshot, and prints as its last stdout line
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,
//    "unit":..}}}
//
// --trace 0 measures with the engine's metrics and spans switched off and
// reports the end-to-end metrics. --trace 1 keeps them on and reports the
// per-layer ledger: its window alternates five metrics-off and five
// metrics-on slices of seconds/5 each, the layer numbers come from the
// metrics-on slices (seconds in total), and the extra CPU per query with
// metrics on, median over the slice pairs, gives obs.overhead_pct. Layers are measured from outside the engine: the
// bench's own timers around Execute()/AppendFacts()/DeleteFacts(), each
// ticket's span trace, operator and router stats deltas, and per-thread
// CPU from /proc/self/task. README.md lists the workloads and metrics.
//
//   bench_suite --workload NAME --seed N [--seconds S] [--trace 0|1]

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

using namespace cjoin;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  double sf;
  size_t shards;
  /// Closed loop: queries kept in flight. 0 selects the open loop.
  size_t clients;
  /// Open loop: arrivals per second.
  size_t arrivals_per_s;
  /// One writer appending 1,000-row batches every 100 ms and deleting
  /// its own rows every 10th batch.
  bool writer;
  /// Two tenants ("bi" on CJOIN, "adhoc" routed by cost under a quota),
  /// 2 s deadlines and 5% cancels.
  bool tenants;
};

// Why each workload exists is recorded in README.md next to its row.
constexpr Workload kWorkloads[] = {
    {"ssb_n128", 0.5, 1, 128, 0, false, false},
    {"ssb_n8_small", 0.01, 1, 8, 0, false, false},
    {"shard4_churn", 0.1, 4, 32, 0, true, false},
    {"tenants_open", 0.1, 1, 0, 100, false, true},
};

constexpr double kSelectivity = 0.01;
constexpr size_t kWarmupCompletions = 256;
constexpr double kWarmupMinSeconds = 1.0;
/// Odd, so the median is one repetition; only the first runs on a cold
/// heap.
constexpr size_t kSetupRepeats = 7;
/// Answer checks kept per (template, route) from the measured window.
constexpr size_t kChecksPerTemplate = 7;
constexpr int kAbSlicePairs = 5;
constexpr size_t kSampleCapacity = 1 << 21;

constexpr size_t kWriterBatchRows = 1000;
constexpr int64_t kWriterPeriodNs = 100'000'000;
constexpr int kWriterDeleteEvery = 10;
/// lo_orderkey of appended rows: above every generated key, so the
/// writer's delete predicate matches only its own rows.
constexpr int32_t kAppendKeyBase = 1 << 30;

constexpr double kOpenBiShare = 0.7;
constexpr double kOpenCancelShare = 0.05;
constexpr int64_t kOpenCancelAfterNs = 20'000'000;
constexpr int64_t kOpenDeadlineNs = 2'000'000'000;

int64_t NowNs() { return QueryRuntime::NowNs(); }

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "bench_suite: %s\n", what.c_str());
  std::exit(1);
}

void NameThread(const char* name) { pthread_setname_np(pthread_self(), name); }

/// Nearest-rank percentile over raw samples (0 when there are none).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string Canonical(ResultSet rs) {
  rs.SortRows();
  return rs.ToString();
}

// ---------------------------------------------------------------------------
// Per-query records
// ---------------------------------------------------------------------------

/// Span-derived terms of one CJOIN query (ns; -1 when a span is missing).
/// register, lap, drain and deliver partition [Execute(), completion]:
///   register  Execute() start -> last shard's "pre" span begins
///   lap       -> last "pre" span ends (one scan lap)
///   drain     -> last "dist" span ends (end control drains the stages)
///   deliver   -> the bench observes the ticket ready (merge included)
struct Ledger {
  int64_t reg = -1, lap = -1, drain = -1, deliver = -1;
  int64_t merge = -1, skew = -1, gate = -1;
  int64_t base_queue = -1, base_run = -1;
};

struct Sample {
  /// When the query was due: its scheduled arrival (open loop) or the
  /// completion that freed its client (closed loop).
  int64_t due_ns = 0;
  /// Where its response time starts: due_ns (open) or Execute() (closed).
  int64_t origin_ns = 0;
  int64_t exec_start_ns = 0;
  int64_t exec_end_ns = 0;
  int64_t done_ns = 0;
  double submit_s = 0.0;  ///< CJOIN registration time (ticket)
  StatusCode code = StatusCode::kOk;
  RouteChoice route = RouteChoice::kCJoin;
  bool cancel_intended = false;
  bool traced = false;
  Ledger ledger;

  double ResponseMs() const {
    return static_cast<double>(done_ns - origin_ns) * 1e-6;
  }
};

struct Check {
  StarQuerySpec spec;
  SnapshotId snapshot = 0;
  std::string expected;
};

struct WriteOp {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  size_t rows = 0;  ///< 0 for a delete
};

Ledger LedgerOf(const obs::QueryTrace& trace, const Sample& s) {
  Ledger l;
  int64_t pre_begin = 0, pre_end = 0, dist_end = 0;
  int64_t dist_end_min = INT64_MAX;
  auto dur = [](const obs::TraceSpan& sp) {
    return sp.end_ns > sp.start_ns ? sp.end_ns - sp.start_ns : 0;
  };
  for (const obs::TraceSpan& sp : trace.Spans()) {
    const std::string_view label(sp.label);
    switch (sp.kind) {
      case obs::SpanKind::kStage:
        if (label.ends_with("pre")) {
          pre_begin = std::max(pre_begin, sp.start_ns);
          pre_end = std::max(pre_end, sp.end_ns);
        } else if (label.ends_with("dist") && sp.end_ns != 0) {
          dist_end = std::max(dist_end, sp.end_ns);
          dist_end_min = std::min(dist_end_min, sp.end_ns);
        }
        break;
      case obs::SpanKind::kMerge:
        l.merge = dur(sp);
        break;
      case obs::SpanKind::kAdmission:
        l.gate = dur(sp);
        break;
      case obs::SpanKind::kBaselineQueue:
        l.base_queue = dur(sp);
        break;
      case obs::SpanKind::kBaselineRun:
        l.base_run = dur(sp);
        break;
      default:
        break;
    }
  }
  if (s.route != RouteChoice::kCJoin) return l;
  if (pre_begin >= s.exec_start_ns) l.reg = pre_begin - s.exec_start_ns;
  if (pre_begin != 0 && pre_end >= pre_begin) l.lap = pre_end - pre_begin;
  if (pre_end != 0 && dist_end >= pre_end) l.drain = dist_end - pre_end;
  if (dist_end != 0 && s.done_ns >= dist_end) {
    l.deliver = s.done_ns - dist_end;
    l.skew = dist_end - dist_end_min;
  }
  return l;
}

// ---------------------------------------------------------------------------
// Load generator: one thread, closed or open loop
// ---------------------------------------------------------------------------

class LoadGen {
 public:
  LoadGen(const Workload& w, QueryEngine& engine,
          const ssb::SsbQueries& queries, uint64_t seed)
      : w_(w),
        engine_(engine),
        queries_(queries),
        query_rng_(seed ^ 0x51ull),
        arrival_rng_(seed ^ 0xa7ull) {
    // Reserved, not grown: reallocation copies would add a throughput-
    // dependent transient to peak RSS. Untouched capacity is not resident.
    samples_.reserve(kSampleCapacity);
  }
  ~LoadGen() { Stop(); }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      NameThread("bench/gen");
      Run();
    });
  }

  /// Stops submitting, waits for (or after 30 s cancels) the queries in
  /// flight, and joins. TakeSamples() and checks() are valid afterwards.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  size_t completions() const {
    return completions_.load(std::memory_order_acquire);
  }
  /// Completions in [from, until) may be kept as answer checks.
  void SampleChecks(int64_t from, int64_t until) {
    check_until_.store(until, std::memory_order_release);
    check_from_.store(from, std::memory_order_release);
  }

  std::vector<Sample> TakeSamples() { return std::move(samples_); }
  const std::vector<Check>& checks() const { return checks_; }

 private:
  struct InFlight {
    std::unique_ptr<QueryTicket> ticket;
    StarQuerySpec spec;
    size_t tmpl = 0;
    Sample sample;
    int64_t cancel_at_ns = 0;  ///< 0 = never
  };

  void Run() {
    const int64_t start = NowNs();
    if (w_.clients > 0) {
      for (size_t i = 0; i < w_.clients; ++i) free_slots_.push_back(start);
      while (!stop_.load(std::memory_order_acquire)) {
        while (!free_slots_.empty() && !stop_.load(std::memory_order_acquire)) {
          Submit(free_slots_.front(), false, "");
          free_slots_.pop_front();
        }
        if (!Harvest()) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else {
      int64_t second = start;
      std::vector<int64_t> due;  // the current second's arrivals, latest first
      while (!stop_.load(std::memory_order_acquire)) {
        int64_t now = NowNs();
        for (;;) {
          if (due.empty()) {
            due = ArrivalsIn(second);
            second += 1'000'000'000;
          }
          if (due.back() > now) break;
          const int64_t t = due.back();
          due.pop_back();
          const bool bi = arrival_rng_.Bernoulli(kOpenBiShare);
          const bool cancel = arrival_rng_.Bernoulli(kOpenCancelShare);
          Submit(t, cancel, bi ? "bi" : "adhoc");
          now = NowNs();
        }
        int64_t wake = std::min(due.back(), now + 200'000);
        for (InFlight& f : inflight_) {
          if (f.cancel_at_ns == 0) continue;
          if (f.cancel_at_ns <= now) {
            f.ticket->Cancel();
            f.cancel_at_ns = 0;
          } else {
            wake = std::min(wake, f.cancel_at_ns);
          }
        }
        if (!Harvest()) {
          const int64_t nap = wake - NowNs();
          if (nap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
        }
      }
    }
    Drain();
  }

  /// Poisson arrivals conditioned on their count: exactly
  /// arrivals_per_s of them, each at a uniformly random instant of the
  /// second starting at `second`; returned latest first. Fixing the count
  /// keeps the offered load, and so qph, the same from run to run.
  std::vector<int64_t> ArrivalsIn(int64_t second) {
    std::vector<int64_t> out(w_.arrivals_per_s);
    for (int64_t& t : out) {
      t = second + static_cast<int64_t>(arrival_rng_.UniformDouble() * 1e9);
    }
    std::sort(out.begin(), out.end(), std::greater<int64_t>());
    return out;
  }

  void Submit(int64_t due_ns, bool cancel_intended, const char* tenant) {
    const auto& names = ssb::SsbQueries::PaperTemplateNames();
    InFlight f;
    f.tmpl = static_cast<size_t>(
        query_rng_.UniformInt(0, static_cast<int64_t>(names.size()) - 1));
    auto spec = queries_.FromTemplate(names[f.tmpl], kSelectivity, query_rng_);
    if (!spec.ok()) Fatal("query generation: " + spec.status().ToString());
    f.spec = std::move(*spec);
    QueryRequest req = QueryRequest::FromSpec(f.spec);
    if (w_.tenants) {
      // Reporting ("bi") runs on the shared scan. Ad-hoc queries are
      // routed by cost, which sends nearly all of these selective ones to
      // the baseline pool; pinning bi keeps a CJOIN population in the run.
      req.policy = std::string_view(tenant) == "bi" ? RoutePolicy::kCJoin
                                                    : RoutePolicy::kAuto;
      req.tenant = tenant;
      req.deadline_ns = due_ns + kOpenDeadlineNs;
      if (cancel_intended) f.cancel_at_ns = due_ns + kOpenCancelAfterNs;
    } else {
      req.policy = RoutePolicy::kCJoin;
    }
    f.sample.due_ns = due_ns;
    f.sample.cancel_intended = cancel_intended;
    f.sample.exec_start_ns = NowNs();
    auto ticket = engine_.Execute(std::move(req));
    f.sample.exec_end_ns = NowNs();
    f.sample.origin_ns = w_.clients > 0 ? f.sample.exec_start_ns : due_ns;
    if (!ticket.ok()) {
      Complete(f, f.sample.exec_end_ns, ticket.status());
      return;
    }
    f.ticket = std::move(*ticket);
    inflight_.push_back(std::move(f));
  }

  bool Harvest() {
    bool any = false;
    for (size_t i = 0; i < inflight_.size();) {
      if (!inflight_[i].ticket->Ready()) {
        ++i;
        continue;
      }
      const int64_t done = NowNs();
      std::swap(inflight_[i], inflight_.back());
      InFlight f = std::move(inflight_.back());
      inflight_.pop_back();
      Complete(f, done, f.ticket->Wait());
      any = true;
    }
    return any;
  }

  void Complete(InFlight& f, int64_t done_ns, Result<ResultSet> rs) {
    Sample& s = f.sample;
    s.done_ns = done_ns;
    s.code = rs.ok() ? StatusCode::kOk : rs.status().code();
    if (f.ticket != nullptr) {
      s.route = f.ticket->route();
      s.submit_s = f.ticket->SubmissionSeconds();
      if (const auto& trace = f.ticket->trace(); trace != nullptr) {
        s.traced = true;
        s.ledger = LedgerOf(*trace, s);
      }
    }
    const int64_t from = check_from_.load(std::memory_order_acquire);
    if (rs.ok() && !s.cancel_intended && done_ns >= from &&
        done_ns < check_until_.load(std::memory_order_acquire)) {
      size_t& kept = checks_kept_[{f.tmpl, s.route}];
      if (kept < kChecksPerTemplate) {
        ++kept;
        checks_.push_back(
            Check{std::move(f.spec), f.ticket->snapshot(), Canonical(*rs)});
      }
    }
    samples_.push_back(s);
    if (w_.clients > 0) free_slots_.push_back(done_ns);
    completions_.fetch_add(1, std::memory_order_release);
  }

  void Drain() {
    const int64_t give_up = NowNs() + 30'000'000'000;
    while (!inflight_.empty()) {
      if (NowNs() > give_up) {
        for (InFlight& f : inflight_) f.ticket->Cancel();
      }
      if (!Harvest()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const Workload& w_;
  QueryEngine& engine_;
  const ssb::SsbQueries& queries_;
  Rng query_rng_;
  Rng arrival_rng_;
  std::vector<InFlight> inflight_;
  std::deque<int64_t> free_slots_;
  std::map<std::pair<size_t, RouteChoice>, size_t> checks_kept_;
  std::vector<Sample> samples_;
  std::vector<Check> checks_;
  std::atomic<int64_t> check_from_{INT64_MAX};
  std::atomic<int64_t> check_until_{INT64_MAX};
  std::atomic<size_t> completions_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joins before the members it uses go away
};

// ---------------------------------------------------------------------------
// Writer (shard4_churn)
// ---------------------------------------------------------------------------

class Writer {
 public:
  Writer(QueryEngine& engine, const Table& fact, uint64_t seed)
      : engine_(engine), fact_(fact), rng_(seed ^ 0x3cull) {}
  ~Writer() { Stop(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      NameThread("bench/writer");
      Run();
    });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<WriteOp>& ops() const { return ops_; }

 private:
  void Run() {
    const Schema& fs = fact_.schema();
    const int key_col = fs.ColumnIndex("lo_orderkey");
    if (key_col < 0) Fatal("lineorder has no lo_orderkey");
    const ExprPtr mine = MakeCompare(CmpOp::kGe, MakeColumnRef(key_col),
                                     MakeLiteral(Value(int64_t{kAppendKeyBase})));
    const uint64_t base_rows = fact_.PartitionRows(0);
    int64_t next = NowNs();
    for (int batch = 0; !stop_.load(std::memory_order_acquire); ++batch) {
      std::vector<std::vector<uint8_t>> rows;
      if (batch % kWriterDeleteEvery != kWriterDeleteEvery - 1) {
        rows.reserve(kWriterBatchRows);
        for (size_t i = 0; i < kWriterBatchRows; ++i) {
          const uint64_t src = static_cast<uint64_t>(
              rng_.UniformInt(0, static_cast<int64_t>(base_rows) - 1));
          const uint8_t* payload = fact_.RowPayload(RowId{0, src});
          rows.emplace_back(payload, payload + fs.row_size());
          fs.SetInt32(rows.back().data(), static_cast<size_t>(key_col),
                      kAppendKeyBase + batch);
        }
      }
      const int64_t wait = next - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      next += kWriterPeriodNs;
      WriteOp op;
      op.start_ns = NowNs();
      if (rows.empty()) {
        if (auto st = engine_.DeleteFacts("ssb", mine); !st.ok()) {
          Fatal("delete: " + st.status().ToString());
        }
      } else {
        if (auto st = engine_.AppendFacts("ssb", rows); !st.ok()) {
          Fatal("append: " + st.status().ToString());
        }
        op.rows = rows.size();
      }
      op.dur_ns = NowNs() - op.start_ns;
      ops_.push_back(op);
    }
  }

  QueryEngine& engine_;
  const Table& fact_;
  Rng rng_;
  std::vector<WriteOp> ops_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Layer counters read from outside the engine
// ---------------------------------------------------------------------------

/// CPU seconds by layer, from the thread names the engine sets.
struct CpuTimes {
  double pre = 0, stage = 0, dist = 0, mgr = 0, baseline = 0, proc = 0;

  CpuTimes operator-(const CpuTimes& o) const {
    return {pre - o.pre,     stage - o.stage,       dist - o.dist,
            mgr - o.mgr,     baseline - o.baseline, proc - o.proc};
  }
  CpuTimes& operator+=(const CpuTimes& o) {
    pre += o.pre, stage += o.stage, dist += o.dist, mgr += o.mgr;
    baseline += o.baseline, proc += o.proc;
    return *this;
  }
};

/// utime + stime of a /proc stat line, in seconds; `comm` receives the
/// name between the parentheses.
double StatCpuSeconds(const std::string& path, std::string* comm) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  const size_t open = line.find('(');
  const size_t close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos) return 0.0;
  *comm = line.substr(open + 1, close - open - 1);
  std::istringstream rest(line.substr(close + 1));
  std::string field;
  double ticks = 0;
  // Fields 3.. follow the comm; utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

CpuTimes ReadCpu() {
  CpuTimes t;
  std::string comm;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    const double s = StatCpuSeconds(task.path().string() + "/stat", &comm);
    const std::string_view c(comm);
    if (c.ends_with("/pre")) {
      t.pre += s;
    } else if (c.find("/stage") != std::string_view::npos) {
      t.stage += s;
    } else if (c.ends_with("/dist")) {
      t.dist += s;
    } else if (c.ends_with("/mgr")) {
      t.mgr += s;
    } else if (c.starts_with("base")) {
      t.baseline += s;
    }
  }
  t.proc = StatCpuSeconds("/proc/self/stat", &comm);
  return t;
}

struct EngineCounters {
  double scanned = 0, skipped = 0, routed = 0, laps = 0, mgr_iters = 0;
  double to_cjoin = 0, to_baseline = 0;

  EngineCounters operator-(const EngineCounters& o) const {
    return {scanned - o.scanned,     skipped - o.skipped,
            routed - o.routed,       laps - o.laps,
            mgr_iters - o.mgr_iters, to_cjoin - o.to_cjoin,
            to_baseline - o.to_baseline};
  }
  EngineCounters& operator+=(const EngineCounters& o) {
    scanned += o.scanned, skipped += o.skipped, routed += o.routed;
    laps += o.laps, mgr_iters += o.mgr_iters;
    to_cjoin += o.to_cjoin, to_baseline += o.to_baseline;
    return *this;
  }
};

/// Reads the operator and router counters; `queue_fill` receives the
/// fullest inter-stage queue's current depth over its capacity.
EngineCounters ReadCounters(QueryEngine& engine, double* queue_fill) {
  auto op = engine.OperatorFor("ssb");
  if (!op.ok()) Fatal(op.status().ToString());
  const CJoinOperator::Stats st = (*op)->GetStats();
  const RouterStats rs = engine.GetRouterStats();
  size_t depth = 0;
  for (size_t d : st.queue_depths) depth = std::max(depth, d);
  *queue_fill = st.queue_capacity == 0
                    ? 0.0
                    : static_cast<double>(depth) /
                          static_cast<double>(st.queue_capacity);
  return {static_cast<double>(st.rows_scanned),
          static_cast<double>(st.rows_skipped_at_preprocessor),
          static_cast<double>(st.tuples_routed),
          static_cast<double>(st.table_laps),
          static_cast<double>(st.manager_iterations),
          static_cast<double>(rs.decisions_cjoin),
          static_cast<double>(rs.decisions_baseline)};
}

/// Machine-wide CPU ticks from the first line of /proc/stat: {steal, all}.
/// On a virtual machine, steal is time the host ran something else while a
/// vCPU had work; it slows every layer alike, so the run record reports it
/// to tell a loaded host from a slower engine.
std::pair<double, double> ReadStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double field = 0, steal = 0, all = 0;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user.
  for (int i = 1; i <= 8 && in >> field; ++i) {
    all += field;
    if (i == 8) steal = field;
  }
  return {steal, all};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Engine set-up and answer checks
// ---------------------------------------------------------------------------

/// One set-up: generate and load the tables, build the engine, register
/// the star and set quotas. Destroys the previous engine and tables first,
/// untimed; returns the seconds it took.
double TimedSetUp(const Workload& w, uint64_t seed,
                  std::unique_ptr<ssb::SsbDatabase>* db,
                  std::unique_ptr<QueryEngine>* engine) {
  engine->reset();
  db->reset();
  const int64_t t0 = NowNs();
  ssb::GenOptions gopts;
  gopts.scale_factor = w.sf;
  gopts.seed = seed;
  auto generated = ssb::Generate(gopts);
  if (!generated.ok()) Fatal("generate: " + generated.status().ToString());
  *db = std::move(*generated);

  // The defaults the server runs with; only the shard count varies.
  QueryEngine::Options opts;
  opts.cjoin_shards = w.shards;
  *engine = std::make_unique<QueryEngine>(opts);
  if (Status st = (*engine)->RegisterStar("ssb", *(*db)->star); !st.ok()) {
    Fatal("register: " + st.ToString());
  }
  if (w.tenants) {
    TenantQuota adhoc;
    adhoc.max_inflight_cjoin = 16;
    // A shed query counts as failed. With 4 baseline jobs, Poisson bursts
    // shed 2 of about 1,900 queries on seeds 1 and 3 (4-vCPU VM); 8 sheds
    // none.
    adhoc.max_queued_baseline = 8;
    adhoc.max_wait_queue = 16;
    adhoc.max_wait_ns = 500'000'000;
    if (Status st = (*engine)->SetTenantQuota("adhoc", adhoc); !st.ok()) {
      Fatal("quota: " + st.ToString());
    }
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Re-runs every check through the baseline executor at the snapshot the
/// CJOIN run read; returns the number of answers that differ.
size_t CountMismatches(QueryEngine& engine, const std::vector<Check>& checks) {
  std::vector<std::unique_ptr<QueryTicket>> tickets;
  for (const Check& c : checks) {
    QueryRequest req = QueryRequest::FromSpec(c.spec);
    req.spec.snapshot = c.snapshot;
    req.policy = RoutePolicy::kBaseline;
    auto t = engine.Execute(std::move(req));
    if (!t.ok()) Fatal("check submit: " + t.status().ToString());
    tickets.push_back(std::move(*t));
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < checks.size(); ++i) {
    Result<ResultSet> rs = tickets[i]->Wait();
    if (!rs.ok()) Fatal("check run: " + rs.status().ToString());
    if (Canonical(std::move(*rs)) != checks[i].expected) {
      std::fprintf(stderr, "bench_suite: answer mismatch for %s\n",
                   checks[i].spec.label.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + Number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}";
}

struct Slice {
  int64_t begin = 0;
  int64_t end = 0;
  bool Holds(int64_t t) const { return t >= begin && t < end; }
};

bool InAny(const std::vector<Slice>& slices, int64_t t) {
  for (const Slice& s : slices) {
    if (s.Holds(t)) return true;
  }
  return false;
}

double SecondsOf(const std::vector<Slice>& slices) {
  double s = 0;
  for (const Slice& sl : slices) s += static_cast<double>(sl.end - sl.begin) * 1e-9;
  return s;
}

/// Successful, non-cancel-intended completions in `slices`.
size_t OkIn(const std::vector<Sample>& samples, const std::vector<Slice>& slices) {
  size_t ok = 0;
  for (const Sample& s : samples) {
    if (!s.cancel_intended && s.code == StatusCode::kOk &&
        InAny(slices, s.done_ns)) {
      ++ok;
    }
  }
  return ok;
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload NAME --seed N [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (i + 1 >= argc) Usage();
    const std::string_view val(argv[++i]);
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Usage();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.data(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val.data(), nullptr);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") Usage();
      a.traced = val == "1";
    } else {
      Usage();
    }
  }
  if (a.workload == nullptr || !(a.seconds > 0.0) || a.seconds > 600.0) {
    Usage();
  }
  return a;
}

void SleepUntil(int64_t t_ns) {
  const int64_t d = t_ns - NowNs();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Everything one measurement yields, read after the load has stopped.
struct Measurement {
  std::vector<Sample> samples;
  std::vector<WriteOp> writes;
  /// Untraced: one window of --seconds. Traced: the metrics-on slices,
  /// with their metrics-off partners in off_slices.
  std::vector<Slice> measured, off_slices;
  std::vector<double> on_cpu_s, off_cpu_s;  ///< process CPU per slice
  CpuTimes cpu;                              ///< over `measured`
  EngineCounters counters;                   ///< over `measured`
  std::vector<double> queue_fill;
  double steal_frac = 0.0;  ///< machine-wide, over the whole window
  size_t checked = 0;
  size_t mismatches = 0;
};

/// Warms the engine up, measures it, and re-checks a sample of answers.
Measurement Measure(const Args& args, QueryEngine& engine,
                    const ssb::SsbDatabase& db) {
  const Workload& w = *args.workload;
  Measurement m;
  const ssb::SsbQueries queries(db);
  LoadGen gen(w, engine, queries, args.seed);
  std::unique_ptr<Writer> writer;
  if (w.writer) writer = std::make_unique<Writer>(engine, *db.lineorder, args.seed);
  const int64_t started = NowNs();
  gen.Start();
  if (writer != nullptr) writer->Start();

  const int64_t warm_min = started + static_cast<int64_t>(kWarmupMinSeconds * 1e9);
  while (gen.completions() < kWarmupCompletions || NowNs() < warm_min) {
    if (NowNs() - started > 120'000'000'000) Fatal("warm-up did not finish");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The measured slices. Untraced: one window of --seconds. Traced:
  // alternating metrics-off / metrics-on slices; the layers are read over
  // the metrics-on ones.
  const int64_t seconds_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t window_start = NowNs();
  const auto [steal0, all0] = ReadStealTicks();
  if (!args.traced) {
    gen.SampleChecks(window_start, window_start + seconds_ns);
    SleepUntil(window_start + seconds_ns);
    m.measured.push_back({window_start, NowNs()});
  } else {
    const int64_t slice_ns = seconds_ns / kAbSlicePairs;
    gen.SampleChecks(window_start, window_start + 2 * kAbSlicePairs * slice_ns);
    int64_t t = window_start;
    for (int i = 0; i < 2 * kAbSlicePairs; ++i) {
      const bool on = i % 2 == 1;
      obs::SetMetricsEnabled(on);
      double fill = 0.0;
      const CpuTimes cpu0 = ReadCpu();
      const EngineCounters c0 = on ? ReadCounters(engine, &fill) : EngineCounters{};
      const int64_t begin = NowNs();
      t += slice_ns;
      // Queue depth is sampled every 10 ms over the metrics-on slices.
      while (NowNs() < t) {
        SleepUntil(std::min(t, NowNs() + 10'000'000));
        if (on) {
          (void)ReadCounters(engine, &fill);
          m.queue_fill.push_back(fill);
        }
      }
      const Slice slice{begin, NowNs()};
      const CpuTimes spent = ReadCpu() - cpu0;
      if (!on) {
        m.off_slices.push_back(slice);
        m.off_cpu_s.push_back(spent.proc);
        continue;
      }
      m.counters += ReadCounters(engine, &fill) - c0;
      m.cpu += spent;
      m.on_cpu_s.push_back(spent.proc);
      m.measured.push_back(slice);
    }
  }
  const auto [steal1, all1] = ReadStealTicks();
  if (all1 > all0) m.steal_frac = (steal1 - steal0) / (all1 - all0);

  if (writer != nullptr) {
    writer->Stop();
    m.writes = writer->ops();
  }
  gen.Stop();
  obs::SetMetricsEnabled(args.traced);
  m.checked = gen.checks().size();
  m.mismatches = CountMismatches(engine, gen.checks());
  m.samples = gen.TakeSamples();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  NameThread("bench/main");
  obs::SetMetricsEnabled(args.traced);

  // Set-up is timed kSetupRepeats times and reported as the median. The
  // first serves the run; the rest follow it, away from the teardown of
  // whatever process ran before, which slowed the set-ups it overlapped.
  std::unique_ptr<ssb::SsbDatabase> db;
  std::unique_ptr<QueryEngine> engine;
  std::vector<double> setup_s = {TimedSetUp(w, args.seed, &db, &engine)};
  const Measurement m = Measure(args, *engine, *db);
  engine->Shutdown();
  const double peak_rss_mb = PeakRssMb();
  while (setup_s.size() < kSetupRepeats) {
    setup_s.push_back(TimedSetUp(w, args.seed, &db, &engine));
  }

  const std::vector<Sample>& samples = m.samples;
  size_t attempted = 0, failed = m.mismatches;
  for (const Sample& s : samples) {
    if (s.cancel_intended || !InAny(m.measured, s.done_ns)) continue;
    ++attempted;
    if (s.code == StatusCode::kOk) continue;
    ++failed;
    std::fprintf(stderr, "bench_suite: query failed: %s\n",
                 StatusCodeName(s.code));
  }

  // Per-query views over the measured slices.
  std::vector<double> resp_ms, submit_ms, exec_us, lag_ms;
  std::vector<double> reg_ms, lap_ms, drain_ms, deliver_ms, merge_ms, skew_ms;
  std::vector<double> ledger_frac, gate_us, bq_ms, brun_ms;
  size_t cjoin_ok = 0, ok = 0;
  for (const Sample& s : samples) {
    if (s.cancel_intended || !InAny(m.measured, s.done_ns)) continue;
    exec_us.push_back(static_cast<double>(s.exec_end_ns - s.exec_start_ns) * 1e-3);
    lag_ms.push_back(static_cast<double>(s.exec_start_ns - s.due_ns) * 1e-6);
    if (s.code != StatusCode::kOk) continue;
    ++ok;
    resp_ms.push_back(s.ResponseMs());
    const Ledger& l = s.ledger;
    if (l.gate >= 0) gate_us.push_back(static_cast<double>(l.gate) * 1e-3);
    if (s.route == RouteChoice::kBaseline) {
      if (l.base_queue >= 0) bq_ms.push_back(static_cast<double>(l.base_queue) * 1e-6);
      if (l.base_run >= 0) brun_ms.push_back(static_cast<double>(l.base_run) * 1e-6);
      continue;
    }
    ++cjoin_ok;
    submit_ms.push_back(s.submit_s * 1e3);
    if (!s.traced) continue;
    double sum = 0;
    const std::pair<int64_t, std::vector<double>*> terms[] = {
        {l.reg, &reg_ms}, {l.lap, &lap_ms}, {l.drain, &drain_ms},
        {l.deliver, &deliver_ms}};
    for (const auto& [ns, out] : terms) {
      if (ns < 0) continue;
      out->push_back(static_cast<double>(ns) * 1e-6);
      sum += static_cast<double>(ns) * 1e-6;
    }
    ledger_frac.push_back(sum / s.ResponseMs());
    merge_ms.push_back(l.merge > 0 ? static_cast<double>(l.merge) * 1e-6 : 0.0);
    if (l.skew >= 0) skew_ms.push_back(static_cast<double>(l.skew) * 1e-6);
  }

  std::vector<Metric> metrics;
  if (!args.traced) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"qph", static_cast<double>(OkIn(samples, m.measured)) /
                    SecondsOf(m.measured) * 3600.0, "1/h"},
        {"resp_p50_ms", Percentile(resp_ms, 0.50), "ms"},
        {"resp_p99_ms", Percentile(resp_ms, 0.99), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const double secs = SecondsOf(m.measured);
    const EngineCounters& counters = m.counters;
    const CpuTimes& cpu = m.cpu;
    const double entered = counters.scanned - counters.skipped;
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    std::vector<double> ingest_ms, delete_ms;
    double append_ns = 0, appended = 0;
    for (const WriteOp& op : m.writes) {
      if (!InAny(m.measured, op.start_ns)) continue;
      const double ms = static_cast<double>(op.dur_ns) * 1e-6;
      if (op.rows == 0) {
        delete_ms.push_back(ms);
      } else {
        ingest_ms.push_back(ms);
        append_ns += static_cast<double>(op.dur_ns);
        appended += static_cast<double>(op.rows);
      }
    }
    // Process CPU per completed query, metrics on against off, per pair.
    std::vector<double> overhead_pct;
    for (int i = 0; i < kAbSlicePairs; ++i) {
      const double off = per(m.off_cpu_s[i], static_cast<double>(OkIn(samples, {m.off_slices[i]})));
      const double on = per(m.on_cpu_s[i], static_cast<double>(OkIn(samples, {m.measured[i]})));
      overhead_pct.push_back(per(on - off, off) * 100.0);
    }
    metrics = {
        {"cjoin.stage.ns_per_tuple", per(cpu.stage * 1e9, entered), "ns"},
        {"cjoin.stage.cpu_util", cpu.stage / secs, "cores"},
        {"cjoin.stage.queue_fill", Mean(m.queue_fill), "fraction"},
        {"cjoin.stage.drop_ratio", per(entered - counters.routed, entered), "fraction"},
        {"cjoin.pre.cpu_util", cpu.pre / secs, "cores"},
        {"cjoin.pre.skip_ratio", per(counters.skipped, counters.scanned), "fraction"},
        {"cjoin.mgr.cpu_util", cpu.mgr / secs, "cores"},
        {"cjoin.mgr.iter_per_s", counters.mgr_iters / secs, "1/s"},
        {"cjoin.mgr.cpu_us_per_query", per(cpu.mgr * 1e6, static_cast<double>(cjoin_ok)), "us"},
        {"cjoin.dist.cpu_util", cpu.dist / secs, "cores"},
        {"cjoin.dist.ns_per_routed", per(cpu.dist * 1e9, counters.routed), "ns"},
        {"storage.scan_rows_per_s", counters.scanned / secs, "1/s"},
        {"storage.laps_per_s", counters.laps / secs, "1/s"},
        {"submit_p50_ms", Percentile(submit_ms, 0.50), "ms"},
        {"submit_p99_ms", Percentile(submit_ms, 0.99), "ms"},
        {"query.register_ms", Median(reg_ms), "ms"},
        {"query.lap_ms", Median(lap_ms), "ms"},
        {"query.drain_ms", Median(drain_ms), "ms"},
        {"query.deliver_ms", Median(deliver_ms), "ms"},
        {"query.merge_ms", Median(merge_ms), "ms"},
        {"query.shard_skew_ms", Median(skew_ms), "ms"},
        {"query.ledger_frac", Median(ledger_frac), "fraction"},
        {"query.gate_us", Median(gate_us), "us"},
        {"baseline.queue_ms", Median(bq_ms), "ms"},
        {"baseline.run_ms", Median(brun_ms), "ms"},
        {"baseline.cpu_util", cpu.baseline / secs, "cores"},
        {"engine.execute_us_p50", Percentile(exec_us, 0.50), "us"},
        {"engine.execute_us_p99", Percentile(exec_us, 0.99), "us"},
        {"engine.route_baseline_frac",
         per(counters.to_baseline, counters.to_cjoin + counters.to_baseline), "fraction"},
        {"engine.append_us_per_row", per(append_ns * 1e-3, appended), "us"},
        {"ingest_p50_ms", Percentile(ingest_ms, 0.50), "ms"},
        {"ingest_p95_ms", Percentile(ingest_ms, 0.95), "ms"},
        {"delete_p50_ms", Percentile(delete_ms, 0.50), "ms"},
        {"proc.cpu_util", cpu.proc / secs, "cores"},
        {"proc.cpu_ms_per_query", per(cpu.proc * 1e3, static_cast<double>(ok)), "ms"},
        {"obs.overhead_pct", Median(overhead_pct), "%"},
        {"bench.gen_lag_p99_ms", Percentile(lag_ms, 0.99), "ms"},
    };
  }

  const bool correct = m.mismatches == 0;
  std::printf(
      "{\"bench_suite\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"measured_s\":%s,\"completed_ok\":%zu,"
      "\"cjoin_ok\":%zu,\"traced_cjoin\":%zu,\"checked\":%zu,"
      "\"mismatches\":%zu,\"steal_frac\":%s}}\n",
      w.name, static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.traced ? 1 : 0,
      Number(SecondsOf(m.measured)).c_str(), ok, cjoin_ok, ledger_frac.size(),
      m.checked, m.mismatches, Number(m.steal_frac).c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
