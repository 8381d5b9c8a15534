// Admission control & multi-tenant scheduling: quota exhaustion rejects
// with kResourceExhausted without blocking any submitter (the ROADMAP's
// id-freelist fix), a second tenant stays serviceable under another
// tenant's flood, weighted-fair baseline draining, quota release on
// cancel / deadline across shard counts, the bounded deadline-aware
// admission wait queue, and live SetTenantQuota re-configuration.

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "storage/sim_disk.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::ExpectQuiescent;
using testing::MakeTinyStar;
using testing::TinyStar;

StarQuerySpec CountStar(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  return spec;
}

/// One CJOIN-forced submission for `tenant`.
Result<std::unique_ptr<QueryTicket>> SubmitCJoin(QueryEngine& engine,
                                                 const TinyStar& ts,
                                                 const std::string& tenant) {
  QueryRequest req = QueryRequest::FromSpec(CountStar(ts));
  req.policy = RoutePolicy::kCJoin;
  req.tenant = tenant;
  return engine.Execute(std::move(req));
}

const AdmissionController::TenantStats* FindTenant(
    const AdmissionController::Stats& stats, const std::string& name) {
  for (const auto& t : stats.tenants) {
    if (t.tenant == name) return &t;
  }
  return nullptr;
}

// ------------------- The overload acceptance criterion ----------------------

// With a 4-slot quota and 64 concurrent submissions from one tenant,
// the excess tickets complete immediately with kResourceExhausted (no
// submitter blocks), a second tenant's queries still admit and finish,
// and all quota is released after cancel/completion.
class OverloadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OverloadTest, FloodShedsExcessOtherTenantUnaffectedQuotaReleased) {
  const size_t shards = GetParam();
  auto ts = MakeTinyStar(50000);
  // Slow enough that none of the admitted queries completes (and thus
  // releases quota) during the submission burst.
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  eopts.cjoin_shards = shards;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 4;
  ASSERT_TRUE(engine.SetTenantQuota("aggro", quota).ok());

  // 64 concurrent submissions from 8 threads.
  std::mutex mu;
  std::vector<std::unique_ptr<QueryTicket>> tickets;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto ticket = SubmitCJoin(engine, *ts, "aggro");
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        std::lock_guard<std::mutex> lk(mu);
        tickets.push_back(std::move(*ticket));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(tickets.size(), 64u);

  // Exactly the quota admitted; every excess ticket is already terminal
  // with kResourceExhausted — no submitter ever blocked on the freelist.
  size_t admitted = 0, rejected = 0;
  for (auto& ticket : tickets) {
    if (ticket->Ready()) {
      auto rs = ticket->Wait();
      ASSERT_FALSE(rs.ok());
      EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted)
          << rs.status().ToString();
      ++rejected;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(rejected, 60u);

  // The flood does not starve another tenant.
  auto calm = SubmitCJoin(engine, *ts, "calm");
  ASSERT_TRUE(calm.ok());
  auto calm_rs = (*calm)->Wait();
  ASSERT_TRUE(calm_rs.ok()) << calm_rs.status().ToString();
  EXPECT_EQ(calm_rs->rows[0][0].AsInt(), 50000);

  // Cancel the admitted queries: every slot returns.
  for (auto& ticket : tickets) {
    if (!ticket->Ready()) ticket->Cancel();
  }
  for (auto& ticket : tickets) {
    if (!ticket->Ready()) (void)ticket->Wait();
  }
  const auto stats = engine.AdmissionStats();
  const auto* aggro = FindTenant(stats, "aggro");
  ASSERT_NE(aggro, nullptr);
  EXPECT_EQ(aggro->inflight_cjoin, 0u);
  EXPECT_EQ(aggro->admitted, 4u);
  EXPECT_EQ(aggro->released, 4u);
  EXPECT_EQ(aggro->shed, 60u);

  // ... and are immediately reusable.
  std::vector<std::unique_ptr<QueryTicket>> fresh;
  for (int i = 0; i < 4; ++i) {
    auto ticket = SubmitCJoin(engine, *ts, "aggro");
    ASSERT_TRUE(ticket.ok());
    EXPECT_FALSE((*ticket)->Ready()) << "resubmission into a freed slot "
                                        "was shed";
    fresh.push_back(std::move(*ticket));
  }
  for (auto& ticket : fresh) {
    ticket->Cancel();
    (void)ticket->Wait();
  }
  ExpectQuiescent(engine);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, OverloadTest,
                         ::testing::Values<size_t>(1, 4));

// ------------------- Weighted-fair baseline draining ------------------------

TEST(WeightedFairTest, HigherWeightTenantDrainsFirst) {
  auto ts = MakeTinyStar(20000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.baseline_workers = 1;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota light;  // the favored tenant
  light.weight = 4.0;
  ASSERT_TRUE(engine.SetTenantQuota("light", light).ok());
  TenantQuota heavy;
  heavy.weight = 1.0;
  ASSERT_TRUE(engine.SetTenantQuota("heavy", heavy).ok());

  // Occupy the single worker so everything below queues first.
  QueryRequest blocker = QueryRequest::FromSpec(CountStar(*ts));
  blocker.policy = RoutePolicy::kBaseline;
  QatOptions slow;
  slow.disk = &disk;
  blocker.baseline_options = slow;
  auto blocker_ticket = engine.Execute(std::move(blocker));
  ASSERT_TRUE(blocker_ticket.ok());

  // "heavy" floods the queue first; "light" submits after — under the
  // seed's FIFO order light would drain last.
  QatOptions busy;  // CPU-bound, ~ms per job, so the order is observable
  busy.per_tuple_overhead = 512;
  auto submit = [&](const std::string& tenant) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kBaseline;
    req.tenant = tenant;
    req.baseline_options = busy;
    auto ticket = engine.Execute(std::move(req));
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    return std::move(*ticket);
  };
  std::vector<std::unique_ptr<QueryTicket>> heavy_tickets, light_tickets;
  for (int i = 0; i < 6; ++i) heavy_tickets.push_back(submit("heavy"));
  for (int i = 0; i < 6; ++i) light_tickets.push_back(submit("light"));

  for (auto& t : heavy_tickets) ASSERT_TRUE(t->Wait().ok());
  for (auto& t : light_tickets) ASSERT_TRUE(t->Wait().ok());
  ASSERT_TRUE((*blocker_ticket)->Wait().ok());

  // Completion instants: submissions were near-simultaneous, so response
  // time ranks completion order. Weight 4 should pull "light" ahead of
  // the earlier-submitted "heavy" backlog on the shared worker.
  auto mean_response = [](auto& tickets) {
    double sum = 0.0;
    for (auto& t : tickets) sum += t->ResponseSeconds();
    return sum / static_cast<double>(tickets.size());
  };
  EXPECT_LT(mean_response(light_tickets), mean_response(heavy_tickets));
  ExpectQuiescent(engine);
}

// ---------------- Quota release on cancel / deadline ------------------------

class ReleaseTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ReleaseTest, CancelAndDeadlineReturnSlots) {
  const size_t shards = GetParam();
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  eopts.cjoin_shards = shards;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 2;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_FALSE((*q1)->Ready());
  ASSERT_FALSE((*q2)->Ready());

  // Over quota: shed, not blocked.
  auto q3 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q3.ok());
  ASSERT_TRUE((*q3)->Ready());
  EXPECT_EQ((*q3)->Wait().status().code(), StatusCode::kResourceExhausted);

  // Cancellation returns the slot...
  (*q1)->Cancel();
  EXPECT_EQ((*q1)->Wait().status().code(), StatusCode::kCancelled);

  // ... so the next submission admits; give it a short deadline.
  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  req.tenant = "t";
  req.timeout = std::chrono::milliseconds(100);
  auto q4 = engine.Execute(std::move(req));
  ASSERT_TRUE(q4.ok());
  ASSERT_FALSE((*q4)->Ready()) << "freed slot was not granted";

  // Deadline expiry also returns the slot.
  EXPECT_EQ((*q4)->Wait().status().code(), StatusCode::kDeadlineExceeded);
  {
    const auto stats = engine.AdmissionStats();
    const auto* t = FindTenant(stats, "t");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->inflight_cjoin, 1u);  // only q2 remains
  }

  (*q2)->Cancel();
  (void)(*q2)->Wait();
  const auto stats = engine.AdmissionStats();
  const auto* t = FindTenant(stats, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->inflight_cjoin, 0u);
  EXPECT_EQ(t->released, t->admitted);
  ExpectQuiescent(engine);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ReleaseTest,
                         ::testing::Values<size_t>(1, 4));

// ---------------------- Live quota re-configuration -------------------------

TEST(LiveQuotaTest, SetTenantQuotaRebalancesLiveEngine) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota one;
  one.max_inflight_cjoin = 1;
  ASSERT_TRUE(engine.SetTenantQuota("t", one).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());
  ASSERT_FALSE((*q1)->Ready());
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->Wait().status().code(), StatusCode::kResourceExhausted);

  // Raise the budget on the live engine: the next submissions admit
  // while q1 is still in flight.
  TenantQuota three;
  three.max_inflight_cjoin = 3;
  ASSERT_TRUE(engine.SetTenantQuota("t", three).ok());
  auto q3 = SubmitCJoin(engine, *ts, "t");
  auto q4 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q3.ok() && q4.ok());
  EXPECT_FALSE((*q3)->Ready());
  EXPECT_FALSE((*q4)->Ready());
  auto q5 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q5.ok());
  EXPECT_EQ((*q5)->Wait().status().code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(engine.GetTenantQuota("t").max_inflight_cjoin, 3u);

  for (auto* q : {&q1, &q3, &q4}) {
    (**q)->Cancel();
    (void)(**q)->Wait();
  }
  ExpectQuiescent(engine);
}

TEST(LiveQuotaTest, RateLimitShedsAndUnlimitedRestores) {
  auto ts = MakeTinyStar(1000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota slow_rate;
  slow_rate.rate_per_sec = 0.001;  // one token, refills ~never
  slow_rate.burst = 1.0;
  ASSERT_TRUE(engine.SetTenantQuota("t", slow_rate).ok());

  auto submit_baseline = [&] {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kBaseline;
    req.tenant = "t";
    return engine.Execute(std::move(req));
  };
  auto q1 = submit_baseline();
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE((*q1)->Wait().ok());

  auto q2 = submit_baseline();
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->Wait().status().code(), StatusCode::kResourceExhausted);

  // EXPLAIN ROUTE surfaces the shed verdict without consuming quota.
  auto explain = engine.ExplainRoute(CountStar(*ts), "t");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->tenant, "t");
  EXPECT_EQ(explain->admission.rfind("shed", 0), 0u) << explain->admission;

  TenantQuota unlimited;
  ASSERT_TRUE(engine.SetTenantQuota("t", unlimited).ok());
  auto q3 = submit_baseline();
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE((*q3)->Wait().ok());
  ExpectQuiescent(engine);
}

// --------------------- Baseline queue caps ----------------------------------

TEST(BaselineCapTest, TenantAndPoolQueueCapsShed) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.baseline_workers = 1;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_queued_baseline = 2;  // queued + running
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto submit = [&](bool slow) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kBaseline;
    req.tenant = "t";
    if (slow) {
      QatOptions qopts;
      qopts.disk = &disk;
      req.baseline_options = qopts;
    }
    return engine.Execute(std::move(req));
  };
  auto running = submit(true);
  ASSERT_TRUE(running.ok());
  auto queued = submit(false);
  ASSERT_TRUE(queued.ok());
  auto shed = submit(false);
  ASSERT_TRUE(shed.ok());
  ASSERT_TRUE((*shed)->Ready());
  EXPECT_EQ((*shed)->Wait().status().code(),
            StatusCode::kResourceExhausted);

  ASSERT_TRUE((*running)->Wait().ok());
  ASSERT_TRUE((*queued)->Wait().ok());

  // Quota fully released afterwards.
  const auto stats = engine.AdmissionStats();
  const auto* t = FindTenant(stats, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->baseline_in_system, 0u);
  ExpectQuiescent(engine);
}

// --------------------- The bounded CJOIN wait queue -------------------------

TEST(WaitQueueTest, ParkedSubmissionGrantedWhenSlotFrees) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 1;
  quota.max_wait_queue = 1;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());
  ASSERT_FALSE((*q1)->Ready());

  // Slot full, wait queue open: parked, not shed.
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE((*q2)->Ready());
  EXPECT_EQ((*q2)->decision().admission.rfind("queued", 0), 0u)
      << (*q2)->decision().admission;

  // Wait queue full: shed.
  auto q3 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ((*q3)->Wait().status().code(), StatusCode::kResourceExhausted);

  // Freeing the slot grants the parked submission, which then runs to a
  // correct completion.
  (*q1)->Cancel();
  (void)(*q1)->Wait();
  auto rs = (*q2)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 50000);

  const auto stats = engine.AdmissionStats();
  const auto* t = FindTenant(stats, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->inflight_cjoin, 0u);
  EXPECT_EQ(t->waiting, 0u);
  ExpectQuiescent(engine);
}

// A parked ticket is timed from Execute() like any other: its submission
// time covers the wait-queue residence, and the grant binds a query id.
TEST(WaitQueueTest, ParkedTicketSubmissionTimeIncludesWaitQueue) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 1;
  quota.max_wait_queue = 1;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());
  auto q2 = SubmitCJoin(engine, *ts, "t");
  const auto parked_since = std::chrono::steady_clock::now();
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->decision().admission.rfind("queued", 0), 0u)
      << (*q2)->decision().admission;

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // q2 is granted only after q1 gives its slot back below, so it sat
  // parked for at least this long.
  ASSERT_FALSE((*q1)->Ready());
  const double parked = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - parked_since)
                            .count();
  (*q1)->Cancel();
  (void)(*q1)->Wait();

  auto rs = (*q2)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_NE((*q2)->query_id(), UINT32_MAX);
  EXPECT_GE((*q2)->SubmissionSeconds(), parked);
  EXPECT_GE((*q2)->ResponseSeconds(), (*q2)->SubmissionSeconds());
  ExpectQuiescent(engine);
}

// Regression: when the *engine-wide* CJOIN bound (== the id freelist
// size) parked the waiter, the grant must not run inline on the pipeline
// thread that is still mid-delivery — that thread has not recycled the
// completed query's id yet, so an inline re-submission would stall on a
// freelist only it can refill and then shed a waiter that was just
// granted a slot. The service thread submits instead, and the id
// recycles concurrently.
TEST(WaitQueueTest, GrantAcrossEngineWideBoundReusesRecycledId) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  eopts.cjoin.max_concurrent_queries = 2;  // freelist == engine bound == 2
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;  // slots unlimited: only the engine bound binds
  quota.max_wait_queue = 1;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_FALSE((*q1)->Ready());
  ASSERT_FALSE((*q2)->Ready());

  auto q3 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE((*q3)->Ready());
  EXPECT_EQ((*q3)->decision().admission.rfind("queued", 0), 0u)
      << (*q3)->decision().admission;

  (*q1)->Cancel();
  (void)(*q1)->Wait();
  auto rs = (*q3)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 50000);

  (*q2)->Cancel();
  (void)(*q2)->Wait();
  ExpectQuiescent(engine);
}

TEST(WaitQueueTest, ParkedSubmissionTimesOutAndRespectsDeadline) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 1;
  quota.max_wait_queue = 2;
  quota.max_wait_ns = 100'000'000;  // 100ms
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());

  // Wait-queue timeout: kResourceExhausted once max_wait elapses.
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->Wait().status().code(), StatusCode::kResourceExhausted);

  // Deadline-aware: a query deadline earlier than max_wait wins and
  // surfaces as kDeadlineExceeded.
  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  req.tenant = "t";
  req.timeout = std::chrono::milliseconds(30);
  auto q3 = engine.Execute(std::move(req));
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ((*q3)->Wait().status().code(), StatusCode::kDeadlineExceeded);

  // A parked submission can also be cancelled directly.
  auto q4 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q4.ok());
  EXPECT_FALSE((*q4)->Ready());
  (*q4)->Cancel();
  EXPECT_EQ((*q4)->Wait().status().code(), StatusCode::kCancelled);

  (*q1)->Cancel();
  (void)(*q1)->Wait();
  ExpectQuiescent(engine);
}

// -------------- Deadline checked at grant time (regression) -----------------

// A wait-queue grant can be *collected* while the waiter's deadline is
// still in the future, but *executed* after it expired (the service
// thread runs grant actions sequentially, and an earlier grant's
// deferred pipeline submission can run long). The slot consumed for the
// expired waiter must be returned at grant time — not briefly held
// until the pipeline's deadline fan-out reclaims it — and the grant
// must fail with kDeadlineExceeded. Runs under TSan in CI.
TEST(GrantDeadlineTest, ExpiredGrantReturnsSlotWithoutReachingPipeline) {
  AdmissionController::Options opts;
  opts.max_total_cjoin = 2;
  opts.default_quota.max_wait_queue = 4;
  AdmissionController ctrl(opts);

  ASSERT_EQ(ctrl.TryAdmit("t", RouteChoice::kCJoin).outcome,
            AdmissionOutcome::kAdmitted);
  ASSERT_EQ(ctrl.TryAdmit("t", RouteChoice::kCJoin).outcome,
            AdmissionOutcome::kAdmitted);

  // W1's grant models a slow deferred submission: it stalls the service
  // thread's grant batch well past W2's deadline.
  std::promise<Status> w1_promise, w2_promise;
  auto w1 = ctrl.TryAdmit(
      "t", RouteChoice::kCJoin, /*deadline_ns=*/0, [&] {
        return [&](Status st) {
          if (st.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            ctrl.Release("t", RouteChoice::kCJoin);
          }
          w1_promise.set_value(std::move(st));
        };
      });
  ASSERT_EQ(w1.outcome, AdmissionOutcome::kQueued);

  const int64_t deadline =
      QueryRuntime::NowNs() + 60'000'000;  // 60ms: expires under W1's stall
  auto w2 = ctrl.TryAdmit("t", RouteChoice::kCJoin, deadline, [&] {
    return [&](Status st) {
      if (st.ok()) ctrl.Release("t", RouteChoice::kCJoin);
      w2_promise.set_value(std::move(st));
    };
  });
  ASSERT_EQ(w2.outcome, AdmissionOutcome::kQueued);

  // Free both slots: the service thread grants W1 (which stalls), then
  // must notice W2's deadline expired before its grant ran.
  ctrl.Release("t", RouteChoice::kCJoin);
  ctrl.Release("t", RouteChoice::kCJoin);

  EXPECT_TRUE(w1_promise.get_future().get().ok());
  const Status w2_status = w2_promise.get_future().get();
  EXPECT_EQ(w2_status.code(), StatusCode::kDeadlineExceeded)
      << w2_status.ToString();

  // The briefly-consumed slot came back (W1 released its own).
  const auto stats = ctrl.GetStats();
  EXPECT_EQ(stats.total_cjoin_inflight, 0u);
  EXPECT_EQ(stats.total_waiting, 0u);
}

// Engine-level companion: a deadline that expires while the submission
// is parked resolves kDeadlineExceeded through the ticket without ever
// binding a pipeline handle (query_id stays unset).
TEST(GrantDeadlineTest, ExpiredParkedTicketNeverBindsHandle) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 1;
  quota.max_wait_queue = 2;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());
  ASSERT_FALSE((*q1)->Ready());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  req.tenant = "t";
  req.timeout = std::chrono::milliseconds(40);
  auto q2 = engine.Execute(std::move(req));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->Wait().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*q2)->query_id(), UINT32_MAX) << "expired parked submission "
                                              "bound a pipeline handle";

  (*q1)->Cancel();
  (void)(*q1)->Wait();
  const auto stats = engine.AdmissionStats();
  const auto* t = FindTenant(stats, "t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->inflight_cjoin, 0u);
  ExpectQuiescent(engine);
}

// --------------------- EXPLAIN ROUTE admission view -------------------------

TEST(ExplainAdmissionTest, VerdictCarriesTenantStateWithoutConsumingQuota) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  TenantQuota quota;
  quota.max_inflight_cjoin = 2;
  ASSERT_TRUE(engine.SetTenantQuota("t", quota).ok());

  auto q1 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q1.ok());

  for (int i = 0; i < 3; ++i) {
    auto explain = engine.ExplainRoute(CountStar(*ts), "t");
    ASSERT_TRUE(explain.ok());
    EXPECT_EQ(explain->tenant, "t");
    EXPECT_EQ(explain->tenant_inflight_cjoin, 1u);
    EXPECT_EQ(explain->tenant_cjoin_slots, 2u);
    EXPECT_FALSE(explain->admission.empty());
    // The rendering names the tenant and the admission verdict.
    const std::string text = explain->ToString();
    EXPECT_NE(text.find("tenant"), std::string::npos);
    EXPECT_NE(text.find("admission"), std::string::npos);
  }

  // Probing never consumed a slot: a real submission still admits.
  auto q2 = SubmitCJoin(engine, *ts, "t");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE((*q2)->Ready());

  for (auto* q : {&q1, &q2}) {
    (**q)->Cancel();
    (void)(**q)->Wait();
  }
  ExpectQuiescent(engine);
}

}  // namespace
}  // namespace cjoin
