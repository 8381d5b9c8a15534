// Tests for the unified asynchronous query API: Execute()/QueryTicket on
// both routes, cooperative cancellation (mid-lap bit-vector slot
// reclamation and reuse), deadline expiry, baseline pool priorities, and
// cost-based kAuto routing end to end.

#include <chrono>
#include <memory>
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
using testing::ReferenceEvaluate;
using testing::TinyStar;

/// Selective product query: p_price >= `min_price`.
StarQuerySpec PriceQuery(const TinyStar& ts, int min_price) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  const Schema& ps = ts.product->schema();
  spec.dim_predicates.push_back(DimensionPredicate{
      0, MakeCompare(CmpOp::kGe, MakeColumnRef(ps, "p_price").value(),
                     MakeLiteral(Value(min_price)))});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  return spec;
}

StarQuerySpec CountStar(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  return spec;
}

/// Polls until the CJOIN query behind `ticket` is registered in the
/// pipeline (its submission time becomes known).
bool WaitRegistered(const QueryTicket& ticket,
                    std::chrono::milliseconds timeout) {
  const auto limit = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < limit) {
    if (ticket.SubmissionSeconds() > 0.0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// ----------------------- Uniform Execute() semantics ------------------------

TEST(ExecuteTest, BothRoutesReturnTicketsWithCorrectResults) {
  auto ts = MakeTinyStar(2000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  StarQuerySpec spec = PriceQuery(*ts, 1500);
  const ResultSet ref = ReferenceEvaluate(*NormalizeSpec(spec));

  for (RoutePolicy policy : {RoutePolicy::kCJoin, RoutePolicy::kBaseline}) {
    QueryRequest req = QueryRequest::FromSpec(spec);
    req.policy = policy;
    auto ticket = engine.Execute(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_TRUE((*ticket)->decision().forced);
    auto rs = (*ticket)->Wait();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs->num_rows(), 1u);
    EXPECT_EQ(rs->rows[0][0].AsInt(), ref.rows[0][0].AsInt());
    EXPECT_GT((*ticket)->ResponseSeconds(), 0.0);
    const RouteChoice expect = policy == RoutePolicy::kCJoin
                                   ? RouteChoice::kCJoin
                                   : RouteChoice::kBaseline;
    EXPECT_EQ((*ticket)->route(), expect);
  }
  ExpectQuiescent(engine);
}

TEST(ExecuteTest, SqlRequestsWork) {
  auto ts = MakeTinyStar(1000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::Sql(
      "tiny", "SELECT COUNT(*) AS n FROM sales");
  auto ticket = engine.Execute(std::move(req));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto rs = (*ticket)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1000);
  ExpectQuiescent(engine);
}

TEST(ExecuteTest, ForcedPoliciesAgreeOnSql) {
  auto ts = MakeTinyStar(1000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  for (RoutePolicy policy : {RoutePolicy::kCJoin, RoutePolicy::kBaseline}) {
    QueryRequest req =
        QueryRequest::Sql("tiny", "SELECT COUNT(*) AS n FROM sales");
    req.policy = policy;
    auto t = engine.Execute(std::move(req));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    auto rs = (*t)->Wait();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].AsInt(), 1000);
  }
  ExpectQuiescent(engine);
}

// --------------------------- Cancellation -----------------------------------

// The acceptance-criteria test: a cancelled CJOIN query is deregistered
// mid-lap and its bit-vector slot (query id) is released and reused by
// the next query.
TEST(CancelTest, MidLapCancelFreesAndReusesBitVectorSlot) {
  auto ts = MakeTinyStar(50000);
  // One query id total: reuse is only possible if cancellation released
  // the slot. A slow simulated disk keeps the lap long enough that the
  // cancel lands mid-lap.
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.max_concurrent_queries = 1;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  auto t1 = engine.Execute(std::move(req));
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  const uint32_t slot = (*t1)->query_id();

  // Let it register (mid-lap, not completed), then cancel.
  ASSERT_TRUE(WaitRegistered(**t1, std::chrono::seconds(10)));
  (*t1)->Cancel();
  auto rs1 = (*t1)->Wait();
  ASSERT_FALSE(rs1.ok());
  EXPECT_EQ(rs1.status().code(), StatusCode::kCancelled);

  // The next query can only be admitted if the slot was reclaimed; it
  // must get the same id and run to a correct completion.
  QueryRequest req2 = QueryRequest::FromSpec(CountStar(*ts));
  req2.policy = RoutePolicy::kCJoin;
  auto t2 = engine.Execute(std::move(req2));
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ((*t2)->query_id(), slot);
  auto rs2 = (*t2)->Wait();
  ASSERT_TRUE(rs2.ok()) << rs2.status().ToString();
  EXPECT_EQ(rs2->rows[0][0].AsInt(), 50000);

  auto op = engine.OperatorFor("tiny");
  ASSERT_TRUE(op.ok());
  const auto stats = (*op)->GetStats();
  EXPECT_EQ(stats.queries_cancelled, 1u);
  EXPECT_EQ(stats.queries_completed, 1u);
  ExpectQuiescent(engine);
}

TEST(CancelTest, BaselineCancelledWhileQueued) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.baseline_workers = 1;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  // Occupy the single worker with a disk-bound query.
  QueryRequest slow = QueryRequest::FromSpec(CountStar(*ts));
  slow.policy = RoutePolicy::kBaseline;
  QatOptions slow_opts;
  slow_opts.disk = &disk;
  slow.baseline_options = slow_opts;
  auto blocker = engine.Execute(std::move(slow));
  ASSERT_TRUE(blocker.ok());

  // The queued query is cancelled before a worker picks it up.
  QueryRequest queued = QueryRequest::FromSpec(CountStar(*ts));
  queued.policy = RoutePolicy::kBaseline;
  auto victim = engine.Execute(std::move(queued));
  ASSERT_TRUE(victim.ok());
  (*victim)->Cancel();
  const auto cancel_at = std::chrono::steady_clock::now();
  auto rs = (*victim)->Wait();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);
  // Resolved promptly by the pool's sweeper — NOT after the disk-bound
  // blocker (~600ms) releases the only worker.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - cancel_at)
                .count(),
            300);

  auto brs = (*blocker)->Wait();
  ASSERT_TRUE(brs.ok()) << brs.status().ToString();
  ExpectQuiescent(engine);
}

// ------------------------------ Deadlines -----------------------------------

TEST(DeadlineTest, CJoinQueryExpiresMidLap) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;  // lap >> 100ms
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  req.timeout = std::chrono::milliseconds(100);
  auto ticket = engine.Execute(std::move(req));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto rs = (*ticket)->Wait();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  ExpectQuiescent(engine);
}

TEST(DeadlineTest, BaselineQueryExpiresMidScan) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kBaseline;
  req.timeout = std::chrono::milliseconds(100);
  QatOptions qopts;
  qopts.disk = &disk;
  req.baseline_options = qopts;
  auto ticket = engine.Execute(std::move(req));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto rs = (*ticket)->Wait();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  ExpectQuiescent(engine);
}

TEST(DeadlineTest, AlreadyExpiredDeadlineResolvesThroughTicketOnBothRoutes) {
  auto ts = MakeTinyStar(1000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  // Uniform-ticket contract: Execute() succeeds, Wait() reports the
  // expiry — identically on both routes.
  for (RoutePolicy policy : {RoutePolicy::kCJoin, RoutePolicy::kBaseline}) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = policy;
    req.deadline_ns = 1;  // epoch start: long past
    auto ticket = engine.Execute(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    auto rs = (*ticket)->Wait();
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  }
  ExpectQuiescent(engine);
}

// ------------------------------ Priorities ----------------------------------

TEST(PriorityTest, HigherPriorityBaselineJobRunsFirst) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 4.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.baseline_workers = 1;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QatOptions slow_opts;
  slow_opts.disk = &disk;

  auto submit = [&](int priority) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kBaseline;
    req.priority = priority;
    req.baseline_options = slow_opts;
    auto t = engine.Execute(std::move(req));
    EXPECT_TRUE(t.ok());
    return std::move(*t);
  };

  auto blocker = submit(0);  // occupies the single worker
  auto low = submit(0);      // queued first...
  auto high = submit(5);     // ...but outranked

  auto hrs = high->Wait();
  ASSERT_TRUE(hrs.ok()) << hrs.status().ToString();
  // When the high-priority job finished, the low one had not started
  // (single worker, disk-bound job ahead of it).
  EXPECT_FALSE(low->Ready());
  ASSERT_TRUE(low->Wait().ok());
  ASSERT_TRUE(blocker->Wait().ok());
  ExpectQuiescent(engine);
}

// ---------------------------- kAuto routing ---------------------------------

// Acceptance criterion: kAuto demonstrably sends at least one query to
// each engine — baseline for a lone selective query, CJOIN once the
// operator has concurrent work to share.
TEST(AutoRoutingTest, SelectiveIdleToBaselineConcurrentToCJoin) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;  // CJOIN laps are slow; baseline runs at
                             // memory speed (no baseline disk configured)
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  const StarQuerySpec selective = PriceQuery(*ts, 2000);  // sel = 0.05
  const ResultSet ref = ReferenceEvaluate(*NormalizeSpec(selective));

  // 1. Idle operator: the selective query takes the private plan.
  {
    QueryRequest req = QueryRequest::FromSpec(selective);
    auto ticket = engine.Execute(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_EQ((*ticket)->route(), RouteChoice::kBaseline);
    EXPECT_FALSE((*ticket)->decision().forced);
    auto rs = (*ticket)->Wait();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].AsInt(), ref.rows[0][0].AsInt());
  }

  // 2. Load the operator with in-flight queries; now the shared scan is
  //    amortized and the same selective query routes to CJOIN.
  std::vector<std::unique_ptr<QueryTicket>> background;
  for (int i = 0; i < 4; ++i) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kCJoin;
    auto t = engine.Execute(std::move(req));
    ASSERT_TRUE(t.ok());
    background.push_back(std::move(*t));
  }
  {
    QueryRequest req = QueryRequest::FromSpec(selective);
    auto ticket = engine.Execute(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_EQ((*ticket)->route(), RouteChoice::kCJoin);
    EXPECT_GE((*ticket)->decision().inflight, 1u);
    auto rs = (*ticket)->Wait();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].AsInt(), ref.rows[0][0].AsInt());
  }
  for (auto& t : background) {
    ASSERT_TRUE(t->Wait().ok());
  }
  ExpectQuiescent(engine);
}

// ----------------------------- Galaxy joins ---------------------------------

TEST(GalaxyTest, DeadlineAppliesToBothSides) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryEngine::GalaxyJoinSpec gspec;
  gspec.left.schema = engine.FindStar("tiny").value();
  gspec.right.schema = engine.FindStar("tiny").value();
  gspec.left_join_col = 0;
  gspec.right_join_col = 0;
  gspec.aggregates.push_back({AggFn::kCount, 0, std::nullopt, "n"});
  gspec.deadline_ns = QueryRuntime::NowNs() +
                      std::chrono::nanoseconds(std::chrono::milliseconds(80))
                          .count();
  auto rs = engine.ExecuteGalaxyJoin(gspec);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  ExpectQuiescent(engine);
}

}  // namespace
}  // namespace cjoin
