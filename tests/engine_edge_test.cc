// Edge-case tests: galaxy-join corner cases, append-visibility bounds
// (covered_snapshot), operator statistics, and empty-input behaviour.

#include <thread>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::ExpectQuiescent;
using testing::MakeTinyStar;
using testing::TinyStar;

class EngineEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ts_ = MakeTinyStar(500);
    QueryEngine::Options opts;
    opts.cjoin.max_concurrent_queries = 8;
    opts.cjoin.num_worker_threads = 2;
    engine_ = std::make_unique<QueryEngine>(opts);
    auto star = StarSchema::Make(
        ts_->sales.get(), std::vector<StarSchema::DimensionByName>{
                              {ts_->product.get(), "f_pid", "p_id"},
                              {ts_->store.get(), "f_sid", "s_id"}});
    ASSERT_TRUE(star.ok());
    ASSERT_TRUE(engine_->RegisterStar("sales", std::move(*star)).ok());
  }

  std::unique_ptr<TinyStar> ts_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineEdgeTest, GalaxyJoinWithEmptySideYieldsEmptyGroups) {
  // Second star whose fact table is empty.
  Schema rschema;
  rschema.AddInt32("r_pid").AddInt32("r_qty");
  Table returns("returns", rschema);
  auto star2 = StarSchema::Make(
      &returns, std::vector<StarSchema::DimensionByName>{
                    {ts_->product.get(), "r_pid", "p_id"}});
  ASSERT_TRUE(star2.ok());
  ASSERT_TRUE(engine_->RegisterStar("returns", std::move(*star2)).ok());

  QueryEngine::GalaxyJoinSpec g;
  g.left.schema = engine_->FindStar("sales").value();
  g.right.schema = engine_->FindStar("returns").value();
  g.left_join_col = 0;
  g.right_join_col = 0;
  g.group_by.push_back({0, ColumnSource::Dim(0, 1), "cat"});
  g.aggregates.push_back({AggFn::kCount, 0, std::nullopt, "n"});
  auto rs = engine_->ExecuteGalaxyJoin(g);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 0u);

  // Global-aggregate shape over an empty join yields the SQL global row.
  QueryEngine::GalaxyJoinSpec g2 = g;
  g2.group_by.clear();
  auto rs2 = engine_->ExecuteGalaxyJoin(g2);
  ASSERT_TRUE(rs2.ok());
  ASSERT_EQ(rs2->num_rows(), 1u);
  EXPECT_EQ(rs2->rows[0][0].AsInt(), 0);
  ExpectQuiescent(*engine_);
}

TEST_F(EngineEdgeTest, GalaxyJoinValidatesSpec) {
  QueryEngine::GalaxyJoinSpec g;
  g.left.schema = engine_->FindStar("sales").value();
  g.right.schema = engine_->FindStar("sales").value();
  g.left_join_col = 999;  // out of range
  g.right_join_col = 0;
  EXPECT_FALSE(engine_->ExecuteGalaxyJoin(g).ok());
  g.left_join_col = 0;
  g.aggregates.push_back({AggFn::kCount, 7, std::nullopt, "n"});  // bad side
  EXPECT_FALSE(engine_->ExecuteGalaxyJoin(g).ok());
}

TEST_F(EngineEdgeTest, SelfGalaxyJoinOnSameStar) {
  // Joining a star with itself (orders-to-orders on product key) is legal:
  // both sub-queries run in the same CJOIN operator concurrently.
  QueryEngine::GalaxyJoinSpec g;
  g.left.schema = engine_->FindStar("sales").value();
  g.right.schema = engine_->FindStar("sales").value();
  const Schema& fs = ts_->sales->schema();
  // Restrict both sides to shrink the quadratic pairing.
  g.left.fact_predicate =
      MakeCompare(CmpOp::kEq, MakeColumnRef(fs, "f_qty").value(),
                  MakeLiteral(Value(1)));
  g.right.fact_predicate =
      MakeCompare(CmpOp::kEq, MakeColumnRef(fs, "f_qty").value(),
                  MakeLiteral(Value(2)));
  g.left_join_col = 0;   // f_pid
  g.right_join_col = 0;  // f_pid
  g.aggregates.push_back({AggFn::kCount, 0, std::nullopt, "pairs"});
  auto rs = engine_->ExecuteGalaxyJoin(g);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  // Brute force: pairs of rows with qty 1 and qty 2 sharing a product.
  int64_t expected = 0;
  for (uint64_t i = 0; i < ts_->sales->NumRows(); ++i) {
    const uint8_t* a = ts_->sales->RowPayload(RowId{0, i});
    if (fs.GetInt32(a, 2) != 1) continue;
    for (uint64_t j = 0; j < ts_->sales->NumRows(); ++j) {
      const uint8_t* b = ts_->sales->RowPayload(RowId{0, j});
      if (fs.GetInt32(b, 2) != 2) continue;
      if (fs.GetInt32(a, 0) == fs.GetInt32(b, 0)) ++expected;
    }
  }
  EXPECT_EQ(rs->rows[0][0].AsInt(), expected);
  ExpectQuiescent(*engine_);
}

TEST_F(EngineEdgeTest, AppendVisibilityIsImmediateWhenIdle) {
  // With the pipeline quiescent, the Preprocessor re-freezes at the next
  // admission, so a query submitted after AppendFacts sees the new rows
  // right away (no lap-staleness polling needed).
  auto count = [&]() -> int64_t {
    QueryRequest req =
        QueryRequest::Sql("sales", "SELECT COUNT(*) AS n FROM sales");
    req.policy = RoutePolicy::kCJoin;
    auto t = engine_->Execute(std::move(req));
    EXPECT_TRUE(t.ok());
    auto rs = (*t)->Wait();
    EXPECT_TRUE(rs.ok());
    return rs->rows[0][0].AsInt();
  };
  EXPECT_EQ(count(), 500);

  const Schema& fs = ts_->sales->schema();
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 0; i < 7; ++i) {
    std::vector<uint8_t> p(fs.row_size());
    fs.SetInt32(p.data(), 0, 1);
    fs.SetInt32(p.data(), 1, 1);
    fs.SetInt32(p.data(), 2, 1);
    fs.SetInt32(p.data(), 3, 10);
    rows.push_back(std::move(p));
  }
  ASSERT_TRUE(engine_->AppendFacts("sales", rows).ok());
  // Give the (idle) preprocessor a moment to drain the previous query's
  // teardown, then the very next query must see all 507 rows.
  int64_t n = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    n = count();
    if (n == 507) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(n, 507);
  ExpectQuiescent(*engine_);
}

TEST_F(EngineEdgeTest, OperatorStatsReflectActivity) {
  auto op = engine_->OperatorFor("sales");
  ASSERT_TRUE(op.ok());
  QueryRequest req = QueryRequest::Sql(
      "sales",
      "SELECT COUNT(*) FROM sales, store WHERE f_sid = s_id AND "
      "s_region = 'R1'");
  req.policy = RoutePolicy::kCJoin;
  auto h = engine_->Execute(std::move(req));
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE((*h)->Wait().ok());
  const CJoinOperator::Stats stats = (*op)->GetStats();
  EXPECT_GE(stats.rows_scanned, 500u);
  EXPECT_GE(stats.queries_completed, 1u);
  EXPECT_EQ(stats.filter_order.size(), 2u);
  EXPECT_EQ(stats.dim_table_sizes.size(), 2u);
  EXPECT_EQ(stats.filter_tuples_in.size(), 2u);
  EXPECT_GT(stats.manager_iterations, 0u);
  ExpectQuiescent(*engine_);
}

TEST_F(EngineEdgeTest, BaselineAndCJoinAgreeAfterUpdates) {
  const Schema& fs = ts_->sales->schema();
  ASSERT_TRUE(engine_
                  ->DeleteFacts("sales",
                                MakeCompare(
                                    CmpOp::kLt,
                                    MakeColumnRef(fs, "f_qty").value(),
                                    MakeLiteral(Value(3))))
                  .ok());
  const char* sql =
      "SELECT s_region, COUNT(*) AS n FROM sales, store "
      "WHERE f_sid = s_id GROUP BY s_region";
  QueryRequest breq = QueryRequest::Sql("sales", sql);
  breq.policy = RoutePolicy::kBaseline;
  auto bt = engine_->Execute(std::move(breq));
  ASSERT_TRUE(bt.ok());
  auto baseline = (*bt)->Wait();
  ASSERT_TRUE(baseline.ok());
  QueryRequest creq = QueryRequest::Sql("sales", sql);
  creq.policy = RoutePolicy::kCJoin;
  auto h = engine_->Execute(std::move(creq));
  ASSERT_TRUE(h.ok());
  auto rs = (*h)->Wait();
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(*baseline))
      << "cjoin:\n" << rs->ToString() << "baseline:\n"
      << baseline->ToString();
  ExpectQuiescent(*engine_);
}

}  // namespace
}  // namespace cjoin
