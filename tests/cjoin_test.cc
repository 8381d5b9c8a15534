// End-to-end tests of the CJOIN operator: correctness against the
// reference evaluator, concurrent query admission, the filtering
// invariant, snapshots, partitions with early termination, pipeline
// configurations, adaptive ordering, and shutdown behaviour.

#include <algorithm>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "baseline/qat_engine.h"
#include "cjoin/cjoin_operator.h"
#include "ssb/generator.h"
#include "ssb/queries.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::MakeTinyStar;
using testing::ReferenceEvaluate;
using testing::TinyStar;

CJoinOperator::Options SmallOptions() {
  CJoinOperator::Options o;
  o.max_concurrent_queries = 64;
  o.num_worker_threads = 2;
  o.batch_size = 32;
  o.queue_capacity = 16;
  o.pool_capacity = 4096;
  o.scan_run_rows = 64;
  return o;
}

StarQuerySpec CountByRegion(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.group_by.push_back(ColumnSource::Dim(1, 1));  // s_region
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "amt"});
  spec.label = "count_by_region";
  return spec;
}

StarQuerySpec RegionFiltered(const TinyStar& ts, const std::string& region) {
  StarQuerySpec spec = CountByRegion(ts);
  const Schema& ss = ts.store->schema();
  spec.dim_predicates.push_back(DimensionPredicate{
      1, MakeCompare(CmpOp::kEq, MakeColumnRef(ss, "s_region").value(),
                     MakeLiteral(Value(region)))});
  spec.label = "region_" + region;
  return spec;
}

TEST(CJoinOperatorTest, SingleQueryMatchesReference) {
  auto ts = MakeTinyStar(2000);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  auto handle = op.Submit(CountByRegion(*ts));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto rs = (*handle)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  ResultSet ref = ReferenceEvaluate(
      NormalizeSpec(CountByRegion(*ts)).value());
  EXPECT_TRUE(rs->SameContents(ref))
      << "got:\n" << rs->ToString() << "want:\n" << ref.ToString();
  EXPECT_EQ(rs->tuples_consumed, 2000u);
  op.Stop();
}

TEST(CJoinOperatorTest, CompletionObserverReleasedAfterDelivery) {
  // Regression test (found by the ASan/LeakSanitizer CI job): the
  // engine's observer captures an owning reference to the query's
  // Completion, which owns the handle that owns this runtime, so a
  // retained observer closes a shared_ptr cycle
  // (Completion -> QueryHandle -> QueryRuntime -> observer ->
  // Completion) and leaks every CJOIN query. Deliver() must destroy the
  // observer — and everything it captured — after its single
  // invocation, even while the handle is still alive.
  auto ts = MakeTinyStar(500);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observed = token;
  CJoinOperator::SubmitOptions so;
  so.completion_observer = [token = std::move(token)](
                               const Result<ResultSet>& result) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*token, 7);
  };
  auto handle = op.Submit(CountByRegion(*ts), std::move(so));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_TRUE((*handle)->Wait().ok());

  // The observer ran before the promise resolved, so by the time Wait()
  // returns its captured state must already be gone.
  EXPECT_TRUE(observed.expired())
      << "completion_observer (and its captures) retained after delivery";
  op.Stop();
}

TEST(CJoinOperatorTest, QueryWithDimensionPredicate) {
  auto ts = MakeTinyStar(3000);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());
  StarQuerySpec spec = RegionFiltered(*ts, "R2");
  auto handle = op.Submit(spec);
  ASSERT_TRUE(handle.ok());
  auto rs = (*handle)->Wait();
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(spec)).value())));
  op.Stop();
}

TEST(CJoinOperatorTest, FactPredicateAndExpressionAggregate) {
  auto ts = MakeTinyStar(2500);
  const Schema& fs = ts->sales->schema();
  StarQuerySpec spec;
  spec.schema = ts->star.get();
  spec.fact_predicate =
      MakeCompare(CmpOp::kLt, MakeColumnRef(fs, "f_qty").value(),
                  MakeLiteral(Value(5)));
  spec.aggregates.push_back(AggregateSpec{
      AggFn::kSum, std::nullopt,
      MakeArith(ArithOp::kMul, MakeColumnRef(fs, "f_qty").value(),
                MakeColumnRef(fs, "f_amount").value()),
      "weighted"});
  spec.label = "fact_pred";

  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());
  auto handle = op.Submit(spec);
  ASSERT_TRUE(handle.ok());
  auto rs = (*handle)->Wait();
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(spec)).value())));
  op.Stop();
}

TEST(CJoinOperatorTest, ManyConcurrentQueriesAllCorrect) {
  auto ts = MakeTinyStar(4000);
  CJoinOperator::Options opts = SmallOptions();
  opts.num_worker_threads = 3;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  // A mix of query shapes submitted together.
  std::vector<StarQuerySpec> specs;
  specs.push_back(CountByRegion(*ts));
  specs.push_back(RegionFiltered(*ts, "R0"));
  specs.push_back(RegionFiltered(*ts, "R1"));
  specs.push_back(RegionFiltered(*ts, "R2"));
  const Schema& ps = ts->product->schema();
  for (int cat = 0; cat < 4; ++cat) {
    StarQuerySpec spec = CountByRegion(*ts);
    spec.dim_predicates.push_back(DimensionPredicate{
        0,
        MakeCompare(CmpOp::kEq, MakeColumnRef(ps, "p_cat").value(),
                    MakeLiteral(Value("cat" + std::to_string(cat))))});
    spec.label = "cat" + std::to_string(cat);
    specs.push_back(std::move(spec));
  }

  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (const StarQuerySpec& spec : specs) {
    auto h = op.Submit(spec);
    ASSERT_TRUE(h.ok());
    handles.push_back(std::move(*h));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    auto rs = handles[i]->Wait();
    ASSERT_TRUE(rs.ok()) << specs[i].label;
    ResultSet ref =
        ReferenceEvaluate(NormalizeSpec(StarQuerySpec(specs[i])).value());
    EXPECT_TRUE(rs->SameContents(ref))
        << specs[i].label << "\ngot:\n" << rs->ToString() << "want:\n"
        << ref.ToString();
  }
  const CJoinOperator::Stats stats = op.GetStats();
  EXPECT_EQ(stats.queries_completed, specs.size());
  EXPECT_EQ(stats.active_queries, 0u);
  op.Stop();
}

TEST(CJoinOperatorTest, StaggeredAdmissionSharesTheScan) {
  // Queries submitted while others are mid-flight must still see exactly
  // one full lap each.
  auto ts = MakeTinyStar(6000);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  auto h1 = op.Submit(CountByRegion(*ts));
  ASSERT_TRUE(h1.ok());
  // Let the first query make progress before the others arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  auto h2 = op.Submit(RegionFiltered(*ts, "R1"));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto h3 = op.Submit(RegionFiltered(*ts, "R2"));
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(h3.ok());

  for (auto* h : {&*h1, &*h2, &*h3}) {
    auto rs = (*h)->Wait();
    ASSERT_TRUE(rs.ok());
  }
  // Each query consumed exactly the full fact table once.
  auto rs1 = ReferenceEvaluate(NormalizeSpec(CountByRegion(*ts)).value());
  EXPECT_EQ(rs1.tuples_consumed, 6000u);
  op.Stop();
}

TEST(CJoinOperatorTest, SequentialReuseOfQueryIds) {
  // More queries than maxConc, sequentially: ids get reused and the
  // bit-vector invariant must survive reuse (cleanup clears a finished
  // id's entry bits before release; see cjoin/dim_hash_table.h).
  auto ts = MakeTinyStar(500);
  CJoinOperator::Options opts = SmallOptions();
  opts.max_concurrent_queries = 2;  // forces heavy id reuse
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  for (int round = 0; round < 8; ++round) {
    // Alternate a referencing and a non-referencing query per dimension.
    StarQuerySpec spec = (round % 2 == 0)
                             ? RegionFiltered(*ts, "R" + std::to_string(round % 3))
                             : CountByRegion(*ts);
    auto h = op.Submit(spec);
    ASSERT_TRUE(h.ok());
    auto rs = (*h)->Wait();
    ASSERT_TRUE(rs.ok());
    EXPECT_TRUE(rs->SameContents(
        ReferenceEvaluate(NormalizeSpec(std::move(spec)).value())))
        << "round " << round;
  }
  op.Stop();
}

TEST(CJoinOperatorTest, SnapshotIsolationAcrossQueries) {
  auto ts = MakeTinyStar(600);
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(ts->sales->MarkDeleted(RowId{0, i}, 5).ok());
  }
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  StarQuerySpec old_snap = CountByRegion(*ts);
  old_snap.snapshot = 4;
  StarQuerySpec new_snap = CountByRegion(*ts);
  new_snap.snapshot = 5;

  auto h_old = op.Submit(old_snap);
  auto h_new = op.Submit(new_snap);
  ASSERT_TRUE(h_old.ok());
  ASSERT_TRUE(h_new.ok());
  auto rs_old = (*h_old)->Wait();
  auto rs_new = (*h_new)->Wait();
  ASSERT_TRUE(rs_old.ok());
  ASSERT_TRUE(rs_new.ok());
  EXPECT_EQ(rs_old->tuples_consumed, 600u);
  EXPECT_EQ(rs_new->tuples_consumed, 550u);
  EXPECT_TRUE(rs_old->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(old_snap)).value())));
  EXPECT_TRUE(rs_new->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(new_snap)).value())));
  op.Stop();
}

TEST(CJoinOperatorTest, PartitionLimitedQueriesTerminateEarly) {
  auto ts = MakeTinyStar(3000, 20, 6, /*fact_partitions=*/4);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  StarQuerySpec all = CountByRegion(*ts);
  StarQuerySpec sub = CountByRegion(*ts);
  sub.partitions = {1, 3};
  sub.label = "partitions_1_3";

  auto h_all = op.Submit(all);
  auto h_sub = op.Submit(sub);
  ASSERT_TRUE(h_all.ok());
  ASSERT_TRUE(h_sub.ok());
  auto rs_all = (*h_all)->Wait();
  auto rs_sub = (*h_sub)->Wait();
  ASSERT_TRUE(rs_all.ok());
  ASSERT_TRUE(rs_sub.ok());
  EXPECT_TRUE(rs_all->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(all)).value())));
  EXPECT_TRUE(rs_sub->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(sub)).value())));
  EXPECT_EQ(rs_sub->tuples_consumed,
            ts->sales->PartitionRows(1) + ts->sales->PartitionRows(3));
  op.Stop();
}

TEST(CJoinOperatorTest, VerticalConfigurationMatchesHorizontal) {
  auto ts = MakeTinyStar(2500);
  StarQuerySpec spec = RegionFiltered(*ts, "R1");

  CJoinOperator::Options vopts = SmallOptions();
  vopts.config = PipelineConfig::kVertical;
  vopts.num_worker_threads = 2;  // one per stage (2 dims)
  CJoinOperator vop(*ts->star, vopts);
  ASSERT_TRUE(vop.Start().ok());
  auto vh = vop.Submit(spec);
  ASSERT_TRUE(vh.ok());
  auto vrs = (*vh)->Wait();
  ASSERT_TRUE(vrs.ok());
  EXPECT_TRUE(vrs->SameContents(
      ReferenceEvaluate(NormalizeSpec(std::move(spec)).value())));
  vop.Stop();
}

TEST(CJoinOperatorTest, AdaptiveOrderingReordersBySelectivity) {
  // Dimension 0 predicate selects almost nothing; dimension 1 predicate
  // selects everything. The optimizer should float dim 0 forward.
  auto ts = MakeTinyStar(20000, 100, 6);
  const Schema& ps = ts->product->schema();

  CJoinOperator::Options opts = SmallOptions();
  opts.adaptive_ordering = true;
  opts.reorder_interval = std::chrono::milliseconds(5);
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  // Force an initial order of {0, 1} or {1, 0}; run a highly selective
  // product predicate repeatedly and check the final order puts the
  // selective filter (dim 0 = product) first.
  StarQuerySpec spec;
  spec.schema = ts->star.get();
  spec.dim_predicates.push_back(DimensionPredicate{
      0, MakeCompare(CmpOp::kEq, MakeColumnRef(ps, "p_id").value(),
                     MakeLiteral(Value(1)))});
  // Reference the store dimension with TRUE so both filters engage.
  spec.dim_predicates.push_back(DimensionPredicate{1, MakeTrue()});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});

  for (int i = 0; i < 3; ++i) {
    auto h = op.Submit(spec);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE((*h)->Wait().ok());
  }
  const CJoinOperator::Stats stats = op.GetStats();
  ASSERT_EQ(stats.filter_order.size(), 2u);
  EXPECT_EQ(stats.filter_order[0], 0u)
      << "highly selective product filter should be probed first";
  op.Stop();
}

TEST(CJoinOperatorTest, SubmissionTimeRecorded) {
  auto ts = MakeTinyStar(2000);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());
  auto h = op.Submit(CountByRegion(*ts));
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE((*h)->Wait().ok());
  EXPECT_GT((*h)->SubmissionSeconds(), 0.0);
  EXPECT_GT((*h)->ResponseSeconds(), (*h)->SubmissionSeconds());
  EXPECT_EQ((*h)->phase(), QueryPhase::kCompleted);
  op.Stop();
}

TEST(CJoinOperatorTest, StopAbortsInFlightQueries) {
  auto ts = MakeTinyStar(200000, 50, 6);
  CJoinOperator::Options opts = SmallOptions();
  opts.num_worker_threads = 1;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());
  auto h = op.Submit(CountByRegion(*ts));
  ASSERT_TRUE(h.ok());
  op.Stop();  // don't wait for the lap to finish
  auto rs = (*h)->Wait();
  // Either it raced to completion or it was aborted; both are clean ends.
  if (!rs.ok()) {
    EXPECT_EQ(rs.status().code(), StatusCode::kAborted);
  }
}

TEST(CJoinOperatorTest, SubmitRejectsWrongSchema) {
  auto ts1 = MakeTinyStar(100);
  auto ts2 = MakeTinyStar(100);
  CJoinOperator op(*ts1->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());
  auto h = op.Submit(CountByRegion(*ts2));
  EXPECT_FALSE(h.ok());
  op.Stop();
}

TEST(CJoinOperatorTest, EmptyFactTableCompletesImmediately) {
  auto ts = MakeTinyStar(0);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());
  auto h = op.Submit(CountByRegion(*ts));
  ASSERT_TRUE(h.ok());
  auto rs = (*h)->Wait();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->tuples_consumed, 0u);
  EXPECT_EQ(rs->num_rows(), 0u);  // group-by over nothing
  op.Stop();
}

TEST(CJoinOperatorTest, GarbageCollectionShrinksDimTables) {
  auto ts = MakeTinyStar(1000, 100, 6);
  CJoinOperator op(*ts->star, SmallOptions());
  ASSERT_TRUE(op.Start().ok());

  auto h = op.Submit(RegionFiltered(*ts, "R1"));
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE((*h)->Wait().ok());
  // After cleanup the store dimension's entries should be collected.
  // (Cleanup is asynchronous: poll briefly.)
  bool emptied = false;
  for (int i = 0; i < 100 && !emptied; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    emptied = op.GetStats().dim_table_sizes[1] == 0;
  }
  EXPECT_TRUE(emptied) << "dead dimension entries were not collected";
  op.Stop();
}

TEST(CJoinOperatorTest, HighConcurrencySmokeWithSsbWorkload) {
  ssb::GenOptions gopts;
  gopts.scale_factor = 0.002;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);
  Rng rng(3);
  auto workload = queries.MakeWorkload(40, 0.05, rng).value();

  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 64;
  opts.num_worker_threads = 3;
  opts.pool_capacity = 8192;
  CJoinOperator op(*db->star, opts);
  ASSERT_TRUE(op.Start().ok());

  std::vector<std::unique_ptr<QueryHandle>> handles;
  for (const StarQuerySpec& spec : workload) {
    auto h = op.Submit(spec);
    ASSERT_TRUE(h.ok());
    handles.push_back(std::move(*h));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    auto rs = handles[i]->Wait();
    ASSERT_TRUE(rs.ok()) << workload[i].label;
    ResultSet ref = ReferenceEvaluate(workload[i]);
    EXPECT_TRUE(rs->SameContents(ref)) << workload[i].label;
  }
  op.Stop();
}

}  // namespace
}  // namespace cjoin
