// Property-based tests of the CJOIN operator (TEST_P sweeps).
//
// Core invariants checked across randomized query mixes, pipeline
// configurations and fact-table partitionings:
//   P1 (exactly-one-lap): every query consumes each relevant fact tuple
//       exactly once — results equal the independent reference evaluator
//       regardless of when the query latched onto the continuous scan.
//   P2 (isolation): concurrent queries never contaminate each other —
//       a query's result is independent of the surrounding mix.
//   P3 (churn): query ids can be reused indefinitely under load.
//   P4 (versioned dimensions): queries admitted together, each reading
//       its own snapshot of changing dimension rows, each see exactly
//       their own snapshot's rows.
//   P5 (block budget): with two tuple blocks in flight, the scan waits
//       for a returned block on nearly every batch; results stay exact
//       and every block comes back, also after Stop() mid-lap.

#include <chrono>
#include <deque>
#include <latch>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "cjoin/cjoin_operator.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::MakeTinyStar;
using testing::ReferenceEvaluate;
using testing::TinyStar;

/// Builds a randomized star query over the TinyStar schema.
StarQuerySpec RandomSpec(const TinyStar& ts, Rng& rng) {
  const Schema& ps = ts.product->schema();
  const Schema& ss = ts.store->schema();
  const Schema& fs = ts.sales->schema();

  StarQuerySpec spec;
  spec.schema = ts.star.get();

  // Random dimension predicates.
  if (rng.Bernoulli(0.7)) {
    const int64_t lo = rng.UniformInt(1, 15);
    spec.dim_predicates.push_back(DimensionPredicate{
        0, MakeBetween(MakeColumnRef(ps, "p_id").value(), Value(lo),
                       Value(lo + rng.UniformInt(0, 5)))});
  }
  if (rng.Bernoulli(0.6)) {
    spec.dim_predicates.push_back(DimensionPredicate{
        1, MakeCompare(CmpOp::kEq, MakeColumnRef(ss, "s_region").value(),
                       MakeLiteral(Value(
                           "R" + std::to_string(rng.UniformInt(0, 2)))))});
  }
  // Random fact predicate.
  if (rng.Bernoulli(0.4)) {
    spec.fact_predicate =
        MakeCompare(CmpOp::kGe, MakeColumnRef(fs, "f_qty").value(),
                    MakeLiteral(Value(rng.UniformInt(1, 9))));
  }
  // Random group-by shape.
  switch (rng.UniformInt(0, 2)) {
    case 0:
      break;  // global aggregate
    case 1:
      spec.group_by.push_back(ColumnSource::Dim(1, 1));  // s_region
      break;
    case 2:
      spec.group_by.push_back(ColumnSource::Dim(0, 1));  // p_cat
      spec.group_by.push_back(ColumnSource::Dim(1, 1));
      break;
  }
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "amt"});
  if (rng.Bernoulli(0.5)) {
    spec.aggregates.push_back(
        AggregateSpec{AggFn::kMax, ColumnSource::Fact(2), nullptr, "maxq"});
  }
  return spec;
}

/// Waits (bounded) until an id is free: fewer than `max_concurrent`
/// queries are registered or awaiting cleanup. Together with holding at
/// most `max_concurrent` handles, this keeps every Submit() off the id
/// grace window.
void WaitForFreeId(const CJoinOperator& op, size_t max_concurrent) {
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (op.InFlight() >= max_concurrent &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Waits for the oldest outstanding handle and checks its result against
/// the reference evaluator. `specs` holds every submitted spec in order.
void CheckOldest(std::deque<std::unique_ptr<QueryHandle>>& handles,
                 const std::vector<StarQuerySpec>& specs) {
  const StarQuerySpec& spec = specs[specs.size() - handles.size()];
  auto rs = handles.front()->Wait();
  handles.pop_front();
  ASSERT_TRUE(rs.ok()) << spec.label << ": " << rs.status().ToString();
  const ResultSet ref =
      ReferenceEvaluate(NormalizeSpec(StarQuerySpec(spec)).value());
  EXPECT_TRUE(rs->SameContents(ref))
      << spec.label << "\ngot:\n" << rs->ToString() << "want:\n"
      << ref.ToString();
  EXPECT_EQ(rs->tuples_consumed, ref.tuples_consumed) << spec.label;
}

struct PropertyParams {
  uint64_t seed;
  uint32_t partitions;
  bool vertical;
  size_t threads;
};

class CJoinPropertyTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(CJoinPropertyTest, RandomMixMatchesReference) {
  const PropertyParams p = GetParam();
  auto ts = MakeTinyStar(3000, 30, 6, p.partitions);
  Rng rng(p.seed);

  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 16;
  opts.num_worker_threads = p.threads;
  opts.batch_size = 64;
  opts.pool_capacity = 4096;
  opts.scan_run_rows = 128;
  opts.config =
      p.vertical ? PipelineConfig::kVertical : PipelineConfig::kHorizontal;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  // Waves of random queries with random stagger; P1/P2: every result must
  // match the reference, independent of the mix. 18 queries share 16 ids:
  // at most 16 handles are held at once.
  std::vector<StarQuerySpec> specs;
  std::deque<std::unique_ptr<QueryHandle>> handles;
  for (int wave = 0; wave < 3; ++wave) {
    for (int q = 0; q < 6; ++q) {
      StarQuerySpec spec = RandomSpec(*ts, rng);
      if (p.partitions > 1 && rng.Bernoulli(0.4)) {
        // Random partition subset (P1 must hold with early termination).
        for (uint32_t part = 0; part < p.partitions; ++part) {
          if (rng.Bernoulli(0.6)) spec.partitions.push_back(part);
        }
        if (spec.partitions.empty()) spec.partitions.push_back(0);
      }
      spec.label = "w" + std::to_string(wave) + "q" + std::to_string(q);
      if (handles.size() == opts.max_concurrent_queries) {
        CheckOldest(handles, specs);
      }
      WaitForFreeId(op, opts.max_concurrent_queries);
      auto h = op.Submit(spec);
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      specs.push_back(std::move(spec));
      handles.push_back(std::move(*h));
      if (rng.Bernoulli(0.3)) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            rng.UniformInt(50, 500)));
      }
    }
  }
  while (!handles.empty()) CheckOldest(handles, specs);
  op.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CJoinPropertyTest,
    ::testing::Values(PropertyParams{1, 1, false, 1},
                      PropertyParams{2, 1, false, 3},
                      PropertyParams{3, 4, false, 2},
                      PropertyParams{4, 1, true, 2},
                      PropertyParams{5, 4, true, 4},
                      PropertyParams{6, 7, false, 4},
                      PropertyParams{7, 2, false, 2},
                      PropertyParams{8, 3, true, 3}),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      const PropertyParams& p = info.param;
      return "seed" + std::to_string(p.seed) + "_parts" +
             std::to_string(p.partitions) +
             (p.vertical ? "_vertical" : "_horizontal") + "_t" +
             std::to_string(p.threads);
    });

TEST(CJoinChurnTest, HundredsOfQueriesThroughFewIds) {
  // P3: sustained id reuse with tiny maxConc; every result correct.
  auto ts = MakeTinyStar(800, 20, 6);
  Rng rng(99);
  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 4;
  opts.num_worker_threads = 2;
  opts.pool_capacity = 2048;
  opts.scan_run_rows = 64;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  // A window of at most 4 handles in flight, each submission waiting for
  // a free id.
  std::vector<StarQuerySpec> specs;
  std::deque<std::unique_ptr<QueryHandle>> handles;
  for (int i = 0; i < 120; ++i) {
    if (handles.size() == opts.max_concurrent_queries) {
      CheckOldest(handles, specs);
    }
    WaitForFreeId(op, opts.max_concurrent_queries);
    StarQuerySpec spec = RandomSpec(*ts, rng);
    spec.label = "churn" + std::to_string(i);
    auto h = op.Submit(spec);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    specs.push_back(std::move(spec));
    handles.push_back(std::move(*h));
  }
  while (!handles.empty()) CheckOldest(handles, specs);
  const auto stats = op.GetStats();
  EXPECT_EQ(stats.queries_completed, 120u);
  op.Stop();
}

TEST(CJoinStressTest, ParallelSubmittersAndUpdatesViaSnapshots) {
  // Multiple submitter threads race Submit() while rows are deleted at
  // increasing snapshots; each query pins the snapshot current at its
  // submission, so its count must match the reference at that snapshot.
  auto ts = MakeTinyStar(2000, 20, 6);
  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 32;
  opts.num_worker_threads = 3;
  opts.pool_capacity = 8192;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  std::atomic<SnapshotId> snapshot{1};
  std::atomic<bool> fail{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 15 && !fail.load(); ++i) {
        StarQuerySpec spec;
        spec.schema = ts->star.get();
        spec.aggregates.push_back(
            AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
        spec.snapshot = snapshot.load();
        auto h = op.Submit(spec);
        if (!h.ok()) {
          fail.store(true);
          return;
        }
        auto rs = (*h)->Wait();
        if (!rs.ok()) {
          fail.store(true);
          return;
        }
        StarQuerySpec ref_spec = spec;
        ResultSet ref = ReferenceEvaluate(
            NormalizeSpec(std::move(ref_spec)).value());
        if (!rs->SameContents(ref)) fail.store(true);
      }
    });
  }
  // Concurrent deleter: each round removes rows at a fresh snapshot.
  std::thread deleter([&] {
    for (uint64_t i = 0; i < 200; ++i) {
      const SnapshotId next = snapshot.load() + 1;
      ASSERT_TRUE(ts->sales->MarkDeleted(RowId{0, i}, next).ok());
      snapshot.store(next);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  for (auto& t : submitters) t.join();
  deleter.join();
  EXPECT_FALSE(fail.load());
  op.Stop();
}

struct BudgetParams {
  bool vertical;
  size_t probe_batch;  ///< 1 = scalar probe arm
};

class CJoinBlockBudgetTest : public ::testing::TestWithParam<BudgetParams> {};

TEST_P(CJoinBlockBudgetTest, TwoBlocksRecycleUnderChurn) {
  // P5: the smallest block budget, 64 queries at mixed snapshots with
  // cancels and deadlines, then Stop() in the middle of a lap.
  const BudgetParams p = GetParam();
  constexpr SnapshotId kSnapshots = 5;
  constexpr int kQueries = 64;
  auto ts = MakeTinyStar(2000, 30, 6, /*fact_partitions=*/2);
  // Fact rows deleted at snapshots 2..5, so each snapshot reads its own
  // set of rows.
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(ts->sales
                    ->MarkDeleted(RowId{static_cast<uint32_t>(i % 2), i * 2},
                                  2 + i % (kSnapshots - 1))
                    .ok());
  }

  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 16;
  opts.num_worker_threads = 4;
  opts.batch_size = 8;
  opts.pool_capacity = 2 * opts.batch_size;
  opts.probe_batch_size = p.probe_batch;
  opts.scan_run_rows = 64;
  opts.config =
      p.vertical ? PipelineConfig::kVertical : PipelineConfig::kHorizontal;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  struct Submitted {
    StarQuerySpec spec;
    std::unique_ptr<QueryHandle> handle;
    bool may_end_early;  ///< cancelled or given a deadline
  };
  std::deque<Submitted> window;
  size_t completed = 0, ended_early = 0;
  auto check_oldest = [&] {
    Submitted q = std::move(window.front());
    window.pop_front();
    Result<ResultSet> rs = q.handle->Wait();
    if (!rs.ok()) {
      EXPECT_TRUE(q.may_end_early) << q.spec.label << ": "
                                   << rs.status().ToString();
      EXPECT_TRUE(rs.status().code() == StatusCode::kCancelled ||
                  rs.status().code() == StatusCode::kDeadlineExceeded)
          << q.spec.label << ": " << rs.status().ToString();
      ++ended_early;
      return;
    }
    ++completed;
    const ResultSet ref =
        ReferenceEvaluate(NormalizeSpec(StarQuerySpec(q.spec)).value());
    EXPECT_TRUE(rs->SameContents(ref))
        << q.spec.label << "\ngot:\n" << rs->ToString() << "want:\n"
        << ref.ToString();
    EXPECT_EQ(rs->tuples_consumed, ref.tuples_consumed) << q.spec.label;
  };

  Rng rng(p.probe_batch * 2 + (p.vertical ? 1 : 0));
  for (int i = 0; i < kQueries; ++i) {
    Submitted q;
    q.spec = RandomSpec(*ts, rng);
    q.spec.snapshot = static_cast<SnapshotId>(rng.UniformInt(1, kSnapshots));
    q.spec.label =
        "q" + std::to_string(i) + "@" + std::to_string(q.spec.snapshot);
    // One query in six is cancelled, one in six gets a 0.1-3 ms deadline.
    const int64_t fate = rng.UniformInt(0, 5);
    const int64_t deadline_us = rng.UniformInt(100, 3000);
    if (window.size() == opts.max_concurrent_queries) check_oldest();
    WaitForFreeId(op, opts.max_concurrent_queries);
    CJoinOperator::SubmitOptions so;
    if (fate == 1) so.deadline_ns = QueryRuntime::NowNs() + deadline_us * 1000;
    auto h = op.Submit(q.spec, std::move(so));
    if (fate == 1 && !h.ok() &&
        h.status().code() == StatusCode::kDeadlineExceeded) {
      ++ended_early;  // expired before it was submitted
      continue;
    }
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    q.handle = std::move(*h);
    q.may_end_early = fate <= 1;
    if (fate == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.UniformInt(0, 500)));
      q.handle->Cancel();
    }
    window.push_back(std::move(q));
  }
  while (!window.empty()) check_oldest();
  EXPECT_EQ(completed + ended_early, static_cast<size_t>(kQueries));
  EXPECT_GT(completed, 0u);
  EXPECT_GT(ended_early, 0u);

  // Every block, id and registration comes back.
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto busy = [&op](const CJoinOperator::Stats& s) {
    return op.InFlight() != 0 || s.blocks_in_use != 0 ||
           s.query_ids_in_use != 0 || s.runtimes_registered != 0;
  };
  CJoinOperator::Stats stats = op.GetStats();
  while (busy(stats) && std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stats = op.GetStats();
  }
  EXPECT_EQ(op.InFlight(), 0u);
  EXPECT_EQ(stats.blocks_in_use, 0u);
  EXPECT_EQ(stats.query_ids_in_use, 0u);
  EXPECT_EQ(stats.runtimes_registered, 0u);

  // Stop() while queries are mid-lap: they abort (or finish first), and
  // every block in flight comes back.
  std::vector<std::unique_ptr<QueryHandle>> last;
  for (int i = 0; i < 4; ++i) {
    auto h = op.Submit(RandomSpec(*ts, rng));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    last.push_back(std::move(*h));
  }
  while (op.GetStats().active_queries == 0 &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::yield();
  }
  op.Stop();
  for (auto& h : last) {
    Result<ResultSet> rs = h->Wait();
    if (!rs.ok()) {
      EXPECT_EQ(rs.status().code(), StatusCode::kAborted)
          << rs.status().ToString();
    }
  }
  EXPECT_EQ(op.GetStats().blocks_in_use, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Arms, CJoinBlockBudgetTest,
    ::testing::Values(BudgetParams{false, 128}, BudgetParams{false, 1},
                      BudgetParams{true, 128}, BudgetParams{true, 1}),
    [](const ::testing::TestParamInfo<BudgetParams>& info) {
      return std::string(info.param.vertical ? "vertical" : "horizontal") +
             (info.param.probe_batch > 1 ? "_batched" : "_scalar");
    });

/// A star query over TinyStar grouped by p_cat, so it always reads
/// `product`: filtered by a p_id range (which may cover appended
/// products), by a p_cat match, or not at all; sometimes also by store.
StarQuerySpec ProductSpec(const TinyStar& ts, int max_product, Rng& rng) {
  const Schema& ps = ts.product->schema();
  const Schema& ss = ts.store->schema();
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      const int64_t lo = rng.UniformInt(1, max_product);
      spec.dim_predicates.push_back(DimensionPredicate{
          0, MakeBetween(MakeColumnRef(ps, "p_id").value(), Value(lo),
                         Value(lo + rng.UniformInt(2, 10)))});
      break;
    }
    case 1:
      spec.dim_predicates.push_back(DimensionPredicate{
          0, MakeCompare(CmpOp::kEq, MakeColumnRef(ps, "p_cat").value(),
                         MakeLiteral(Value(
                             "cat" + std::to_string(rng.UniformInt(0, 3)))))});
      break;
    default:
      break;
  }
  if (rng.Bernoulli(0.4)) {
    spec.dim_predicates.push_back(DimensionPredicate{
        1, MakeCompare(CmpOp::kNe, MakeColumnRef(ss, "s_region").value(),
                       MakeLiteral(Value(
                           "R" + std::to_string(rng.UniformInt(0, 2)))))});
  }
  spec.group_by.push_back(ColumnSource::Dim(0, 1));  // p_cat
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "amt"});
  return spec;
}

TEST(CJoinVersionedDimTest, BurstsAtMixedSnapshotsOverChangingProducts) {
  // P4: between rounds, `product` rows are deleted or appended at fresh
  // snapshots. Each round releases 8 submitters at once, so the Pipeline
  // Manager admits their queries in batches that mix the last 4
  // snapshots. Each result must equal the reference at its own snapshot.
  constexpr int kProducts = 20;
  constexpr int kAppended = 8;  // product keys 21..28, appended later
  constexpr int kRounds = 9;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 2;
  auto ts = MakeTinyStar(2000, kProducts, 6);
  {
    // Fact rows whose products do not exist yet: they join a query only
    // once its snapshot sees the product's append.
    const Schema& fs = ts->sales->schema();
    for (int i = 0; i < 400; ++i) {
      uint8_t* row = ts->sales->AppendUninitialized();
      fs.SetInt32(row, 0, kProducts + 1 + i % kAppended);
      fs.SetInt32(row, 1, i % 6 + 1);
      fs.SetInt32(row, 2, i % 10 + 1);
      fs.SetInt32(row, 3, (i % 100) * 10);
    }
  }

  CJoinOperator::Options opts;
  opts.max_concurrent_queries = 32;
  opts.num_worker_threads = 2;
  opts.pool_capacity = 4096;
  opts.scan_run_rows = 128;
  CJoinOperator op(*ts->star, opts);
  ASSERT_TRUE(op.Start().ok());

  const Schema& ps = ts->product->schema();
  std::vector<SnapshotId> snapshots = {1};
  uint64_t completed = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      // One delete and, while keys remain, one append, both at a fresh
      // snapshot. Appended keys are new, so no key ever has two rows.
      const SnapshotId snap = snapshots.back() + 1;
      const RowId victim{0, static_cast<uint64_t>((round * 7) % kProducts)};
      ASSERT_TRUE(ts->product->MarkDeleted(victim, snap).ok());
      if (round <= kAppended) {
        const int key = kProducts + round;
        std::vector<uint8_t> row(ps.row_size());
        const std::string cat = "cat" + std::to_string(key % 4);
        ps.SetInt32(row.data(), 0, key);
        ps.SetChar(row.data(), 1, cat.c_str());
        ps.SetInt32(row.data(), 2, key * 100);
        ts->product->AppendRow(row.data(), 0, snap);
      }
      snapshots.push_back(snap);
    }

    std::latch start(kThreads);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(round * 100 + t));
        std::vector<StarQuerySpec> specs;
        for (int q = 0; q < kQueriesPerThread; ++q) {
          StarQuerySpec spec = ProductSpec(*ts, kProducts + kAppended, rng);
          const size_t back = static_cast<size_t>(t * kQueriesPerThread + q) %
                              std::min<size_t>(4, snapshots.size());
          spec.snapshot = snapshots[snapshots.size() - 1 - back];
          spec.label = "r" + std::to_string(round) + "t" + std::to_string(t) +
                       "q" + std::to_string(q) + "@" +
                       std::to_string(spec.snapshot);
          specs.push_back(std::move(spec));
        }
        start.arrive_and_wait();
        std::vector<std::unique_ptr<QueryHandle>> handles;
        for (const StarQuerySpec& spec : specs) {
          auto h = op.Submit(spec);
          EXPECT_TRUE(h.ok()) << spec.label << ": " << h.status().ToString();
          handles.push_back(h.ok() ? std::move(*h) : nullptr);
        }
        for (size_t q = 0; q < specs.size(); ++q) {
          if (handles[q] == nullptr) continue;
          auto rs = handles[q]->Wait();
          EXPECT_TRUE(rs.ok()) << specs[q].label << ": "
                               << rs.status().ToString();
          if (!rs.ok()) continue;
          const ResultSet ref = ReferenceEvaluate(
              NormalizeSpec(StarQuerySpec(specs[q])).value());
          EXPECT_TRUE(rs->SameContents(ref))
              << specs[q].label << "\ngot:\n" << rs->ToString() << "want:\n"
              << ref.ToString();
        }
      });
    }
    for (auto& th : submitters) th.join();
    completed += kThreads * kQueriesPerThread;
  }

  // Every id, registration and dimension entry comes back.
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  CJoinOperator::Stats stats = op.GetStats();
  auto entries = [](const CJoinOperator::Stats& s) {
    return std::accumulate(s.dim_table_sizes.begin(), s.dim_table_sizes.end(),
                           size_t{0});
  };
  while ((op.InFlight() != 0 || stats.active_queries != 0 ||
          entries(stats) != 0) &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stats = op.GetStats();
  }
  EXPECT_EQ(op.InFlight(), 0u);
  EXPECT_EQ(stats.active_queries, 0u);
  EXPECT_EQ(entries(stats), 0u);
  EXPECT_EQ(stats.queries_completed, completed);
  op.Stop();
}

}  // namespace
}  // namespace cjoin
