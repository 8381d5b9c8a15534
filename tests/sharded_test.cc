// Tests for the sharded CJOIN execution subsystem: cross-shard result
// equivalence against the single-operator path (byte-identical at one
// shard, multiset-identical at N), completion checkpoints on page slices,
// cancellation mid-lap on a sharded pool, update/snapshot visibility
// across shards and re-shards, runtime re-sharding, and concurrent
// registration/cancellation at shards in {1, 2, 4}.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cjoin/sharded_operator.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "ssb/generator.h"
#include "ssb/queries.h"
#include "storage/sim_disk.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::ExpectQuiescent;
using testing::MakeTinyStar;
using testing::ReferenceEvaluate;
using testing::TinyStar;

StarQuerySpec CountStar(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  return spec;
}

StarQuerySpec RegionGroup(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.group_by.push_back(ColumnSource::Dim(1, 1));
  spec.group_by_labels.push_back("s_region");
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  spec.aggregates.push_back(AggregateSpec{
      AggFn::kSum, ColumnSource::Fact(3), nullptr, "amt"});
  spec.aggregates.push_back(AggregateSpec{
      AggFn::kAvg, ColumnSource::Fact(3), nullptr, "avg_amt"});
  return spec;
}

QueryEngine::Options EngineOptions(size_t shards) {
  QueryEngine::Options opts;
  opts.cjoin.max_concurrent_queries = 32;
  opts.cjoin.num_worker_threads = 2;
  opts.cjoin.pool_capacity = 8192;
  opts.cjoin_shards = shards;
  return opts;
}

Result<ResultSet> RunCJoin(QueryEngine& engine, StarQuerySpec spec) {
  QueryRequest req = QueryRequest::FromSpec(std::move(spec));
  req.policy = RoutePolicy::kCJoin;
  CJOIN_ASSIGN_OR_RETURN(auto ticket, engine.Execute(std::move(req)));
  return ticket->Wait();
}

// ------------------- Merge path vs single operator --------------------------

// The merging collector at one shard must be byte-identical to the plain
// single-operator path (same fold order, same finalization math).
TEST(ShardedOperatorTest, MergePathByteIdenticalAtOneShard) {
  auto ts = MakeTinyStar(3000);

  CJoinOperator::Options op_opts;
  op_opts.max_concurrent_queries = 8;
  op_opts.num_worker_threads = 2;
  op_opts.pool_capacity = 4096;

  CJoinOperator single(*ts->star, op_opts);
  ASSERT_TRUE(single.Start().ok());

  ShardedCJoinOperator::Options sopts;
  sopts.op = op_opts;
  sopts.force_merge_path = true;  // exercise the collector at N=1
  ShardedCJoinOperator sharded(*ts->star, 1, sopts);
  ASSERT_TRUE(sharded.Start().ok());

  for (StarQuerySpec spec : {CountStar(*ts), RegionGroup(*ts)}) {
    auto h1 = single.Submit(spec);
    ASSERT_TRUE(h1.ok()) << h1.status().ToString();
    auto r1 = (*h1)->Wait();
    ASSERT_TRUE(r1.ok());

    auto h2 = sharded.Submit(spec, {});
    ASSERT_TRUE(h2.ok()) << h2.status().ToString();
    auto r2 = (*h2)->Wait();
    ASSERT_TRUE(r2.ok());

    r1->SortRows();
    r2->SortRows();
    EXPECT_EQ(r1->ToString(), r2->ToString());  // byte-identical
    EXPECT_EQ(r1->tuples_consumed, r2->tuples_consumed);
  }
  sharded.Stop();
  single.Stop();
}

// ---------------- Cross-shard equivalence on SSB Q1-Q4 -----------------------

TEST(ShardedEquivalenceTest, SsbQueriesAgreeAcrossShardCounts) {
  ssb::GenOptions gopts;
  gopts.scale_factor = 0.003;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    QueryEngine engine(EngineOptions(shards));
    ASSERT_TRUE(engine.RegisterStar("ssb", *db->star).ok());
    ASSERT_EQ(engine.ShardCount("ssb").value(), shards);
    for (const std::string& name : ssb::SsbQueries::AllNames()) {
      StarQuerySpec spec = queries.Canonical(name).value();
      const ResultSet ref = ReferenceEvaluate(spec);
      auto rs = RunCJoin(engine, spec);
      ASSERT_TRUE(rs.ok()) << name << " shards=" << shards << ": "
                           << rs.status().ToString();
      EXPECT_TRUE(rs->SameContents(ref))
          << name << " shards=" << shards << "\ngot:\n"
          << rs->ToString() << "want:\n"
          << ref.ToString();
    }
    engine.Shutdown();
  }
}

TEST(ShardedEquivalenceTest, BatchedProbeByteIdenticalToScalarOnSsb) {
  // The batched gather→prefetch→resolve probe path (probe_batch_size=32)
  // must be byte-identical to the scalar per-tuple loop
  // (probe_batch_size=1) on every SSB query, at 1 shard and 4 shards.
  ssb::GenOptions gopts;
  gopts.scale_factor = 0.003;
  auto db = ssb::Generate(gopts).value();
  ssb::SsbQueries queries(*db);

  for (size_t shards : {size_t{1}, size_t{4}}) {
    std::vector<std::string> outputs[2];  // [0]=scalar, [1]=batched
    for (int arm = 0; arm < 2; ++arm) {
      QueryEngine::Options opts = EngineOptions(shards);
      opts.cjoin.probe_batch_size = arm == 0 ? 1 : 32;
      QueryEngine engine(opts);
      ASSERT_TRUE(engine.RegisterStar("ssb", *db->star).ok());
      for (const std::string& name : ssb::SsbQueries::AllNames()) {
        StarQuerySpec spec = queries.Canonical(name).value();
        const ResultSet ref = ReferenceEvaluate(spec);
        auto rs = RunCJoin(engine, spec);
        ASSERT_TRUE(rs.ok()) << name << " shards=" << shards
                             << " arm=" << arm << ": "
                             << rs.status().ToString();
        EXPECT_TRUE(rs->SameContents(ref))
            << name << " shards=" << shards << " arm=" << arm;
        rs->SortRows();
        outputs[arm].push_back(rs->ToString());
      }
      engine.Shutdown();
    }
    ASSERT_EQ(outputs[0].size(), outputs[1].size());
    const auto names = ssb::SsbQueries::AllNames();
    for (size_t i = 0; i < outputs[0].size(); ++i) {
      EXPECT_EQ(outputs[0][i], outputs[1][i])
          << names[i] << " shards=" << shards
          << ": batched arm diverged from scalar arm";
    }
  }
}

// ----------------------- Checkpoints on page slices -------------------------

// With 50-row runs inside 128-row pages, queries register mid-page and at
// page ends, where a slice must already have stepped past the pages it
// does not own. A completion checkpoint left on an unowned page is never
// revisited: its query hangs (here: runs into its deadline) or fires late
// and counts a checkpoint miss.
TEST(ShardedCheckpointTest, QueriesRegisteredMidLapCompleteExactly) {
  auto ts = MakeTinyStar(20000, 20, 6, /*fact_partitions=*/3);
  const ResultSet ref = ReferenceEvaluate(*NormalizeSpec(CountStar(*ts)));
  const obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter(
      "cjoin_checkpoint_misses_total",
      "Completion checkpoints that fired past their exact stream position");

  for (size_t shards : {size_t{2}, size_t{3}, size_t{4}}) {
    QueryEngine::Options opts = EngineOptions(shards);
    opts.cjoin.max_concurrent_queries = 64;
    opts.cjoin.scan_run_rows = 50;
    QueryEngine engine(opts);
    ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());
    const uint64_t misses_before = misses->Value();

    std::vector<std::unique_ptr<QueryTicket>> tickets;
    for (int i = 0; i < 60; ++i) {
      QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
      req.policy = RoutePolicy::kCJoin;
      req.timeout = std::chrono::seconds(30);
      auto t = engine.Execute(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      tickets.push_back(std::move(*t));
      std::this_thread::sleep_for(std::chrono::microseconds(150));
    }
    for (auto& t : tickets) {
      auto rs = t->Wait();
      ASSERT_TRUE(rs.ok()) << "shards=" << shards << ": "
                           << rs.status().ToString();
      EXPECT_TRUE(rs->SameContents(ref)) << "shards=" << shards;
    }
    EXPECT_EQ(misses->Value(), misses_before) << "shards=" << shards;
    ExpectQuiescent(engine);
  }
}

// --------------------------- Cancellation -----------------------------------

TEST(ShardedCancelTest, CancelMidLapOnOneShardTerminatesTheQuery) {
  auto ts = MakeTinyStar(50000);
  // A slow shared disk keeps every shard's lap long enough that the
  // cancel lands mid-lap on all of them.
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts = EngineOptions(2);
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  auto t = engine.Execute(std::move(req));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*t)->Cancel();
  auto rs = (*t)->Wait();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);

  // Every shard reclaimed its slot: the next query registers on all
  // shards and completes correctly.
  QueryRequest req2 = QueryRequest::FromSpec(CountStar(*ts));
  req2.policy = RoutePolicy::kCJoin;
  auto t2 = engine.Execute(std::move(req2));
  ASSERT_TRUE(t2.ok());
  auto rs2 = (*t2)->Wait();
  ASSERT_TRUE(rs2.ok()) << rs2.status().ToString();
  EXPECT_EQ(rs2->rows[0][0].AsInt(), 50000);
}

TEST(ShardedCancelTest, DeadlineExpiresAcrossShards) {
  auto ts = MakeTinyStar(50000);
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts = EngineOptions(2);
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
  req.policy = RoutePolicy::kCJoin;
  req.timeout = std::chrono::milliseconds(100);
  auto t = engine.Execute(std::move(req));
  ASSERT_TRUE(t.ok());
  auto rs = (*t)->Wait();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
}

// --------------------- Updates & snapshot visibility -------------------------

TEST(ShardedUpdateTest, SnapshotSeesIdenticalDataOnEveryShard) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto ts = MakeTinyStar(2000);
    QueryEngine engine(EngineOptions(shards));
    ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());

    auto count_at = [&](SnapshotId snap) -> int64_t {
      StarQuerySpec spec = CountStar(*ts);
      spec.snapshot = snap;
      auto rs = RunCJoin(engine, spec);
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      return rs.ok() ? rs->rows[0][0].AsInt() : -1;
    };
    auto count_now = [&]() -> int64_t {
      return count_at(kReadLatestSnapshot);
    };
    EXPECT_EQ(count_now(), 2000);

    // Delete rows with f_qty == 10 (200 of 2000) at one commit snapshot.
    const Schema& fs = ts->sales->schema();
    auto qty10 = MakeCompare(CmpOp::kEq, MakeColumnRef(fs, "f_qty").value(),
                             MakeLiteral(Value(10)));
    auto del_snap = engine.DeleteFacts("sales", qty10);
    ASSERT_TRUE(del_snap.ok());
    EXPECT_EQ(count_now(), 1800);
    // A query registered at the pre-delete epoch reads the pre-delete data
    // on every shard: the counts (shard-wise sums) reproduce it exactly.
    EXPECT_EQ(count_at(*del_snap - 1), 2000);

    // Each appended row lands in one shard's page slice under one commit;
    // the count (sum over the shards' laps) converges to include them.
    std::vector<std::vector<uint8_t>> rows;
    for (int i = 0; i < 7; ++i) {
      std::vector<uint8_t> p(fs.row_size());
      fs.SetInt32(p.data(), 0, i % 20 + 1);
      fs.SetInt32(p.data(), 1, i % 6 + 1);
      fs.SetInt32(p.data(), 2, 3);
      fs.SetInt32(p.data(), 3, 50);
      rows.push_back(std::move(p));
    }
    ASSERT_TRUE(engine.AppendFacts("sales", rows).ok());
    int64_t n = 0;
    for (int attempt = 0; attempt < 200; ++attempt) {
      n = count_now();
      if (n == 1807) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(n, 1807);
    // The old snapshot still reads the pre-delete, pre-append universe.
    EXPECT_EQ(count_at(*del_snap - 1), 2000);

    // A re-shard restarts the pipelines over the same table: the deletes'
    // xmax and the appends' xmin still decide what each snapshot sees.
    ASSERT_TRUE(engine.SetShardCount("sales", 5 - shards).ok());
    EXPECT_EQ(count_at(*del_snap - 1), 2000);
    EXPECT_EQ(count_now(), 1807);
  }
}

// --------------------------- Re-sharding ------------------------------------

TEST(ShardedReshardTest, SetShardCountRebuildsThePool) {
  auto ts = MakeTinyStar(3000);
  QueryEngine engine(EngineOptions(1));
  ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());
  const ResultSet ref =
      ReferenceEvaluate(*NormalizeSpec(RegionGroup(*ts)));

  for (size_t shards : {size_t{3}, size_t{1}, size_t{4}}) {
    ASSERT_TRUE(engine.SetShardCount("sales", shards).ok());
    EXPECT_EQ(engine.ShardCount("sales").value(), shards);
    auto rs = RunCJoin(engine, RegionGroup(*ts));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(rs->SameContents(ref)) << "shards=" << shards;
  }
  EXPECT_FALSE(engine.SetShardCount("sales", 0).ok());
  EXPECT_FALSE(engine.SetShardCount("nope", 2).ok());
}

// An Execute() that picked up the pool just before SetShardCount swapped
// it submits into a stopping operator; a query registered a moment
// earlier is aborted by the stop. Either way Execute() returns a ticket
// and the outcome resolves through it — never as an Execute() error.
TEST(ShardedReshardTest, ExecuteRacingSetShardCountResolvesThroughTickets) {
  auto ts = MakeTinyStar(2000);
  QueryEngine engine(EngineOptions(1));
  ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());
  const ResultSet ref = ReferenceEvaluate(*NormalizeSpec(CountStar(*ts)));

  std::atomic<bool> resharding{true};
  std::thread resharder([&] {
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(engine.SetShardCount("sales", i % 2 == 0 ? 2 : 1).ok());
    }
    resharding.store(false);
  });
  size_t executed = 0, completed = 0, aborted = 0;
  while (resharding.load()) {
    QueryRequest req = QueryRequest::FromSpec(CountStar(*ts));
    req.policy = RoutePolicy::kCJoin;
    auto ticket = engine.Execute(std::move(req));
    ++executed;
    if (!ticket.ok()) {
      ADD_FAILURE() << "Execute() failed: " << ticket.status().ToString();
      continue;
    }
    auto rs = (*ticket)->Wait();
    if (rs.ok()) {
      EXPECT_TRUE(rs->SameContents(ref)) << rs->ToString();
      ++completed;
    } else {
      EXPECT_EQ(rs.status().code(), StatusCode::kAborted)
          << rs.status().ToString();
      ++aborted;
    }
  }
  resharder.join();
  EXPECT_GT(completed, 0u) << executed << " executed, " << aborted
                           << " aborted";
  ExpectQuiescent(engine);
}

// ------------------- Galaxy join over a sharded pool -------------------------

TEST(ShardedGalaxyTest, CustomAggregatorPathIsSerialized) {
  auto ts = MakeTinyStar(2000);
  QueryEngine engine(EngineOptions(2));
  ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());

  Schema rschema;
  rschema.AddInt32("r_pid").AddInt32("r_qty");
  auto returns = std::make_unique<Table>("returns", rschema);
  for (int i = 0; i < 600; ++i) {
    uint8_t* row = returns->AppendUninitialized();
    rschema.SetInt32(row, 0, i % 20 + 1);
    rschema.SetInt32(row, 1, i % 3 + 1);
  }
  auto star2 = StarSchema::Make(
      returns.get(), std::vector<StarSchema::DimensionByName>{
                         {ts->product.get(), "r_pid", "p_id"}});
  ASSERT_TRUE(star2.ok());
  ASSERT_TRUE(engine.RegisterStar("returns", std::move(*star2)).ok());

  QueryEngine::GalaxyJoinSpec gspec;
  gspec.left.schema = engine.FindStar("sales").value();
  gspec.left.dim_predicates.push_back(DimensionPredicate{0, MakeTrue()});
  gspec.right.schema = engine.FindStar("returns").value();
  gspec.left_join_col = 0;
  gspec.right_join_col = 0;
  gspec.group_by.push_back(
      {0, ColumnSource::Dim(0, 1), "p_cat"});
  gspec.aggregates.push_back({AggFn::kCount, 0, std::nullopt, "pairs"});

  auto rs = engine.ExecuteGalaxyJoin(gspec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 4u);  // cat0..cat3
  int64_t pairs = 0;
  for (const auto& row : rs->rows) pairs += row[1].AsInt();
  // Brute-force pair count: each product key joins (sales rows with pid)
  // x (returns rows with pid). 2000/20=100 sales, 600/20=30 returns per
  // key, 20 keys.
  EXPECT_EQ(pairs, 20 * 100 * 30);
}

// --------------- Concurrent registration / cancellation ----------------------

TEST(ShardedConcurrencyTest, ConcurrentSubmitAndCancelAcrossShardCounts) {
  auto ts = MakeTinyStar(5000);
  const ResultSet count_ref =
      ReferenceEvaluate(*NormalizeSpec(CountStar(*ts)));
  const ResultSet group_ref =
      ReferenceEvaluate(*NormalizeSpec(RegionGroup(*ts)));

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    QueryEngine engine(EngineOptions(shards));
    ASSERT_TRUE(engine.RegisterStar("sales", *ts->star).ok());
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < 12; ++i) {
          const bool grouped = (w + i) % 2 == 0;
          QueryRequest req = QueryRequest::FromSpec(
              grouped ? RegionGroup(*ts) : CountStar(*ts));
          req.policy = RoutePolicy::kCJoin;
          auto t = engine.Execute(std::move(req));
          if (!t.ok()) {
            failed.store(true);
            continue;
          }
          if (i % 3 == w % 3) (*t)->Cancel();
          auto rs = (*t)->Wait();
          if (rs.ok()) {
            // Completed queries must be exact regardless of the races.
            if (!rs->SameContents(grouped ? group_ref : count_ref)) {
              failed.store(true);
            }
          } else if (rs.status().code() != StatusCode::kCancelled) {
            failed.store(true);
          }
        }
      });
    }
    for (auto& th : workers) th.join();
    EXPECT_FALSE(failed.load()) << "shards=" << shards;
    engine.Shutdown();
  }
}

}  // namespace
}  // namespace cjoin
