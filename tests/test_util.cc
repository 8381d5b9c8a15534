#include "tests/test_util.h"

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "engine/query_engine.h"

namespace cjoin {
namespace testing {

std::unique_ptr<TinyStar> MakeTinyStar(uint64_t num_facts, int num_products,
                                       int num_stores,
                                       uint32_t fact_partitions) {
  auto ts = std::make_unique<TinyStar>();

  Schema pschema;
  pschema.AddInt32("p_id").AddChar("p_cat", 8).AddInt32("p_price");
  ts->product = std::make_unique<Table>("product", pschema);
  for (int p = 1; p <= num_products; ++p) {
    uint8_t* row = ts->product->AppendUninitialized();
    char cat[9];
    std::snprintf(cat, sizeof(cat), "cat%d", p % 4);
    pschema.SetInt32(row, 0, p);
    pschema.SetChar(row, 1, cat);
    pschema.SetInt32(row, 2, p * 100);
  }

  Schema sschema;
  sschema.AddInt32("s_id").AddChar("s_region", 8);
  ts->store = std::make_unique<Table>("store", sschema);
  for (int s = 1; s <= num_stores; ++s) {
    uint8_t* row = ts->store->AppendUninitialized();
    char region[9];
    std::snprintf(region, sizeof(region), "R%d", s % 3);
    sschema.SetInt32(row, 0, s);
    sschema.SetChar(row, 1, region);
  }

  Schema fschema;
  fschema.AddInt32("f_pid").AddInt32("f_sid").AddInt32("f_qty").AddInt32(
      "f_amount");
  Table::Options fopts;
  fopts.rows_per_page = 128;  // several pages even for small tables
  fopts.num_partitions = fact_partitions;
  ts->sales = std::make_unique<Table>("sales", fschema, fopts);
  for (uint64_t i = 0; i < num_facts; ++i) {
    uint8_t* row = ts->sales->AppendUninitialized(
        static_cast<uint32_t>(i % fact_partitions));
    fschema.SetInt32(row, 0, static_cast<int32_t>(i % num_products) + 1);
    fschema.SetInt32(row, 1, static_cast<int32_t>(i % num_stores) + 1);
    fschema.SetInt32(row, 2, static_cast<int32_t>(i % 10) + 1);
    fschema.SetInt32(row, 3, static_cast<int32_t>(i % 100) * 10);
  }

  auto star = StarSchema::Make(
      ts->sales.get(),
      std::vector<StarSchema::DimensionByName>{
          {ts->product.get(), "f_pid", "p_id"},
          {ts->store.get(), "f_sid", "s_id"},
      });
  ts->star = std::make_unique<StarSchema>(std::move(star).value());
  return ts;
}

ResultSet ReferenceEvaluate(const StarQuerySpec& spec) {
  const StarSchema& star = *spec.schema;

  // Selected rows of each referenced dimension, keyed by PK.
  std::vector<std::map<int64_t, const uint8_t*>> selected(
      star.num_dimensions());
  std::vector<bool> referenced(star.num_dimensions(), false);
  for (const DimensionPredicate& dp : spec.dim_predicates) {
    referenced[dp.dim_index] = true;
    const DimensionDef& def = star.dimension(dp.dim_index);
    const Table& dim = *def.table;
    for (uint32_t p = 0; p < dim.num_partitions(); ++p) {
      for (uint64_t i = 0; i < dim.PartitionRows(p); ++i) {
        const RowId id{p, i};
        if (!dim.Header(id)->VisibleAt(spec.snapshot)) continue;
        const uint8_t* row = dim.RowPayload(id);
        if (!dp.predicate->EvalBool(dim.schema(), row)) continue;
        selected[dp.dim_index][dim.schema().GetIntAny(row, def.dim_pk_col)] =
            row;
      }
    }
  }

  std::unique_ptr<StarAggregator> agg = MakeSortAggregator(spec);
  const Table& fact = star.fact();
  const Schema& fschema = fact.schema();

  std::vector<uint32_t> parts = spec.partitions;
  if (parts.empty()) {
    for (uint32_t p = 0; p < fact.num_partitions(); ++p) parts.push_back(p);
  }

  std::vector<const uint8_t*> dim_rows(star.num_dimensions(), nullptr);
  for (uint32_t p : parts) {
    for (uint64_t i = 0; i < fact.PartitionRows(p); ++i) {
      const RowId id{p, i};
      if (!fact.Header(id)->VisibleAt(spec.snapshot)) continue;
      const uint8_t* row = fact.RowPayload(id);
      if (spec.fact_predicate != nullptr &&
          !spec.fact_predicate->EvalBool(fschema, row)) {
        continue;
      }
      bool pass = true;
      for (size_t d = 0; d < star.num_dimensions(); ++d) {
        dim_rows[d] = nullptr;
        if (!referenced[d]) continue;
        const int64_t fk =
            fschema.GetIntAny(row, star.dimension(d).fact_fk_col);
        auto it = selected[d].find(fk);
        if (it == selected[d].end()) {
          pass = false;
          break;
        }
        dim_rows[d] = it->second;
      }
      if (!pass) continue;
      agg->Consume(row, dim_rows.data());
    }
  }
  return agg->Finish();
}

namespace {

/// Names every nonzero counter ExpectQuiescent watches ("" when idle).
std::string BusyCounters(QueryEngine& engine) {
  std::string busy;
  auto note = [&busy](const std::string& what, size_t value) {
    if (value != 0) busy += " " + what + "=" + std::to_string(value);
  };
  const AdmissionController::Stats adm = engine.AdmissionStats();
  note("admission.cjoin_inflight", adm.total_cjoin_inflight);
  note("admission.baseline_in_system", adm.total_baseline_in_system);
  note("admission.waiting", adm.total_waiting);
  for (const std::string& star : engine.StarNames()) {
    Result<ShardedCJoinOperator*> op = engine.OperatorFor(star);
    if (!op.ok()) continue;
    const std::vector<CJoinOperator::Stats> shards = (*op)->PerShardStats();
    for (size_t s = 0; s < shards.size(); ++s) {
      const CJoinOperator::Stats& st = shards[s];
      const std::string at = star + "/s" + std::to_string(s) + ".";
      note(at + "inflight", (*op)->shard(s)->InFlight());
      note(at + "active_queries", st.active_queries);
      note(at + "blocks_in_use", st.blocks_in_use);
      note(at + "query_ids_in_use", st.query_ids_in_use);
      note(at + "runtimes_registered", st.runtimes_registered);
      note(at + "dim_table_entries",
           std::accumulate(st.dim_table_sizes.begin(),
                           st.dim_table_sizes.end(), size_t{0}));
      note(at + "submissions_pending", st.submissions_pending);
      note(at + "admissions_pending", st.admissions_pending);
      note(at + "cleanups_pending", st.cleanups_pending);
    }
  }
  return busy;
}

}  // namespace

void ExpectQuiescent(QueryEngine& engine) {
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string busy = BusyCounters(engine);
  while (!busy.empty() && std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    busy = BusyCounters(engine);
  }
  EXPECT_EQ(busy, "") << "engine not quiescent after 10 s";
}

}  // namespace testing
}  // namespace cjoin
