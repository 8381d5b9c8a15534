// Shared test fixtures and an independent reference evaluator.

#ifndef CJOIN_TESTS_TEST_UTIL_H_
#define CJOIN_TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "catalog/star_schema.h"
#include "exec/aggregation.h"
#include "exec/result_set.h"
#include "storage/table.h"

namespace cjoin {

class QueryEngine;

namespace testing {

/// A tiny hand-built star schema: fact "sales" with dimensions "product"
/// and "store", small enough that expected results are hand-checkable.
///
///   product(p_id INT32, p_cat CHAR(8), p_price INT32)   x num_products
///   store(s_id INT32, s_region CHAR(8))                 x num_stores
///   sales(f_pid INT32, f_sid INT32, f_qty INT32, f_amount INT32)
struct TinyStar {
  std::unique_ptr<Table> product;
  std::unique_ptr<Table> store;
  std::unique_ptr<Table> sales;
  std::unique_ptr<StarSchema> star;
};

/// Builds the tiny star with deterministic contents.
/// Fact row i: pid = i % num_products + 1, sid = i % num_stores + 1,
/// qty = i % 10 + 1, amount = (i % 100) * 10.
/// Product p: cat = "cat<p%4>", price = p * 100.
/// Store s: region = "R<s%3>".
std::unique_ptr<TinyStar> MakeTinyStar(uint64_t num_facts = 1000,
                                       int num_products = 20,
                                       int num_stores = 6,
                                       uint32_t fact_partitions = 1);

/// Independent reference evaluation of a normalized star query: full
/// nested scans with std::map join indexes, feeding the *sort-based*
/// aggregator (a different code path than the pipeline's hash
/// aggregation). Ignores SimDisk; honors snapshots/partitions/predicates.
ResultSet ReferenceEvaluate(const StarQuerySpec& spec);

/// Expects that every resource a query takes has come back: polls, for at
/// most 10 s, until the admission totals (CJOIN in flight, baseline in
/// system, waiting) are 0 and, on every shard of every star, InFlight(),
/// active_queries, blocks_in_use, query_ids_in_use, runtimes_registered,
/// the summed dim_table_sizes and the three *_pending counters are 0.
/// Cleanup runs on pipeline threads after delivery, so a test that just
/// returned from Wait() must poll. Records a test failure naming the
/// counters that did not drain.
void ExpectQuiescent(QueryEngine& engine);

}  // namespace testing
}  // namespace cjoin

#endif  // CJOIN_TESTS_TEST_UTIL_H_
