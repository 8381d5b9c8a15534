// ShardedCJoinOperator: an elastic pool of CJOIN pipeline instances over
// page slices of one fact table.
//
// One CJoinOperator is bounded by its single continuous scan's fact-tuple
// rate. This operator runs N full pipeline instances — each with its own
// continuous scan, Preprocessor, filter Stages, and Distributor — over the
// one source fact table, while keeping the paper's one-registration query
// model:
//
//   Submit(spec) --> mirror registration on every shard
//                      shard 0: scan -> pre -> filters -> dist -+
//                      shard 1: scan -> pre -> filters -> dist -+-> merge
//                      ...                                      |
//                    merging collector completes the ticket  <--+
//
// Shard s's scan delivers only the pages of slice {s, N} (ScanSlice in
// continuous_scan.h). The slices cover the table disjointly and each
// returns its rows in the same order every lap (§3.3.3), so per-shard
// partial aggregates merge into exactly the single-operator answer. No row
// is copied: appends and deletes write the source table once, and every
// shard sees them through the table's MVCC headers and lap freezes.
//
// Each shard assigns the query its own bit-vector slot and loads the
// query's dimension hash-table entries from the shared dimension tables
// (the mirror of Algorithm 1 on every pipeline); every shard then
// completes the query independently when its own lap wraps over the
// query's registration point. The merging collector holds one per-shard
// partial aggregate (a raw GroupTable, so AVG and friends merge exactly)
// and delivers the caller's single QueryHandle only after the last shard's
// lap covers its registration epoch. Cancellation and deadlines fan out:
// the merged handle's Cancel() deregisters the query mid-lap on every
// shard, and any shard's deadline expiry terminates the whole query.
//
// With one shard (the default engine configuration) Submit() delegates
// directly to the single CJoinOperator — the pool degenerates to exactly
// the pre-sharding pipeline, byte-identical results included. Tests can
// force the merge path at one shard to prove the collector itself is
// byte-identical.

#ifndef CJOIN_CJOIN_SHARDED_OPERATOR_H_
#define CJOIN_CJOIN_SHARDED_OPERATOR_H_

#include <memory>
#include <vector>

#include "catalog/query_spec.h"
#include "cjoin/cjoin_operator.h"
#include "cjoin/query_runtime.h"
#include "common/status.h"

namespace cjoin {

class ShardedCJoinOperator {
 public:
  struct Options {
    /// Per-shard pipeline options. disk_reader_id is treated as a base:
    /// shard s scans as reader disk_reader_id + s, so a shared SimDisk
    /// sees N distinct sequential readers.
    CJoinOperator::Options op;
    /// Run the mirror/merge machinery even with a single shard (testing:
    /// proves the collector is byte-identical to the direct path).
    bool force_merge_path = false;
  };

  /// Builds `num_shards` (>= 1) pipelines over `source`; shard s scans
  /// slice {s, num_shards} of its fact table. Submitted specs are bound
  /// against `source`.
  ShardedCJoinOperator(const StarSchema& source, size_t num_shards,
                       Options options);
  ~ShardedCJoinOperator();

  ShardedCJoinOperator(const ShardedCJoinOperator&) = delete;
  ShardedCJoinOperator& operator=(const ShardedCJoinOperator&) = delete;

  /// Starts every shard pipeline. Must be called once before Submit().
  Status Start();

  /// Stops every shard pipeline; unfinished queries (and their merged
  /// tickets) resolve with kAborted. Idempotent.
  void Stop();

  /// Registers a star query once across all shards and returns a single
  /// handle whose result is the shard-merged aggregate. Semantics match
  /// CJoinOperator::Submit (cooperative cancellation, deadlines, and the
  /// bounded id wait: kResourceExhausted once any shard's ids stay taken
  /// past id_acquire_grace_ns, kAborted once a shard is stopping).
  Result<std::unique_ptr<QueryHandle>> Submit(
      StarQuerySpec spec, CJoinOperator::SubmitOptions options);

  size_t num_shards() const { return shards_.size(); }
  CJoinOperator* shard(size_t s) { return shards_[s].get(); }
  const CJoinOperator* shard(size_t s) const { return shards_[s].get(); }
  const StarSchema& source() const { return source_; }

  /// Logical queries in flight. Every query registers on every shard, so
  /// shard 0's count is the pool-wide logical count.
  size_t InFlight() const { return shards_[0]->InFlight(); }

  /// Newest snapshot fully covered by *every* shard's frozen scan ranges:
  /// a query capped at this value reads identical data on all shards.
  SnapshotId covered_snapshot() const;

  /// Aggregated statistics: data-volume counters (rows scanned, tuples
  /// routed, pool use, per-filter counts) are summed across shards;
  /// per-query lifecycle counters (completed/cancelled/active/pending) are
  /// shard 0's, which counts each logical query exactly once; table_laps
  /// is the minimum over shards (full-pool coverage laps).
  CJoinOperator::Stats GetStats() const;

  /// Per-shard pipeline statistics, by shard index.
  std::vector<CJoinOperator::Stats> PerShardStats() const;

 private:
  const StarSchema& source_;
  Options opts_;
  std::vector<std::unique_ptr<CJoinOperator>> shards_;
};

}  // namespace cjoin

#endif  // CJOIN_CJOIN_SHARDED_OPERATOR_H_
