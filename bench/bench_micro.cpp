// Component microbenchmarks (google-benchmark): the primitive operations
// on CJOIN's hot paths — hashing, bit-vector combining, the batch
// queues, dimension hash probes, predicate evaluation, and aggregation
// folding.

#include <benchmark/benchmark.h>

#include "cjoin/dim_hash_table.h"
#include "common/bitvector.h"
#include "common/hash.h"
#include "common/queue.h"
#include "common/rng.h"
#include "exec/group_table.h"
#include "exec/key_row_map.h"
#include "expr/expr.h"
#include "storage/schema.h"

namespace cjoin {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x1234;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_HashBytes(benchmark::State& state) {
  const std::string s(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashBytes(s.data(), s.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(s.size()));
}
BENCHMARK(BM_HashBytes)->Arg(8)->Arg(32)->Arg(128);

void BM_BitvectorAnd(benchmark::State& state) {
  const size_t words = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> dst(words, ~uint64_t{0});
  std::vector<uint64_t> src(words, 0xf0f0f0f0f0f0f0f0ULL);
  for (auto _ : state) {
    dst[0] = ~uint64_t{0};
    benchmark::DoNotOptimize(
        bitops::AndInto(dst.data(), src.data(), words));
  }
}
BENCHMARK(BM_BitvectorAnd)->Arg(1)->Arg(4)->Arg(16);

void BM_BitvectorForEachSetBit(benchmark::State& state) {
  const size_t words = 4;
  std::vector<uint64_t> bits(words, 0);
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    bitops::SetBit(bits.data(), static_cast<size_t>(rng.UniformInt(0, 255)));
  }
  for (auto _ : state) {
    size_t sum = 0;
    bitops::ForEachSetBit(bits.data(), words, [&](size_t b) { sum += b; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitvectorForEachSetBit)->Arg(1)->Arg(16)->Arg(128);

void BM_QueuePushPopBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  BoundedQueue<int> q(1 << 14);
  std::vector<int> in(batch, 7);
  std::vector<int> out;
  for (auto _ : state) {
    std::vector<int> tmp = in;
    q.PushBatch(tmp);
    out.clear();
    q.PopBatch(out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_QueuePushPopBatch)->Arg(1)->Arg(64)->Arg(512);

void BM_DimHashTableProbe(benchmark::State& state) {
  const size_t entries = static_cast<size_t>(state.range(0));
  DimensionHashTable ht(/*width_words=*/4, entries);
  std::vector<uint8_t> rows(entries);
  std::vector<int64_t> keys(entries);
  std::vector<const uint8_t*> row_ptrs(entries);
  for (size_t i = 0; i < entries; ++i) {
    keys[i] = static_cast<int64_t>(i * 3);
    row_ptrs[i] = &rows[i];
  }
  const std::vector<uint64_t> masks(entries * 4, 0);
  ht.InsertOrMerge(keys.data(), row_ptrs.data(), masks.data(), entries);
  Rng rng(2);
  ReaderMutexLock lk(&ht.mutex());
  for (auto _ : state) {
    const int64_t key = rng.UniformInt(0, static_cast<int64_t>(entries) * 3);
    benchmark::DoNotOptimize(ht.ProbeLocked(key));
  }
}
BENCHMARK(BM_DimHashTableProbe)->Arg(1024)->Arg(65536);

void BM_KeyRowMapFind(benchmark::State& state) {
  const size_t entries = 65536;
  KeyRowMap m(entries);
  std::vector<uint8_t> rows(entries);
  for (size_t i = 0; i < entries; ++i) {
    m.Insert(static_cast<int64_t>(i), &rows[i]);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.Find(rng.UniformInt(0, static_cast<int64_t>(entries) - 1)));
  }
}
BENCHMARK(BM_KeyRowMapFind);

void BM_PredicateEval(benchmark::State& state) {
  Schema schema;
  schema.AddInt32("year").AddChar("region", 12);
  std::vector<uint8_t> row(schema.row_size());
  schema.SetInt32(row.data(), 0, 1995);
  schema.SetChar(row.data(), 1, "AMERICA");
  ExprPtr pred = MakeAnd(
      MakeBetween(MakeColumnRef(0), Value(1992), Value(1997)),
      MakeCompare(CmpOp::kEq, MakeColumnRef(1),
                  MakeLiteral(Value("AMERICA"))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->EvalBool(schema, row.data()));
  }
}
BENCHMARK(BM_PredicateEval);

void BM_GroupTableFold(benchmark::State& state) {
  const int64_t groups = state.range(0);
  GroupTable table({AggFn::kCount, AggFn::kSum});
  Rng rng(4);
  std::vector<Value> inputs = {Value(), Value(int64_t{10})};
  for (auto _ : state) {
    std::vector<Value> key = {Value(rng.UniformInt(0, groups - 1))};
    table.Fold(std::move(key), inputs);
  }
}
BENCHMARK(BM_GroupTableFold)->Arg(16)->Arg(4096);

}  // namespace
}  // namespace cjoin

BENCHMARK_MAIN();
