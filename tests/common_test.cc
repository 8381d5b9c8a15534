// Unit tests for the common runtime: Status/Result, bit-vector operations,
// bounded queues, hashing, and the PRNG.

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/status.h"

namespace cjoin {
namespace {

// --------------------------- Status / Result -------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIOError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  CJOIN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

// ------------------------------ BitVector ----------------------------------

TEST(BitVectorTest, SetTestClear) {
  BitVector bv(100);
  EXPECT_TRUE(bv.none());
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_TRUE(bv.Test(0));
  EXPECT_TRUE(bv.Test(63));
  EXPECT_TRUE(bv.Test(64));
  EXPECT_TRUE(bv.Test(99));
  EXPECT_FALSE(bv.Test(1));
  EXPECT_EQ(bv.count(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Test(63));
  EXPECT_EQ(bv.count(), 3u);
}

TEST(BitVectorTest, SetAllRespectsWidth) {
  BitVector bv(70);
  bv.SetAll();
  EXPECT_EQ(bv.count(), 70u);
  BitVector bv64(64);
  bv64.SetAll();
  EXPECT_EQ(bv64.count(), 64u);
}

TEST(BitVectorTest, CopyAndMoveSemantics) {
  BitVector a(300);  // beyond inline storage
  a.Set(7);
  a.Set(299);
  BitVector b = a;
  EXPECT_EQ(a, b);
  BitVector c = std::move(a);
  EXPECT_EQ(c, b);
  EXPECT_TRUE(c.Test(299));
  b.Clear(7);
  EXPECT_NE(c, b);
}

TEST(BitVectorTest, ToStringOrdersBitZeroFirst) {
  BitVector bv(4);
  bv.Set(1);
  EXPECT_EQ(bv.ToString(), "0100");
}

/// Property sweep over widths crossing word boundaries.
class BitVectorWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorWidthTest, CountMatchesSetBits) {
  const size_t width = GetParam();
  BitVector bv(width);
  Rng rng(width);
  std::set<size_t> expected;
  for (int i = 0; i < 200; ++i) {
    const size_t bit = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(width) - 1));
    if (rng.Bernoulli(0.5)) {
      bv.Set(bit);
      expected.insert(bit);
    } else {
      bv.Clear(bit);
      expected.erase(bit);
    }
  }
  EXPECT_EQ(bv.count(), expected.size());
  for (size_t b = 0; b < width; ++b) {
    EXPECT_EQ(bv.Test(b), expected.count(b) > 0) << "bit " << b;
  }
  // ForEachSetBit visits exactly the expected set, in order.
  std::vector<size_t> visited;
  bitops::ForEachSetBit(bv.words(), bv.size_words(),
                        [&](size_t b) { visited.push_back(b); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(std::set<size_t>(visited.begin(), visited.end()), expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidthTest,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           255, 256, 257, 1000));

TEST(BitopsTest, AndIntoDetectsZero) {
  uint64_t a[2] = {0b1010, 0};
  uint64_t b[2] = {0b0110, 0};
  EXPECT_TRUE(bitops::AndInto(a, b, 2));
  EXPECT_EQ(a[0], 0b0010u);
  uint64_t c[2] = {0b0100, 0};
  EXPECT_FALSE(bitops::AndInto(a, c, 2));
  EXPECT_TRUE(bitops::IsZero(a, 2));
}

TEST(BitopsTest, AndNotIsZeroIsSubsetTest) {
  uint64_t a[1] = {0b0011};
  uint64_t superset[1] = {0b0111};
  uint64_t disjoint[1] = {0b1100};
  EXPECT_TRUE(bitops::AndNotIsZero(a, superset, 1));
  EXPECT_FALSE(bitops::AndNotIsZero(a, disjoint, 1));
}

TEST(BitopsTest, AssignMaskedWordsBesideConcurrentReaders) {
  // One writer assigns masked bits while readers load the words; bits
  // outside the mask never change.
  uint64_t words[4] = {~uint64_t{0}, 0, ~uint64_t{0}, 0x5555};
  const uint64_t mask[4] = {0xF0, 0, 0xFF00, 0x3};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        EXPECT_EQ(bitops::AtomicLoadWord(words, 0) & ~mask[0],
                  ~uint64_t{0} & ~mask[0]);
        EXPECT_EQ(bitops::AtomicLoadWord(words, 1), 0u);
      }
    });
  }
  for (uint64_t round = 0; round < 2000; ++round) {
    const uint64_t v = round % 2 == 0 ? 0 : ~uint64_t{0};
    const uint64_t values[4] = {v, v, v, v};
    bitops::AssignMaskedWords(words, mask, values, 4);
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  // The last round (1999) assigned ones under the mask.
  EXPECT_EQ(words[0], ~uint64_t{0});
  EXPECT_EQ(words[1], 0u);
  EXPECT_EQ(words[2], ~uint64_t{0});
  EXPECT_EQ(words[3], 0x5557u);
}

// ------------------------------- Queue -------------------------------------

TEST(QueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(QueueTest, CloseDrainsThenEmpty) {
  BoundedQueue<int> q(8);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, BatchTransfer) {
  BoundedQueue<int> q(4);  // smaller than the batch: forces chunking
  std::vector<int> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::thread consumer([&q] {
    std::vector<int> got;
    while (got.size() < 9) {
      q.PopBatch(got, 3);
    }
    EXPECT_EQ(got.size(), 9u);
    for (int i = 0; i < 9; ++i) EXPECT_EQ(got[i], i + 1);
  });
  EXPECT_EQ(q.PushBatch(in), 9u);
  consumer.join();
}

TEST(QueueTest, TryPopNonBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(7);
  EXPECT_EQ(q.TryPop().value(), 7);
  // TryPopAll moves everything queued, in order, appending to `out`.
  std::vector<int> out = {0};
  EXPECT_EQ(q.TryPopAll(out), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.TryPopAll(out), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(QueueTest, PopWithTimeoutTimesOut) {
  BoundedQueue<int> q(2);
  auto v = q.PopWithTimeout(std::chrono::milliseconds(5));
  EXPECT_FALSE(v.has_value());
  q.Push(1);
  EXPECT_EQ(q.PopWithTimeout(std::chrono::milliseconds(5)).value(), 1);
}

TEST(QueueTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2500;
  BoundedQueue<int> q(64);
  std::atomic<int64_t> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : threads) t.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

TEST(QueueTest, HysteresisStillDeliversLastItems) {
  // With a deep wake threshold, a lone final item must still be consumable
  // (timed waits make the watermark a hint, not a correctness condition).
  BoundedQueue<int>::Options opts;
  opts.capacity = 64;
  opts.consumer_wake_depth = 32;
  BoundedQueue<int> q(opts);
  std::thread consumer([&q] {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 99);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Push(99);  // below the watermark: consumer wakes via timed recheck
  consumer.join();
}

// ------------------------------ Hash / Rng ----------------------------------

TEST(HashTest, Mix64Distributes) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, HashBytesMatchesForEqualInput) {
  const std::string a = "hello world";
  EXPECT_EQ(HashBytes(a.data(), a.size()), HashString(a));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(v);
  EXPECT_EQ(st.count(), 8);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
}

}  // namespace
}  // namespace cjoin
