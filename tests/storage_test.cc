// Unit tests for the storage engine: schemas/row layout, tables with MVCC
// and partitions, the continuous scan (wrap-around, pass events, frozen
// sizes, page slices), SimDisk, and table persistence.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "storage/continuous_scan.h"
#include "storage/schema.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "storage/table_file.h"

namespace cjoin {
namespace {

Schema TestSchema() {
  Schema s;
  s.AddInt32("a").AddInt64("b").AddChar("name", 10).AddDouble("x");
  return s;
}

// ------------------------------- Schema -------------------------------------

TEST(SchemaTest, OffsetsAndAlignment) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.column(0).offset, 0u);
  EXPECT_EQ(s.column(1).offset, 8u);   // int64 aligned to 8
  EXPECT_EQ(s.column(2).offset, 16u);  // char follows
  EXPECT_EQ(s.column(3).offset % 8, 0u);
  EXPECT_EQ(s.row_size() % 8, 0u);
}

TEST(SchemaTest, FieldRoundtrip) {
  Schema s = TestSchema();
  std::vector<uint8_t> row(s.row_size());
  s.SetInt32(row.data(), 0, -42);
  s.SetInt64(row.data(), 1, int64_t{1} << 40);
  s.SetChar(row.data(), 2, "hi");
  s.SetDouble(row.data(), 3, 2.5);
  EXPECT_EQ(s.GetInt32(row.data(), 0), -42);
  EXPECT_EQ(s.GetInt64(row.data(), 1), int64_t{1} << 40);
  EXPECT_EQ(s.GetChar(row.data(), 2), "hi");
  EXPECT_DOUBLE_EQ(s.GetDouble(row.data(), 3), 2.5);
}

TEST(SchemaTest, CharTruncatesAndPads) {
  Schema s = TestSchema();
  std::vector<uint8_t> row(s.row_size());
  s.SetChar(row.data(), 2, "exactly10!");  // 10 chars fits
  EXPECT_EQ(s.GetChar(row.data(), 2), "exactly10!");
  s.SetChar(row.data(), 2, "this is too long");
  EXPECT_EQ(s.GetChar(row.data(), 2), "this is to");
  s.SetChar(row.data(), 2, "x");
  EXPECT_EQ(s.GetChar(row.data(), 2), "x");
}

TEST(SchemaTest, ColumnLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ColumnIndex("name"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_TRUE(s.FindColumn("b").ok());
  EXPECT_FALSE(s.FindColumn("zzz").ok());
}

TEST(SchemaTest, GetIntAnyWidensInt32) {
  Schema s = TestSchema();
  std::vector<uint8_t> row(s.row_size());
  s.SetInt32(row.data(), 0, 123);
  s.SetInt64(row.data(), 1, 456);
  EXPECT_EQ(s.GetIntAny(row.data(), 0), 123);
  EXPECT_EQ(s.GetIntAny(row.data(), 1), 456);
}

TEST(SchemaTest, ToStringDescribes) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ToString(),
            "(a INT32, b INT64, name CHAR(10), x DOUBLE)");
}

// -------------------------------- Table -------------------------------------

TEST(TableTest, AppendAndRead) {
  Table t("t", TestSchema(), Table::Options{.rows_per_page = 4});
  const Schema& s = t.schema();
  for (int i = 0; i < 10; ++i) {
    uint8_t* row = t.AppendUninitialized();
    s.SetInt32(row, 0, i);
  }
  EXPECT_EQ(t.NumRows(), 10u);
  EXPECT_EQ(t.NumPages(0), 3u);  // 4 + 4 + 2
  EXPECT_EQ(t.PageRows(0, 2), 2u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.GetInt32(t.RowPayload(RowId{0, i}), 0),
              static_cast<int32_t>(i));
  }
}

TEST(TableTest, AppendRowCopiesPayload) {
  Table t("t", TestSchema());
  const Schema& s = t.schema();
  std::vector<uint8_t> payload(s.row_size());
  s.SetInt32(payload.data(), 0, 77);
  const RowId id = t.AppendRow(payload.data());
  s.SetInt32(payload.data(), 0, 0);  // mutate the source
  EXPECT_EQ(s.GetInt32(t.RowPayload(id), 0), 77);
}

TEST(TableTest, PartitionsAreIndependent) {
  Table t("t", TestSchema(), Table::Options{.rows_per_page = 4,
                                            .num_partitions = 3});
  const Schema& s = t.schema();
  for (int i = 0; i < 9; ++i) {
    uint8_t* row = t.AppendUninitialized(static_cast<uint32_t>(i % 3));
    s.SetInt32(row, 0, i);
  }
  EXPECT_EQ(t.NumRows(), 9u);
  EXPECT_EQ(t.PartitionRows(0), 3u);
  EXPECT_EQ(t.PartitionRows(1), 3u);
  EXPECT_EQ(t.PartitionRows(2), 3u);
  EXPECT_EQ(s.GetInt32(t.RowPayload(RowId{1, 0}), 0), 1);
}

TEST(TableTest, MvccVisibility) {
  Table t("t", TestSchema());
  RowId id;
  t.AppendUninitialized(0, /*xmin=*/5, &id);
  const RowHeader* hdr = t.Header(id);
  EXPECT_FALSE(hdr->VisibleAt(4));
  EXPECT_TRUE(hdr->VisibleAt(5));
  EXPECT_TRUE(hdr->VisibleAt(100));
  ASSERT_TRUE(t.MarkDeleted(id, 10).ok());
  EXPECT_TRUE(t.Header(id)->VisibleAt(9));
  EXPECT_FALSE(t.Header(id)->VisibleAt(10));
  // Double delete fails.
  EXPECT_FALSE(t.MarkDeleted(id, 12).ok());
}

TEST(TableTest, MarkDeletedRejectsBadXmax) {
  Table t("t", TestSchema());
  RowId id;
  t.AppendUninitialized(0, /*xmin=*/5, &id);
  EXPECT_FALSE(t.MarkDeleted(id, 5).ok());  // xmax must exceed xmin
}

TEST(TableTest, VisibleToAllFastPath) {
  Table t("t", TestSchema());
  RowId id;
  t.AppendUninitialized(0, 0, &id);
  EXPECT_TRUE(t.Header(id)->VisibleToAll());
  RowId id2;
  t.AppendUninitialized(0, 3, &id2);
  EXPECT_FALSE(t.Header(id2)->VisibleToAll());
}

// --------------------------- ContinuousScan ---------------------------------

Table MakeNumberedTable(uint64_t rows, uint32_t partitions = 1,
                        size_t rows_per_page = 8) {
  Schema s;
  s.AddInt64("v");
  Table t("nums", std::move(s),
          Table::Options{rows_per_page, partitions});
  for (uint64_t i = 0; i < rows; ++i) {
    uint8_t* row = t.AppendUninitialized(
        static_cast<uint32_t>(i % partitions));
    t.schema().SetInt64(row, 0, static_cast<int64_t>(i));
  }
  return t;
}

TEST(ContinuousScanTest, EmptyTableProducesNothing) {
  Table t = MakeNumberedTable(0);
  ContinuousScan scan(t);
  ScanEvent ev;
  EXPECT_FALSE(scan.Next(&ev));
}

TEST(ContinuousScanTest, WrapsAroundInSameOrder) {
  Table t = MakeNumberedTable(20);
  ContinuousScan scan(t, ContinuousScan::Options{.max_run_rows = 7});
  std::vector<int64_t> lap1, lap2;
  ScanEvent ev;
  while (lap2.size() < 20) {
    ASSERT_TRUE(scan.Next(&ev));
    if (ev.kind != ScanEvent::Kind::kRows) continue;
    for (size_t i = 0; i < ev.count; ++i) {
      const uint8_t* payload =
          ev.base + i * t.row_stride() + sizeof(RowHeader);
      const int64_t v = t.schema().GetInt64(payload, 0);
      if (lap1.size() < 20) {
        lap1.push_back(v);
      } else {
        lap2.push_back(v);
      }
    }
  }
  EXPECT_EQ(lap1, lap2);  // §3.3.3 property 1: identical order per lap
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(lap1[i], i);
}

TEST(ContinuousScanTest, PassEventsBracketPartitions) {
  Table t = MakeNumberedTable(12, /*partitions=*/3);
  ContinuousScan scan(t, ContinuousScan::Options{.max_run_rows = 100});
  ScanEvent ev;
  std::vector<std::pair<ScanEvent::Kind, uint32_t>> seq;
  for (int i = 0; i < 9; ++i) {  // 3 partitions x (start, rows, end)
    ASSERT_TRUE(scan.Next(&ev));
    seq.emplace_back(ev.kind, ev.partition);
  }
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(seq[p * 3].first, ScanEvent::Kind::kPassStart);
    EXPECT_EQ(seq[p * 3 + 1].first, ScanEvent::Kind::kRows);
    EXPECT_EQ(seq[p * 3 + 2].first, ScanEvent::Kind::kPassEnd);
    EXPECT_EQ(seq[p * 3].second, p);
  }
  EXPECT_EQ(scan.table_laps(), 1u);
  EXPECT_EQ(scan.partition_lap(0), 1u);
}

TEST(ContinuousScanTest, RunsRespectPageBoundaries) {
  Table t = MakeNumberedTable(20, 1, /*rows_per_page=*/8);
  ContinuousScan scan(t, ContinuousScan::Options{.max_run_rows = 100});
  ScanEvent ev;
  std::vector<size_t> run_sizes;
  while (run_sizes.size() < 3) {
    ASSERT_TRUE(scan.Next(&ev));
    if (ev.kind == ScanEvent::Kind::kRows) run_sizes.push_back(ev.count);
  }
  EXPECT_EQ(run_sizes, (std::vector<size_t>{8, 8, 4}));
}

TEST(ContinuousScanTest, RowsAppendedMidLapAppearNextLap) {
  Table t = MakeNumberedTable(10);
  ContinuousScan scan(t, ContinuousScan::Options{.max_run_rows = 4});
  ScanEvent ev;
  // Consume the pass-start and the first run.
  ASSERT_TRUE(scan.Next(&ev));
  ASSERT_EQ(ev.kind, ScanEvent::Kind::kPassStart);
  ASSERT_TRUE(scan.Next(&ev));
  ASSERT_EQ(ev.kind, ScanEvent::Kind::kRows);
  EXPECT_EQ(scan.frozen_size(0), 10u);

  // Append mid-lap: invisible until the wrap.
  uint8_t* row = t.AppendUninitialized();
  t.schema().SetInt64(row, 0, 999);

  uint64_t rows_this_lap = ev.count;
  while (scan.table_laps() == 0) {
    ASSERT_TRUE(scan.Next(&ev));
    if (ev.kind == ScanEvent::Kind::kRows) rows_this_lap += ev.count;
  }
  EXPECT_EQ(rows_this_lap, 10u);
  EXPECT_EQ(scan.frozen_size(0), 11u);  // refrozen at wrap
}

TEST(ContinuousScanTest, TickAdvancesMonotonically) {
  Table t = MakeNumberedTable(10);
  ContinuousScan scan(t, ContinuousScan::Options{.max_run_rows = 3});
  ScanEvent ev;
  uint64_t expected_tick = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(scan.Next(&ev));
    if (ev.kind != ScanEvent::Kind::kRows) continue;
    EXPECT_EQ(ev.first_tick, expected_tick);
    expected_tick += ev.count;
  }
}

// ------------------------------ ScanSlice -----------------------------------

// One table lap of `scan` over `slice`, from wherever it stands: the
// values of the rows it delivers, in order, and the partitions whose pass
// start and pass end it emits. After every run the scan position must lie
// in a page the slice owns, where a completion checkpoint can be revisited.
struct SliceLap {
  std::vector<int64_t> values;
  std::vector<uint32_t> pass_starts;
  std::vector<uint32_t> pass_ends;
};

SliceLap ScanOneLap(const Table& t, ContinuousScan& scan, ScanSlice slice) {
  SliceLap lap;
  const uint64_t laps = scan.table_laps();
  ScanEvent ev;
  while (scan.table_laps() == laps) {
    if (!scan.Next(&ev)) {
      ADD_FAILURE() << "scan produced no event";
      break;
    }
    switch (ev.kind) {
      case ScanEvent::Kind::kPassStart:
        lap.pass_starts.push_back(ev.partition);
        break;
      case ScanEvent::Kind::kPassEnd:
        lap.pass_ends.push_back(ev.partition);
        break;
      case ScanEvent::Kind::kRows:
        for (size_t i = 0; i < ev.count; ++i) {
          lap.values.push_back(t.schema().GetInt64(
              ev.base + i * t.row_stride() + sizeof(RowHeader), 0));
        }
        EXPECT_TRUE(slice.Owns(ev.partition,
                               scan.current_index() / t.rows_per_page()))
            << "position " << scan.current_index() << " of partition "
            << ev.partition;
        break;
    }
  }
  return lap;
}

// 26 rows over 3 partitions (9, 9 and 8 rows) in 4-row pages: partitions 0
// and 1 end in a 1-row tail page. Runs of 3 rows split every full page.
Table MakeSliceTable() {
  return MakeNumberedTable(26, /*partitions=*/3, /*rows_per_page=*/4);
}
constexpr ContinuousScan::Options kSliceRuns{.max_run_rows = 3};

TEST(ScanSliceTest, SlicesCoverEveryRowOncePerLapInFixedOrder) {
  Table t = MakeSliceTable();
  std::vector<int64_t> want(26);
  for (int64_t i = 0; i < 26; ++i) want[i] = i;
  for (size_t n = 1; n <= 4; ++n) {
    std::vector<int64_t> all;
    for (size_t s = 0; s < n; ++s) {
      const ScanSlice slice{s, n};
      ContinuousScan scan(t, kSliceRuns, slice);
      const SliceLap lap1 = ScanOneLap(t, scan, slice);
      const SliceLap lap2 = ScanOneLap(t, scan, slice);
      // §3.3.3 property 1 holds per slice: identical order every lap.
      EXPECT_EQ(lap1.values, lap2.values) << "slice " << s << "/" << n;
      // Every partition is bracketed, whether the slice owns pages of it
      // or not.
      EXPECT_EQ(lap1.pass_starts, (std::vector<uint32_t>{0, 1, 2}));
      EXPECT_EQ(lap1.pass_ends, (std::vector<uint32_t>{0, 1, 2}));
      all.insert(all.end(), lap1.values.begin(), lap1.values.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, want) << "n=" << n;  // every row exactly once
  }
}

TEST(ScanSliceTest, SliceWithoutPagesInAPartitionStillBracketsIt) {
  Table t = MakeSliceTable();
  // Slice 0 of 4 owns page 0 of partition 0 only: partition 1's pages go
  // to slices 1-3, partition 2's to slices 2-3.
  ContinuousScan scan(t, ContinuousScan::Options{}, ScanSlice{0, 4});
  using K = ScanEvent::Kind;
  std::vector<std::pair<K, uint32_t>> seq;
  ScanEvent ev;
  while (scan.table_laps() == 0) {
    ASSERT_TRUE(scan.Next(&ev));
    seq.emplace_back(ev.kind, ev.partition);
    if (ev.kind == K::kRows) {
      EXPECT_EQ(ev.count, 4u);
    }
  }
  const std::vector<std::pair<K, uint32_t>> want = {
      {K::kPassStart, 0}, {K::kRows, 0},      {K::kPassEnd, 0},
      {K::kPassStart, 1}, {K::kPassEnd, 1},   {K::kPassStart, 2},
      {K::kPassEnd, 2}};
  EXPECT_EQ(seq, want);
}

TEST(ScanSliceTest, RowAppendedMidLapAppearsNextLapInOneSlice) {
  for (size_t n = 1; n <= 4; ++n) {
    Table t = MakeSliceTable();
    std::vector<std::unique_ptr<ContinuousScan>> scans;
    ScanEvent ev;
    for (size_t s = 0; s < n; ++s) {
      scans.push_back(
          std::make_unique<ContinuousScan>(t, kSliceRuns, ScanSlice{s, n}));
      ASSERT_TRUE(scans.back()->Next(&ev));  // every slice is mid-lap
    }
    // 1000 fills partition 0's tail page; 1001 opens a page of partition 2.
    t.schema().SetInt64(t.AppendUninitialized(0), 0, 1000);
    t.schema().SetInt64(t.AppendUninitialized(2), 0, 1001);

    size_t seen_1000 = 0, seen_1001 = 0;
    for (size_t s = 0; s < n; ++s) {
      ContinuousScan& scan = *scans[s];
      const SliceLap rest = ScanOneLap(t, scan, ScanSlice{s, n});
      EXPECT_EQ(std::count(rest.values.begin(), rest.values.end(), 1000), 0);
      EXPECT_EQ(std::count(rest.values.begin(), rest.values.end(), 1001), 0);
      const SliceLap next = ScanOneLap(t, scan, ScanSlice{s, n});
      seen_1000 += std::count(next.values.begin(), next.values.end(), 1000);
      seen_1001 += std::count(next.values.begin(), next.values.end(), 1001);
    }
    EXPECT_EQ(seen_1000, 1u) << "n=" << n;
    EXPECT_EQ(seen_1001, 1u) << "n=" << n;
  }
}

TEST(SinglePassScanTest, VisitsEveryRowOnce) {
  Table t = MakeNumberedTable(25, /*partitions=*/2);
  SinglePassScan scan(t);
  ScanEvent ev;
  uint64_t total = 0;
  while (scan.Next(&ev)) total += ev.count;
  EXPECT_EQ(total, 25u);
  // Exhausted scans stay exhausted.
  EXPECT_FALSE(scan.Next(&ev));
}

TEST(SinglePassScanTest, PartitionPruning) {
  Table t = MakeNumberedTable(30, /*partitions=*/3);
  SinglePassScan scan(t, ContinuousScan::Options{}, {2});
  ScanEvent ev;
  uint64_t total = 0;
  while (scan.Next(&ev)) {
    EXPECT_EQ(ev.partition, 2u);
    total += ev.count;
  }
  EXPECT_EQ(total, t.PartitionRows(2));
}

// -------------------------------- SimDisk -----------------------------------

TEST(SimDiskTest, DisabledIsFree) {
  SimDisk::Options o;
  o.enabled = false;
  SimDisk disk(o);
  disk.Acquire(1, 1 << 30);
  EXPECT_EQ(disk.BusySeconds(), 0.0);
}

TEST(SimDiskTest, ChargesTransferTime) {
  SimDisk::Options o;
  o.bandwidth_bytes_per_sec = 100e6;
  o.seek_time = std::chrono::microseconds(0);
  SimDisk disk(o);
  disk.Acquire(1, 10'000'000);  // 0.1 s of transfer
  EXPECT_NEAR(disk.BusySeconds(), 0.1, 0.01);
}

TEST(SimDiskTest, SeeksChargedOnReaderSwitch) {
  SimDisk::Options o;
  o.bandwidth_bytes_per_sec = 1e12;  // transfers ~free
  o.seek_time = std::chrono::microseconds(100);
  SimDisk disk(o);
  disk.Acquire(1, 10);
  disk.Acquire(1, 10);  // same reader: no new seek
  disk.Acquire(2, 10);
  disk.Acquire(1, 10);
  EXPECT_EQ(disk.SeekCount(), 3u);  // initial + two switches
}

// ------------------------------- TableFile ----------------------------------

TEST(TableFileTest, SaveLoadRoundtrip) {
  Table t("roundtrip", TestSchema(),
          Table::Options{.rows_per_page = 4, .num_partitions = 2});
  const Schema& s = t.schema();
  for (int i = 0; i < 11; ++i) {
    RowId id;
    uint8_t* row = t.AppendUninitialized(static_cast<uint32_t>(i % 2),
                                         /*xmin=*/i % 3 == 0 ? 2 : 0, &id);
    s.SetInt32(row, 0, i);
    s.SetInt64(row, 1, i * 100);
    s.SetChar(row, 2, "row" + std::to_string(i));
    s.SetDouble(row, 3, i * 0.5);
    if (i == 4) {
      ASSERT_TRUE(t.MarkDeleted(id, 7).ok());
    }
  }

  const std::string path = ::testing::TempDir() + "/cjoin_table_test.bin";
  ASSERT_TRUE(SaveTable(t, path).ok());
  auto loaded = LoadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t2 = **loaded;

  EXPECT_EQ(t2.name(), "roundtrip");
  EXPECT_TRUE(t2.schema() == t.schema());
  EXPECT_EQ(t2.NumRows(), t.NumRows());
  ASSERT_EQ(t2.num_partitions(), 2u);
  for (uint32_t p = 0; p < 2; ++p) {
    ASSERT_EQ(t2.PartitionRows(p), t.PartitionRows(p));
    for (uint64_t i = 0; i < t.PartitionRows(p); ++i) {
      const RowId id{p, i};
      EXPECT_EQ(s.GetInt32(t2.RowPayload(id), 0),
                s.GetInt32(t.RowPayload(id), 0));
      EXPECT_EQ(s.GetChar(t2.RowPayload(id), 2),
                s.GetChar(t.RowPayload(id), 2));
      EXPECT_EQ(t2.Header(id)->xmin, t.Header(id)->xmin);
      EXPECT_EQ(t2.Header(id)->xmax, t.Header(id)->xmax);
    }
  }
  std::remove(path.c_str());
}

TEST(TableFileTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/cjoin_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a table file at all", f);
  fclose(f);
  EXPECT_FALSE(LoadTable(path).ok());
  std::remove(path.c_str());
}

TEST(TableFileTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadTable("/nonexistent/dir/nope.bin").ok());
}

}  // namespace
}  // namespace cjoin
