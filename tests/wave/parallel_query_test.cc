// Parallel probe fan-out: results must equal the serial probe exactly, on a
// synchronized single device and on a multi-disk array.

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "storage/disk_array.h"
#include "storage/synchronized_device.h"
#include "testing/test_env.h"
#include "util/thread_pool.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class ParallelQueryTest : public ::testing::Test {
 protected:
  // Builds one constituent per day 1..days, each on disk (day % disks).
  void BuildOnDisks(int days, int num_disks) {
    disks_ = std::make_unique<DiskArray>(num_disks, uint64_t{1} << 26);
    for (Day d = 1; d <= days; ++d) {
      DayBatch batch = MakeMixedBatch(d, 30);
      reference_.Add(batch);
      const int disk = (d - 1) % num_disks;
      auto built = IndexBuilder::BuildPacked(disks_->device(disk),
                                             disks_->allocator(disk), {},
                                             batch, "I" + std::to_string(d));
      ASSERT_TRUE(built.ok()) << built.status();
      wave_.AddIndex(std::move(built).ValueOrDie());
    }
  }

  std::unique_ptr<DiskArray> disks_;
  WaveIndex wave_;
  ReferenceIndex reference_;
  ThreadPool pool_{4};
};

TEST_F(ParallelQueryTest, ParallelProbeEqualsSerialProbe) {
  BuildOnDisks(8, 3);
  for (const DayRange& range :
       {DayRange::All(), DayRange{3, 6}, DayRange{8, 8}, DayRange{9, 12}}) {
    for (const Value& value : {Value("alpha"), Value("day5"), Value("nope")}) {
      std::vector<Entry> serial, parallel;
      QueryStats serial_stats, parallel_stats;
      ASSERT_OK(wave_.TimedIndexProbe(range, value, &serial, &serial_stats));
      ASSERT_OK(wave_.ParallelTimedIndexProbe(&pool_, range, value, &parallel,
                                              &parallel_stats));
      EXPECT_EQ(parallel, serial) << value;  // merged in constituent order
      EXPECT_EQ(parallel_stats.indexes_accessed, serial_stats.indexes_accessed);
      EXPECT_EQ(parallel_stats.indexes_skipped, serial_stats.indexes_skipped);
      EXPECT_EQ(parallel_stats.entries_returned, serial_stats.entries_returned);
    }
  }
}

TEST_F(ParallelQueryTest, WorksOnOneSynchronizedDevice) {
  // Single shared device: concurrency is safe because the device serializes.
  MemoryDevice memory(uint64_t{1} << 26);
  SynchronizedMeteredDevice device(&memory);
  ExtentAllocator allocator(uint64_t{1} << 26);
  WaveIndex wave;
  ReferenceIndex reference;
  for (Day d = 1; d <= 5; ++d) {
    DayBatch batch = MakeMixedBatch(d, 40);
    reference.Add(batch);
    auto built = IndexBuilder::BuildPacked(&device, &allocator, {}, batch,
                                           "I" + std::to_string(d));
    ASSERT_TRUE(built.ok()) << built.status();
    wave.AddIndex(std::move(built).ValueOrDie());
  }
  std::vector<Entry> out;
  ASSERT_OK(wave.ParallelTimedIndexProbe(&pool_, DayRange::All(), "beta",
                                         &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference.Probe("beta", kDayNegInf, kDayPosInf));
}

TEST_F(ParallelQueryTest, EmptyWaveIndex) {
  WaveIndex wave;
  std::vector<Entry> out;
  ASSERT_OK(wave.ParallelTimedIndexProbe(&pool_, DayRange::All(), "x", &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(ParallelQueryTest, ManyConcurrentParallelQueries) {
  // Several caller threads each issuing parallel probes through one pool.
  BuildOnDisks(9, 3);
  const std::vector<Entry> expected =
      reference_.Probe("gamma", kDayNegInf, kDayPosInf);
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&]() {
      for (int q = 0; q < 50; ++q) {
        std::vector<Entry> out;
        Status s =
            wave_.ParallelTimedIndexProbe(&pool_, DayRange::All(), "gamma",
                                          &out);
        ReferenceIndex::Sort(&out);
        if (!s.ok() || out != expected) ++failures;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace wavekit
