#include "storage/sharded_cached_device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/fault_injecting_device.h"
#include "storage/metered_device.h"
#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string AsString(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

class ShardedCachedDeviceTest : public ::testing::Test {
 protected:
  ShardedCachedDeviceTest()
      : memory_(1 << 20),
        metered_(&memory_),
        // Cache ABOVE the meter: hits are not charged as device traffic.
        cached_(&metered_, /*capacity_blocks=*/32, /*block_size=*/64,
                /*num_shards=*/4) {}

  MemoryDevice memory_;
  MeteredDevice metered_;
  ShardedCachedDevice cached_;
};

TEST_F(ShardedCachedDeviceTest, ReadThroughAndHit) {
  ASSERT_OK(cached_.Write(10, Bytes("hello")));
  std::vector<std::byte> out(5);
  ASSERT_OK(cached_.Read(10, out));
  EXPECT_EQ(AsString(out), "hello");
  EXPECT_EQ(cached_.stats().misses, 1u);  // block 0 loaded once
  ASSERT_OK(cached_.Read(10, out));
  ASSERT_OK(cached_.Read(12, std::span<std::byte>(out.data(), 3)));
  EXPECT_EQ(cached_.stats().hits, 2u);
  EXPECT_EQ(cached_.stats().misses, 1u);
}

TEST_F(ShardedCachedDeviceTest, HitsDoNotTouchTheMeteredDevice) {
  ASSERT_OK(cached_.Write(0, Bytes("abcdef")));
  std::vector<std::byte> out(6);
  ASSERT_OK(cached_.Read(0, out));
  const uint64_t bytes_after_first = metered_.total().bytes_read;
  for (int i = 0; i < 10; ++i) ASSERT_OK(cached_.Read(0, out));
  EXPECT_EQ(metered_.total().bytes_read, bytes_after_first)
      << "cached reads must not be charged as disk traffic";
}

TEST_F(ShardedCachedDeviceTest, BlocksDistributeAcrossShards) {
  std::vector<std::byte> buf(1);
  // Touch 16 consecutive blocks: block_id % 4 striping puts exactly 4 in
  // each of the 4 shards.
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_OK(cached_.Read(b * 64, buf));
  }
  for (size_t shard = 0; shard < cached_.num_shards(); ++shard) {
    EXPECT_EQ(cached_.shard_cached_blocks(shard), 4u) << "shard " << shard;
    EXPECT_EQ(cached_.shard_stats(shard).misses, 4u) << "shard " << shard;
  }
  EXPECT_EQ(cached_.cached_blocks(), 16u);
}

TEST_F(ShardedCachedDeviceTest, EvictionIsPerShardLru) {
  std::vector<std::byte> buf(1);
  // Shard 0 holds blocks {0, 4, 8, ...}; per-shard capacity is 32/4 = 8.
  // Touch 9 shard-0 blocks: exactly one eviction, of the shard-0 LRU
  // (block 0), while the other shards stay empty and unaffected.
  for (uint64_t b = 0; b < 9; ++b) {
    ASSERT_OK(cached_.Read(b * 4 * 64, buf));
  }
  EXPECT_EQ(cached_.shard_stats(0).evictions, 1u);
  EXPECT_EQ(cached_.shard_cached_blocks(0), 8u);
  for (size_t shard = 1; shard < cached_.num_shards(); ++shard) {
    EXPECT_EQ(cached_.shard_cached_blocks(shard), 0u);
  }
  const uint64_t misses_before = cached_.stats().misses;
  ASSERT_OK(cached_.Read(8 * 4 * 64, buf));  // newest: still cached
  EXPECT_EQ(cached_.stats().misses, misses_before);
  ASSERT_OK(cached_.Read(0, buf));  // evicted LRU: misses again
  EXPECT_EQ(cached_.stats().misses, misses_before + 1);
}

TEST_F(ShardedCachedDeviceTest, ReadsSpanningBlocks) {
  std::string long_data(200, 'x');
  for (size_t i = 0; i < long_data.size(); ++i) {
    long_data[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_OK(cached_.Write(30, Bytes(long_data)));
  std::vector<std::byte> out(200);
  ASSERT_OK(cached_.Read(30, out));
  EXPECT_EQ(AsString(out), long_data);
}

// One shard: a single LRU over the whole capacity.
class ShardedCachedDeviceOneShardTest : public ::testing::Test {
 protected:
  ShardedCachedDeviceOneShardTest()
      : memory_(1 << 20),
        cached_(&memory_, /*capacity_blocks=*/4, /*block_size=*/64,
                /*num_shards=*/1) {}

  MemoryDevice memory_;
  ShardedCachedDevice cached_;
};

TEST_F(ShardedCachedDeviceOneShardTest, LruEviction) {
  std::vector<std::byte> buf(1);
  // Touch 5 distinct blocks with a 4-block cache: one eviction.
  for (uint64_t b = 0; b < 5; ++b) {
    ASSERT_OK(cached_.Read(b * 64, buf));
  }
  EXPECT_EQ(cached_.stats().evictions, 1u);
  EXPECT_EQ(cached_.cached_blocks(), 4u);
  // Block 0 (LRU) was evicted: re-reading it misses; block 4 still hits.
  const uint64_t misses_before = cached_.stats().misses;
  ASSERT_OK(cached_.Read(4 * 64, buf));
  EXPECT_EQ(cached_.stats().misses, misses_before);
  ASSERT_OK(cached_.Read(0, buf));
  EXPECT_EQ(cached_.stats().misses, misses_before + 1);
}

TEST_F(ShardedCachedDeviceOneShardTest, LruOrderUpdatedOnHit) {
  std::vector<std::byte> buf(1);
  for (uint64_t b = 0; b < 4; ++b) ASSERT_OK(cached_.Read(b * 64, buf));
  // Touch block 0 so block 1 becomes LRU, then overflow.
  ASSERT_OK(cached_.Read(0, buf));
  ASSERT_OK(cached_.Read(4 * 64, buf));  // evicts block 1
  const uint64_t misses_before = cached_.stats().misses;
  ASSERT_OK(cached_.Read(0, buf));  // still cached
  EXPECT_EQ(cached_.stats().misses, misses_before);
  ASSERT_OK(cached_.Read(1 * 64, buf));  // was evicted
  EXPECT_EQ(cached_.stats().misses, misses_before + 1);
}

TEST_F(ShardedCachedDeviceTest, WriteThroughUpdatesCachedBlocks) {
  ASSERT_OK(cached_.Write(0, Bytes("aaaa")));
  std::vector<std::byte> out(4);
  ASSERT_OK(cached_.Read(0, out));  // block cached
  ASSERT_OK(cached_.Write(1, Bytes("bb")));
  ASSERT_OK(cached_.Read(0, out));  // served from cache
  EXPECT_EQ(AsString(out), "abba");
  std::vector<std::byte> direct(4);
  ASSERT_OK(memory_.Read(0, direct));
  EXPECT_EQ(AsString(direct), "abba");
}

TEST_F(ShardedCachedDeviceTest, InvalidateDropsBlocksKeepsStats) {
  std::vector<std::byte> buf(1);
  ASSERT_OK(cached_.Read(0, buf));
  const CacheStats before = cached_.stats();
  cached_.Invalidate();
  EXPECT_EQ(cached_.cached_blocks(), 0u);
  EXPECT_EQ(cached_.stats().misses, before.misses);
  ASSERT_OK(cached_.Read(0, buf));
  EXPECT_EQ(cached_.stats().misses, before.misses + 1);
}

TEST_F(ShardedCachedDeviceTest, OutOfRangeRejected) {
  std::vector<std::byte> buf(16);
  EXPECT_TRUE(cached_.Read((1 << 20) - 8, buf).IsOutOfRange());
}

TEST_F(ShardedCachedDeviceTest, ReadBatchMatchesIndividualReads) {
  Rng rng(7);
  std::vector<std::byte> data(4096);
  for (std::byte& b : data) b = static_cast<std::byte>(rng.Uniform(256));
  ASSERT_OK(cached_.Write(0, data));
  const std::vector<Extent> extents = {
      {0, 100}, {100, 28}, {500, 64}, {4000, 96}};
  std::vector<std::byte> batched(100 + 28 + 64 + 96);
  ASSERT_OK(cached_.ReadBatch(extents, batched));
  size_t at = 0;
  for (const Extent& e : extents) {
    std::vector<std::byte> single(static_cast<size_t>(e.length));
    ASSERT_OK(cached_.Read(e.offset, single));
    EXPECT_EQ(0, std::memcmp(single.data(), batched.data() + at,
                             single.size()));
    at += static_cast<size_t>(e.length);
  }
}

TEST_F(ShardedCachedDeviceTest, ConcurrentReadersMatchPlainDevice) {
  // Hammer the same device through the cache from 8 threads and verify every
  // byte against an identical plain MemoryDevice. Reads hit a small Zipfian
  // hot set so hits, misses, and evictions all occur concurrently
  // (capacity 32 blocks, working set 256 blocks of 64 bytes).
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 4000;
  constexpr uint64_t kBlocks = 256;
  MemoryDevice plain(1 << 20);
  Rng seed_rng(42);
  std::vector<std::byte> data(kBlocks * 64);
  for (std::byte& b : data) {
    b = static_cast<std::byte>(seed_rng.Uniform(256));
  }
  ASSERT_OK(cached_.Write(0, data));
  ASSERT_OK(plain.Write(0, data));

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(1000 + static_cast<uint64_t>(t));
      ZipfDistribution zipf(kBlocks, 1.1);
      std::vector<std::byte> from_cache(64), from_plain(64);
      for (int i = 0; i < kReadsPerThread; ++i) {
        const uint64_t block = zipf.Sample(rng);
        const uint64_t within = rng.Uniform(32);
        const size_t length = 1 + static_cast<size_t>(rng.Uniform(32));
        const uint64_t offset = block * 64 + within;
        if (!cached_.Read(offset,
                          std::span<std::byte>(from_cache.data(), length))
                 .ok() ||
            !plain.Read(offset,
                        std::span<std::byte>(from_plain.data(), length))
                 .ok()) {
          ++failures;
          continue;
        }
        if (std::memcmp(from_cache.data(), from_plain.data(), length) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cached_.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kReadsPerThread)
      << "every read is exactly one block access at <=32 bytes per read";
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u) << "working set exceeds cache capacity";
}

TEST_F(ShardedCachedDeviceTest, WriteThroughVisibleToConcurrentReaders) {
  // A single writer fills one 64-byte block per slot and publishes its
  // progress — the shadow-update discipline WaveService relies on: readers
  // only touch slots already published (so their byte ranges never overlap
  // the write in flight), and every published slot must read back as exactly
  // the written fill, whether served from the cache or (after an eviction)
  // re-loaded from the inner device.
  constexpr uint64_t kSlot = 64;    // = block size: slots never share blocks
  constexpr uint64_t kSlots = 512;  // 16x the 32-block cache capacity
  std::atomic<uint64_t> published{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(77 + static_cast<uint64_t>(t));
      std::vector<std::byte> out(kSlot);
      while (true) {
        const uint64_t limit = published.load(std::memory_order_acquire);
        if (limit == 0) continue;
        if (limit > kSlots) break;
        const uint64_t slot = rng.Uniform(limit);
        if (!cached_.Read(slot * kSlot, out).ok()) {
          ++wrong;
          break;
        }
        const std::string expected(kSlot, static_cast<char>('A' + slot % 26));
        if (AsString(out) != expected) {
          ++wrong;
        }
      }
    });
  }
  for (uint64_t s = 0; s < kSlots; ++s) {
    const std::string fill(kSlot, static_cast<char>('A' + s % 26));
    ASSERT_OK(cached_.Write(s * kSlot, Bytes(fill)));
    published.store(s + 1, std::memory_order_release);
  }
  published.store(kSlots + 1, std::memory_order_release);  // stop signal
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0)
      << "published writes must be visible through the cache";
  for (uint64_t s = 0; s < kSlots; ++s) {
    std::vector<std::byte> out(kSlot);
    ASSERT_OK(memory_.Read(s * kSlot, out));  // write-through hit the device
    EXPECT_EQ(AsString(out),
              std::string(kSlot, static_cast<char>('A' + s % 26)));
  }
}

// --- Verified-residency tracking (ReadBatchTracked / MarkVerified) ---------

// One block-aligned extent over blocks 0..3. Reads return true data
// throughout; only the trust reporting changes across passes.
TEST_F(ShardedCachedDeviceTest, VerifiedResidencyPromotesOnSecondPass) {
  std::vector<std::byte> data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  ASSERT_OK(cached_.Write(0, data));
  cached_.Invalidate();  // the write-through patch must not count as a fill
  const std::vector<Extent> extents = {{0, 256}};
  std::vector<std::byte> out(256);
  bool trusted = true;
  uint64_t token = 0;

  // Pass 1: all misses. The batch is untrusted, and MarkVerified with its
  // token promotes nothing — this call's own fills carry generations >= the
  // token, so freshly loaded medium bytes cannot self-certify.
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_FALSE(trusted);
  EXPECT_EQ(out, data);
  cached_.MarkVerified(extents, token);
  trusted = true;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_FALSE(trusted) << "own fills must not be promoted by pass 1";

  // Pass 2 hit every block while it was already resident, so ITS MarkVerified
  // promotes; pass 3 is served wholly from trusted bytes.
  cached_.MarkVerified(extents, token);
  trusted = false;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_TRUE(trusted);
  EXPECT_EQ(out, data);
}

TEST_F(ShardedCachedDeviceTest, VerifiedResidencyTrustsOnlyVerifiedBytes) {
  std::vector<std::byte> data(128);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(255 - i);
  }
  ASSERT_OK(cached_.Write(0, data));
  cached_.Invalidate();
  // Verify (twice, to promote) only bytes [10, 30) of block 0.
  const std::vector<Extent> verified = {{10, 20}};
  std::vector<std::byte> out(20);
  bool trusted = false;
  uint64_t token = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(cached_.ReadBatchTracked(verified, out, &trusted, &token));
    cached_.MarkVerified(verified, token);
  }
  ASSERT_OK(cached_.ReadBatchTracked(verified, out, &trusted, &token));
  EXPECT_TRUE(trusted);

  // Any read reaching outside [10, 30) is untrusted: those neighbour bytes
  // were resident but never checksummed.
  const std::vector<Extent> wider = {{5, 20}};
  trusted = true;
  ASSERT_OK(cached_.ReadBatchTracked(
      wider, std::span<std::byte>(out.data(), 20), &trusted, &token));
  EXPECT_FALSE(trusted);

  // An adjacent verified run merges: after [30, 64) is promoted too, the
  // whole of [10, 64) is trusted — the edge-block case of two coalesced
  // bucket runs meeting inside one cache block.
  const std::vector<Extent> adjacent = {{30, 34}};
  std::vector<std::byte> out2(34);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(cached_.ReadBatchTracked(adjacent, out2, &trusted, &token));
    cached_.MarkVerified(adjacent, token);
  }
  const std::vector<Extent> merged = {{10, 54}};
  std::vector<std::byte> out3(54);
  trusted = false;
  ASSERT_OK(cached_.ReadBatchTracked(merged, out3, &trusted, &token));
  EXPECT_TRUE(trusted);
  for (size_t i = 0; i < out3.size(); ++i) {
    EXPECT_EQ(out3[i], data[10 + i]);
  }
}

TEST_F(ShardedCachedDeviceTest, VerifiedResidencyStaleTokenNeverPromotes) {
  std::vector<std::byte> data(64, std::byte{7});
  ASSERT_OK(cached_.Write(0, data));
  cached_.Invalidate();
  const std::vector<Extent> extents = {{0, 64}};
  std::vector<std::byte> out(64);
  bool trusted = false;
  uint64_t stale_token = 0;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &stale_token));
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &stale_token));
  // The block is dropped and refilled AFTER the stale token was issued (a
  // concurrent eviction + refill): the old verification no longer describes
  // the resident bytes, so the stale promotion must be refused.
  cached_.Invalidate();
  uint64_t token = 0;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  cached_.MarkVerified(extents, stale_token);
  trusted = true;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_FALSE(trusted);
}

TEST_F(ShardedCachedDeviceTest, VerifiedResidencyEvictionDropsTrust) {
  std::vector<std::byte> data(64, std::byte{3});
  ASSERT_OK(cached_.Write(0, data));
  cached_.Invalidate();
  const std::vector<Extent> extents = {{0, 64}};
  std::vector<std::byte> out(64);
  bool trusted = false;
  uint64_t token = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
    cached_.MarkVerified(extents, token);
  }
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  ASSERT_TRUE(trusted);
  // Push block 0 out of its shard (shard 0 holds blocks {0, 4, 8, ...},
  // per-shard capacity 32/4 = 8): the refilled block starts untrusted.
  std::vector<std::byte> buf(1);
  for (uint64_t b = 1; b <= 8; ++b) {
    ASSERT_OK(cached_.Read(b * 4 * 64, buf));
  }
  trusted = true;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_FALSE(trusted) << "trust must not survive eviction + refill";
}

TEST_F(ShardedCachedDeviceTest, VerifiedResidencySurvivesWriteThrough) {
  std::vector<std::byte> data(64, std::byte{9});
  ASSERT_OK(cached_.Write(0, data));
  cached_.Invalidate();
  const std::vector<Extent> extents = {{0, 64}};
  std::vector<std::byte> out(64);
  bool trusted = false;
  uint64_t token = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
    cached_.MarkVerified(extents, token);
  }
  // A successful write-through patches the cached block with the writer's
  // own (authoritative) bytes; the block stays trusted and serves them.
  ASSERT_OK(cached_.Write(8, Bytes("fresh")));
  trusted = false;
  ASSERT_OK(cached_.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_TRUE(trusted);
  EXPECT_EQ(AsString(std::vector<std::byte>(out.begin() + 8,
                                            out.begin() + 13)),
            "fresh");
}

TEST_F(ShardedCachedDeviceTest, VerifiedResidencyFailedWriteDropsBlock) {
  FaultInjectingDevice::Options fault_options;
  MemoryDevice memory(1 << 20);
  FaultInjectingDevice faulty(&memory, fault_options);
  ShardedCachedDevice cached(&faulty, /*capacity_blocks=*/32,
                             /*block_size=*/64, /*num_shards=*/4);
  std::vector<std::byte> data(64, std::byte{5});
  ASSERT_OK(cached.Write(0, data));
  cached.Invalidate();
  const std::vector<Extent> extents = {{0, 64}};
  std::vector<std::byte> out(64);
  bool trusted = false;
  uint64_t token = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK(cached.ReadBatchTracked(extents, out, &trusted, &token));
    cached.MarkVerified(extents, token);
  }
  ASSERT_OK(cached.ReadBatchTracked(extents, out, &trusted, &token));
  ASSERT_TRUE(trusted);
  // A failed write leaves the device bytes unknown (possibly torn): the
  // block is evicted, and the refilled copy must re-earn trust.
  faulty.set_write_error_rate(1.0);
  EXPECT_FALSE(cached.Write(0, data).ok());
  faulty.set_write_error_rate(0.0);
  trusted = true;
  ASSERT_OK(cached.ReadBatchTracked(extents, out, &trusted, &token));
  EXPECT_FALSE(trusted);
}

TEST_F(ShardedCachedDeviceTest, RandomizedEquivalenceWithUncachedDevice) {
  MemoryDevice plain(1 << 16);
  Rng rng(12345);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t offset = rng.Uniform((1 << 16) - 128);
    const size_t length = 1 + rng.Uniform(127);
    if (rng.Bernoulli(0.4)) {
      std::vector<std::byte> data(length);
      for (std::byte& b : data) b = static_cast<std::byte>(rng.Uniform(256));
      ASSERT_OK(cached_.Write(offset, data));
      ASSERT_OK(plain.Write(offset, data));
    } else {
      std::vector<std::byte> from_cache(length), from_plain(length);
      ASSERT_OK(cached_.Read(offset, from_cache));
      ASSERT_OK(plain.Read(offset, from_plain));
      ASSERT_EQ(from_cache, from_plain) << "step " << step;
    }
  }
  EXPECT_GT(cached_.stats().HitRatio(), 0.0);
}

}  // namespace
}  // namespace wavekit
