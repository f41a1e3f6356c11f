// Contract tests of the in-memory value -> bucket directory.

#include "index/directory.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

BucketInfo Info(uint64_t offset, uint32_t count) {
  return BucketInfo{Extent{offset, count * kEntrySize}, count, count};
}

class DirectoryTest : public ::testing::Test {
 protected:
  Directory dir_;
};

TEST_F(DirectoryTest, InsertFindRemove) {
  ASSERT_OK(dir_.Insert("apple", Info(0, 3)));
  ASSERT_OK(dir_.Insert("banana", Info(48, 5)));
  EXPECT_EQ(dir_.size(), 2u);

  BucketInfo* found = dir_.Find("apple");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 3u);
  EXPECT_EQ(dir_.Find("cherry"), nullptr);

  ASSERT_OK(dir_.Remove("apple"));
  EXPECT_EQ(dir_.Find("apple"), nullptr);
  EXPECT_EQ(dir_.size(), 1u);
}

TEST_F(DirectoryTest, DuplicateInsertFails) {
  ASSERT_OK(dir_.Insert("x", Info(0, 1)));
  EXPECT_TRUE(dir_.Insert("x", Info(16, 2)).IsAlreadyExists());
  EXPECT_EQ(dir_.Find("x")->count, 1u);  // original untouched
}

TEST_F(DirectoryTest, RemoveMissingFails) {
  EXPECT_TRUE(dir_.Remove("nope").IsNotFound());
}

TEST_F(DirectoryTest, FindReturnsMutableInfo) {
  ASSERT_OK(dir_.Insert("x", Info(0, 1)));
  dir_.Find("x")->count = 9;
  EXPECT_EQ(dir_.Find("x")->count, 9u);
}

TEST_F(DirectoryTest, ForEachVisitsAllExactlyOnce) {
  std::set<Value> inserted;
  for (int i = 0; i < 100; ++i) {
    Value v = "val" + std::to_string(i);
    ASSERT_OK(dir_.Insert(v, Info(i * 16, 1)));
    inserted.insert(v);
  }
  std::set<Value> visited;
  dir_.ForEach([&](const Value& v, const BucketInfo&) {
    EXPECT_TRUE(visited.insert(v).second) << "visited twice: " << v;
  });
  EXPECT_EQ(visited, inserted);
}

TEST_F(DirectoryTest, ResetDirectoryIsEmpty) {
  ASSERT_OK(dir_.Insert("x", Info(0, 1)));
  dir_ = Directory{};
  EXPECT_EQ(dir_.size(), 0u);
  EXPECT_EQ(dir_.Find("x"), nullptr);
  dir_.ForEach([](const Value& v, const BucketInfo&) {
    ADD_FAILURE() << "visited " << v;
  });
}

TEST_F(DirectoryTest, RandomizedAgainstStdMap) {
  Rng rng(7);
  std::map<Value, uint32_t> reference;
  for (int i = 0; i < 3000; ++i) {
    Value v = "v" + std::to_string(rng.Uniform(200));
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      Status s = dir_.Insert(v, Info(0, static_cast<uint32_t>(i + 1)));
      if (reference.contains(v)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else {
        EXPECT_OK(s);
        reference[v] = static_cast<uint32_t>(i + 1);
      }
    } else if (action == 1) {
      Status s = dir_.Remove(v);
      if (reference.contains(v)) {
        EXPECT_OK(s);
        reference.erase(v);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {
      const BucketInfo* info = dir_.Find(v);
      if (reference.contains(v)) {
        ASSERT_NE(info, nullptr);
        EXPECT_EQ(info->count, reference[v]);
      } else {
        EXPECT_EQ(info, nullptr);
      }
    }
    EXPECT_EQ(dir_.size(), reference.size());
  }
}

}  // namespace
}  // namespace wavekit
