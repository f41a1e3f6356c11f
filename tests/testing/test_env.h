// Shared test fixtures and helpers.

#ifndef WAVEKIT_TESTS_TESTING_TEST_ENV_H_
#define WAVEKIT_TESTS_TESTING_TEST_ENV_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "index/record.h"
#include "storage/store.h"
#include "util/macros.h"
#include "util/day.h"
#include "util/status.h"
#include "wave/day_store.h"
#include "wave/scheme.h"

namespace wavekit {
namespace testing {

/// \brief Base seed of every randomized test in this binary: the
/// WAVEKIT_TEST_SEED environment variable when set, 1 otherwise. Seed loops
/// iterate TestSeed(0..k), so exporting WAVEKIT_TEST_SEED replays a failing
/// CI shard's exact seeds locally.
inline uint64_t TestSeedBase() {
  static const uint64_t base = [] {
    const char* env = std::getenv("WAVEKIT_TEST_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
    }
    return uint64_t{1};
  }();
  return base;
}

/// The seed of iteration `i` of a seed loop.
inline uint64_t TestSeed(uint64_t i) { return TestSeedBase() + i; }

namespace internal {

/// Prints the active base seed at the start of every test, so any failure in
/// CI logs carries the line needed to reproduce it locally.
class SeedLogger : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo& info) override {
    std::printf("[   SEED   ] %s.%s base seed %llu (set WAVEKIT_TEST_SEED "
                "to override)\n",
                info.test_suite_name(), info.name(),
                static_cast<unsigned long long>(TestSeedBase()));
  }
};

// Registered once per test binary (inline variable: one instance even when
// this header is included from several translation units). gtest takes
// ownership of the listener.
inline const bool kSeedLoggerRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new SeedLogger);
  return true;
}();

}  // namespace internal

inline ::testing::AssertionResult IsOkPredFormat(
    const char* expr_str, const ::wavekit::Status& status) {
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << expr_str << " returned " << status.ToString();
}

#define ASSERT_OK(expr) \
  ASSERT_PRED_FORMAT1(::wavekit::testing::IsOkPredFormat, (expr))

#define EXPECT_OK(expr) \
  EXPECT_PRED_FORMAT1(::wavekit::testing::IsOkPredFormat, (expr))

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                    \
  ASSERT_OK_AND_ASSIGN_IMPL(                                \
      WAVEKIT_CONCAT(_test_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(result_name, lhs, rexpr)  \
  auto result_name = (rexpr);                               \
  ASSERT_TRUE(result_name.ok()) << result_name.status();    \
  lhs = std::move(result_name).ValueOrDie()

/// \brief A deterministic day batch: `entries_per_value` entries for each of
/// `values`, with record ids derived from the day.
inline DayBatch MakeBatch(Day day, const std::vector<Value>& values,
                          int entries_per_value = 1) {
  DayBatch batch;
  batch.day = day;
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < entries_per_value; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    record.values = values;
    batch.records.push_back(std::move(record));
  }
  return batch;
}

/// \brief A simple batch with `num_records` records, each holding one value
/// drawn round-robin from a small alphabet plus one day-unique value.
inline DayBatch MakeMixedBatch(Day day, int num_records = 6) {
  static const char* kAlphabet[] = {"alpha", "beta", "gamma"};
  DayBatch batch;
  batch.day = day;
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < num_records; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    record.values = {kAlphabet[i % 3], "day" + std::to_string(day)};
    batch.records.push_back(std::move(record));
  }
  return batch;
}

/// \brief Brute-force reference: all (value, entry) pairs of the batches of
/// `days`, for comparing against index query results.
class ReferenceIndex {
 public:
  void Add(const DayBatch& batch) {
    for (const Record& record : batch.records) {
      for (size_t i = 0; i < record.values.size(); ++i) {
        entries_[record.values[i]].push_back(
            Entry{record.record_id, batch.day, record.AuxFor(i)});
      }
    }
  }

  /// Entries for `value` with day in [lo, hi], sorted for comparison.
  std::vector<Entry> Probe(const Value& value, Day lo, Day hi) const {
    std::vector<Entry> out;
    auto it = entries_.find(value);
    if (it == entries_.end()) return out;
    for (const Entry& e : it->second) {
      if (lo <= e.day && e.day <= hi) out.push_back(e);
    }
    Sort(&out);
    return out;
  }

  /// All entries with day in [lo, hi], sorted.
  std::vector<Entry> ScanAll(Day lo, Day hi) const {
    std::vector<Entry> out;
    for (const auto& [value, entries] : entries_) {
      for (const Entry& e : entries) {
        if (lo <= e.day && e.day <= hi) out.push_back(e);
      }
    }
    Sort(&out);
    return out;
  }

  static void Sort(std::vector<Entry>* entries) {
    std::sort(entries->begin(), entries->end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.record_id, a.day, a.aux) <
                       std::tie(b.record_id, b.day, b.aux);
              });
  }

 private:
  std::map<Value, std::vector<Entry>> entries_;
};

/// \brief Fixture bundling a Store and a DayStore.
class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : store_(uint64_t{1} << 30) {}

  SchemeEnv Env() {
    return SchemeEnv{store_.device(), store_.allocator(), &day_store_};
  }

  ConstituentIndex::Options Options() { return {}; }

  Store store_;
  DayStore day_store_;
};

}  // namespace testing
}  // namespace wavekit

#endif  // WAVEKIT_TESTS_TESTING_TEST_ENV_H_
