// Soak tests: long runs with randomly varying daily volumes (the extended
// paper's non-uniform data-size regime), random query spot checks against a
// brute-force reference, for every scheme under both shadow techniques.

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/test_env.h"
#include "util/random.h"
#include "wave/scheme_factory.h"

namespace wavekit {
namespace {

using testing::ReferenceIndex;

// A batch whose size and value mix vary with the day (driven by `rng`).
DayBatch VaryingBatch(Day day, Rng& rng) {
  DayBatch batch;
  batch.day = day;
  const uint64_t records = rng.Uniform(18);  // 0..17 — includes EMPTY days
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (uint64_t r = 0; r < records; ++r) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    const int values = 1 + static_cast<int>(rng.Uniform(3));
    for (int v = 0; v < values; ++v) {
      record.values.push_back("k" + std::to_string(rng.Uniform(25)));
    }
    batch.records.push_back(std::move(record));
  }
  return batch;
}

using SoakParam = std::tuple<SchemeKind, UpdateTechniqueKind>;

class SchemeSoakTest : public ::testing::TestWithParam<SoakParam> {};

TEST_P(SchemeSoakTest, LongRunWithVaryingVolumes) {
  const auto [kind, technique] = GetParam();
  const int window = 9;
  const int n = 3;
  Store store(uint64_t{1} << 26);
  DayStore day_store;
  SchemeConfig config;
  config.window = window;
  config.num_indexes = n;
  config.technique = technique;
  if (kind == SchemeKind::kKnownBoundWata) {
    config.size_bound_entries = 18 * 3 * window;  // generous true bound
  }
  auto made = MakeScheme(kind, SchemeEnv{store.device(), store.allocator(),
                                         &day_store},
                         config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();

  Rng rng(0xD00D ^ static_cast<uint64_t>(kind));
  std::map<Day, DayBatch> history;
  std::vector<DayBatch> first;
  for (Day d = 1; d <= window; ++d) {
    DayBatch batch = VaryingBatch(d, rng);
    history[d] = batch;
    first.push_back(std::move(batch));
  }
  ASSERT_OK(scheme->Start(std::move(first)));

  Rng query_rng(77);
  for (Day d = window + 1; d <= window + 120; ++d) {
    DayBatch batch = VaryingBatch(d, rng);
    history[d] = batch;
    ASSERT_OK(scheme->Transition(std::move(batch))) << "day " << d;

    if (d % 7 != 0) continue;  // spot-check weekly
    ReferenceIndex reference;
    for (const auto& [day, b] : history) {
      if (day > d - window && day <= d) reference.Add(b);
    }
    const DayRange range = DayRange::Window(d, window);
    for (int probe = 0; probe < 4; ++probe) {
      const Value value = "k" + std::to_string(query_rng.Uniform(25));
      std::vector<Entry> got;
      ASSERT_OK(scheme->wave().TimedIndexProbe(range, value, &got));
      ReferenceIndex::Sort(&got);
      ASSERT_EQ(got, reference.Probe(value, d - window + 1, d))
          << "value '" << value << "' at day " << d;
    }
    std::vector<Entry> scanned;
    ASSERT_OK(scheme->wave().TimedSegmentScan(
        range, [&](const Value&, const Entry& e) { scanned.push_back(e); }));
    ReferenceIndex::Sort(&scanned);
    ASSERT_EQ(scanned, reference.ScanAll(d - window + 1, d)) << "day " << d;
    for (const auto& c : scheme->wave().constituents()) {
      ASSERT_OK(c->CheckConsistency());
    }
    if (scheme->hard_window()) {
      ASSERT_EQ(scheme->WaveLength(), window);
    }
  }
}

TEST(FragmentationSoakTest, AllocatorFragmentationStaysBounded) {
  // 300 days of DEL with in-place updates is the worst fragmentation driver:
  // buckets grow, shrink and relocate daily in the same address space. The
  // free list must not degenerate (fragments bounded, big allocations keep
  // succeeding).
  Store store(uint64_t{1} << 26);
  DayStore day_store;
  SchemeConfig config;
  config.window = 9;
  config.num_indexes = 3;
  config.technique = UpdateTechniqueKind::kInPlace;
  auto made = MakeScheme(SchemeKind::kDel,
                         SchemeEnv{store.device(), store.allocator(),
                                   &day_store},
                         config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
  Rng rng(0xFACE);
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 9; ++d) first.push_back(VaryingBatch(d, rng));
  ASSERT_OK(scheme->Start(std::move(first)));
  size_t max_fragments = 0;
  for (Day d = 10; d <= 309; ++d) {
    ASSERT_OK(scheme->Transition(VaryingBatch(d, rng)));
    max_fragments = std::max(max_fragments,
                             store.allocator()->fragment_count());
    ASSERT_OK(store.allocator()->CheckConsistency());
  }
  // Fragments stay within a small multiple of the live bucket count, not
  // growing with the number of days processed.
  EXPECT_LT(max_fragments, 400u);
  // A large contiguous allocation still succeeds after 300 days of churn.
  auto big = store.allocator()->Allocate(uint64_t{1} << 22);
  ASSERT_TRUE(big.ok()) << big.status();
  ASSERT_OK(store.allocator()->Free(big.ValueOrDie()));
}

std::string SoakName(const ::testing::TestParamInfo<SoakParam>& info) {
  std::string name = SchemeKindName(std::get<0>(info.param));
  name += "_";
  name += UpdateTechniqueKindName(std::get<1>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSoakTest,
    ::testing::Combine(
        ::testing::Values(SchemeKind::kDel, SchemeKind::kReindex,
                          SchemeKind::kReindexPlus,
                          SchemeKind::kReindexPlusPlus, SchemeKind::kWata,
                          SchemeKind::kRata, SchemeKind::kKnownBoundWata),
        ::testing::Values(UpdateTechniqueKind::kSimpleShadow,
                          UpdateTechniqueKind::kPackedShadow)),
    SoakName);

}  // namespace
}  // namespace wavekit
