// Ablation: an LRU bucket cache under the paper's two value distributions.
//
// The paper's workloads differ exactly where caching matters: Netnews words
// are Zipfian ("skewed Zipfian behavior"), TPC-D SUPPKEYs are uniform. A
// small cache absorbs most Zipfian probe traffic (hot buckets stay
// resident) but does little for uniform keys until it approaches the index
// size — quantifying the memory-caching effect the paper invokes
// qualitatively in Sections 2.1 and 6.

#include "bench/common.h"

#include "index/index_builder.h"
#include "storage/sharded_cached_device.h"
#include "wave/checkpoint.h"
#include "workload/netnews.h"
#include "workload/tpcd.h"

namespace wavekit {
namespace bench {
namespace {

struct CacheRun {
  double hit_ratio = 0;
  double modeled_seconds_per_probe = 0;
};

// Builds a 7-day packed index behind a cache of `cache_fraction` of the
// index's blocks, runs 4000 distribution-sampled probes, and reports the
// hit ratio and modeled (true-disk-traffic) cost per probe.
template <typename Generator, typename Sampler>
CacheRun RunProbes(Generator& gen, Sampler sample_value,
                   double cache_fraction) {
  MemoryDevice memory(uint64_t{1} << 28);
  MeteredDevice metered(&memory);
  ExtentAllocator allocator(uint64_t{1} << 28);

  std::vector<DayBatch> batches;
  for (Day d = 1; d <= 7; ++d) batches.push_back(gen.GenerateDay(d));
  std::vector<const DayBatch*> ptrs;
  for (const DayBatch& b : batches) ptrs.push_back(&b);
  // Build THROUGH the meter (uncached: builds are one-shot sequential).
  auto built =
      IndexBuilder::BuildPacked(&metered, &allocator, {}, ptrs, "I");
  if (!built.ok()) built.status().Abort("build");
  std::unique_ptr<ConstituentIndex> index = std::move(built).ValueOrDie();

  const uint64_t kBlock = 4096;
  const size_t index_blocks =
      static_cast<size_t>(index->allocated_bytes() / kBlock + 1);
  const size_t cache_blocks = std::max<size_t>(
      static_cast<size_t>(cache_fraction * static_cast<double>(index_blocks)),
      1);
  ShardedCachedDevice cached(&metered, cache_blocks, kBlock, /*num_shards=*/1);

  // Probe through the cache. ConstituentIndex binds its device at
  // construction, so reopen a read view of the same buckets behind the
  // cache via the checkpoint machinery (its own allocator keeps extent
  // ownership disjoint).
  WaveIndex original;
  original.AddIndex(std::move(index));
  auto checkpoint = SerializeCheckpoint(original);
  if (!checkpoint.ok()) checkpoint.status().Abort("serialize");
  ExtentAllocator view_allocator(uint64_t{1} << 28);
  auto view = DeserializeCheckpoint(checkpoint.ValueOrDie(), &cached,
                                    &view_allocator, {});
  if (!view.ok()) view.status().Abort("reopen behind cache");

  metered.Reset();
  Rng rng(99);
  std::vector<Entry> out;
  const int kProbes = 4000;
  for (int i = 0; i < kProbes; ++i) {
    out.clear();
    view.ValueOrDie().IndexProbe(sample_value(rng), &out).Abort("probe");
  }
  CacheRun run;
  run.hit_ratio = cached.stats().HitRatio();
  run.modeled_seconds_per_probe =
      CostModel::Paper().Seconds(metered.total()) / kProbes;
  return run;
}

int Run() {
  Banner("Ablation: LRU bucket cache vs value distribution",
         "Zipfian Netnews probes concentrate on hot buckets — a small cache "
         "absorbs most disk traffic; uniform TPC-D keys defeat small caches "
         "(the memory-caching effect of Sections 2.1/6, quantified).");

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = 400;
  netnews_config.words_per_article = 25;
  netnews_config.vocabulary_size = 20000;
  workload::NetnewsGenerator netnews(netnews_config);
  auto netnews_sampler = [&netnews](Rng& rng) {
    return netnews.SampleWord(rng);
  };

  workload::TpcdConfig tpcd_config;
  tpcd_config.rows_per_day = 10000;
  tpcd_config.num_suppliers = 2000;
  workload::TpcdGenerator tpcd(tpcd_config);
  auto tpcd_sampler = [&tpcd](Rng& rng) { return tpcd.SampleSuppkey(rng); };

  const std::vector<double> fractions = {0.01, 0.05, 0.20, 0.60, 1.10};
  sim::TablePrinter table({"cache size (frac of index)", "zipf hit ratio",
                           "zipf s/probe", "uniform hit ratio",
                           "uniform s/probe"});
  std::map<double, CacheRun> zipf, uniform;
  for (double fraction : fractions) {
    zipf[fraction] = RunProbes(netnews, netnews_sampler, fraction);
    uniform[fraction] = RunProbes(tpcd, tpcd_sampler, fraction);
    table.AddRow({Fmt(fraction, 2), Fmt(zipf[fraction].hit_ratio, 3),
                  FormatSeconds(zipf[fraction].modeled_seconds_per_probe),
                  Fmt(uniform[fraction].hit_ratio, 3),
                  FormatSeconds(uniform[fraction].modeled_seconds_per_probe)});
  }
  table.Print(std::cout);

  ShapeChecks checks;
  // Zipf probe TRAFFIC is extremely concentrated (traffic share of bucket k
  // scales with p_k^2), but the hot buckets are themselves large, so an LRU
  // only starts winning once whole hot buckets fit — at a 20% cache the
  // Zipfian hit ratio pulls far ahead of the uniform one, which can only
  // ever hit in proportion to the cache size.
  checks.Check(zipf[0.20].hit_ratio > 2 * uniform[0.20].hit_ratio,
               "at a 20% cache, Zipfian probes hit >2x as often as uniform "
               "ones (hot buckets resident)");
  checks.Check(uniform[0.20].hit_ratio < 0.3,
               "uniform keys hit roughly in proportion to the cache size");
  checks.Check(zipf[0.01].hit_ratio < 0.05,
               "a cache smaller than the hottest bucket thrashes (classic "
               "LRU scan pathology) — caching needs the hot SET to fit");
  bool zipf_monotone = true;
  for (size_t i = 1; i < fractions.size(); ++i) {
    zipf_monotone &= zipf[fractions[i]].modeled_seconds_per_probe <=
                     zipf[fractions[i - 1]].modeled_seconds_per_probe * 1.02;
  }
  checks.Check(zipf_monotone, "probe cost falls as the cache grows");
  checks.Check(uniform[1.10].hit_ratio > 0.9,
               "a cache larger than the index absorbs (almost) everything, "
               "whatever the distribution");
  checks.Check(zipf[0.60].modeled_seconds_per_probe <
                   uniform[0.60].modeled_seconds_per_probe,
               "given the same generous cache, the Zipfian workload pays "
               "less disk traffic — the paper's memory-caching effect");
  return checks.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace wavekit

int main() { return wavekit::bench::Run(); }
