// Micro-benchmarks of the in-memory hash directory.

#include <benchmark/benchmark.h>

#include "index/directory.h"
#include "util/random.h"

namespace wavekit {
namespace {

std::vector<Value> Keys(size_t count) {
  std::vector<Value> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("key" + std::to_string(i * 2654435761u % 1000000007u));
  }
  return keys;
}

void BM_DirectoryInsert(benchmark::State& state) {
  const std::vector<Value> keys = Keys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Directory dir;
    for (const Value& key : keys) {
      dir.Insert(key, BucketInfo{}).Abort("insert");
    }
    benchmark::DoNotOptimize(dir.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_DirectoryInsert)->Arg(1000)->Arg(50000);

void BM_DirectoryFind(benchmark::State& state) {
  const std::vector<Value> keys = Keys(20000);
  Directory dir;
  for (const Value& key : keys) dir.Insert(key, BucketInfo{}).Abort("insert");
  Rng rng(3);
  for (auto _ : state) {
    const Value& key = keys[rng.Uniform(keys.size())];
    benchmark::DoNotOptimize(dir.Find(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryFind);

void BM_DirectoryIterate(benchmark::State& state) {
  const std::vector<Value> keys = Keys(20000);
  Directory dir;
  for (const Value& key : keys) dir.Insert(key, BucketInfo{}).Abort("insert");
  for (auto _ : state) {
    size_t visited = 0;
    dir.ForEach([&visited](const Value&, const BucketInfo&) { ++visited; });
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(static_cast<int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_DirectoryIterate);

}  // namespace
}  // namespace wavekit

BENCHMARK_MAIN();
