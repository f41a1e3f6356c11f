// The benchmark's workloads and the runner that drives one of them.
//
// One client thread runs whole maintenance cycles ("rounds") of the
// workload's scheme: each day is one AdvanceDay followed by that day's
// probes and scans. Every round makes the same timed calls in the same
// order; wall-clock metrics are computed from each call's low quantile over
// the rounds, which host-wide slow stretches of several seconds do not move.
// Counted metrics (stored bytes, modeled seconds) come from a fixed set of
// rounds and repeat exactly for a seed.

#ifndef WAVEBENCH_RUNNER_H_
#define WAVEBENCH_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "index/codec.h"
#include "wave/scheme.h"

namespace wavebench {

struct WorkloadSpec {
  std::string name;
  /// TPC-D LINEITEM rows keyed on SUPPKEY; otherwise Netnews articles.
  bool tpcd = false;
  /// Every request goes through serve::ServerCore::Ingest as wire frames.
  bool served = false;
  wavekit::SchemeKind scheme = wavekit::SchemeKind::kWata;
  wavekit::UpdateTechniqueKind technique =
      wavekit::UpdateTechniqueKind::kSimpleShadow;
  wavekit::CodecMode codec = wavekit::CodecMode::kRaw;
  int window = 7;
  int num_indexes = 1;
  std::string backend = "memory";
  size_t cache_blocks = 0;
  /// Articles (Netnews) or rows (TPC-D) per day.
  uint64_t records_per_day = 0;
  /// Netnews vocabulary, or the SUPPKEY universe.
  uint64_t universe = 0;
  uint32_t words_per_article = 40;
  int probes_per_day = 0;
  int scans_per_day = 0;
  /// Scans cover the whole hard window (Q1); otherwise the newest day.
  bool scan_whole_window = false;
  /// Days per round: one whole maintenance cycle of the scheme.
  int round_days = 1;
  /// Rounds run before any is measured: the cache fills and the scheme's
  /// constituents reach their steady sizes and placement.
  int warmup_rounds = 1;
};

/// The named workload at full size, or shrunk for the smoke pass and the
/// self-test. Aborts on an unknown name (the caller validates first).
WorkloadSpec LookupWorkload(const std::string& name, bool small);
const std::vector<std::string>& WorkloadNames();

/// A fault planted into what the runner observes, to show that the check
/// watching it fails.
enum class Plant {
  kNone,
  kDropEntry,     // one entry dropped from a probe reply
  kScanOffByOne,  // one scan's count on one day off by one
  kCoverage,      // the oldest window day missing from the wave
  kTheorem2,      // a WATA wave longer than Theorem 2 allows
  kCodecSize,     // compressed buckets larger than raw
  kIoCount,       // the two device byte counts disagree
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int query_threads = 1;
  Plant plant = Plant::kNone;
  /// Where traced tables and the file backend's device file go.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed checks by name, with the first few messages.
  std::map<std::string, uint64_t> check_failures;
  std::vector<std::string> messages;
  int rounds = 0;
  /// Per measured round: probe rate, scan entry rate, advance ms, day ms,
  /// probe p50 and p99 us, each of that round alone.
  std::vector<std::vector<double>> series;
  std::vector<Metric> end_to_end;
  /// Filled in traced runs only.
  std::vector<Metric> per_layer;
};

/// Runs `spec` once. `process_start` is taken on entry to main(): setup_s
/// spans from there to the end of the first-window build.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                      std::chrono::steady_clock::time_point process_start);

}  // namespace wavebench

#endif  // WAVEBENCH_RUNNER_H_
