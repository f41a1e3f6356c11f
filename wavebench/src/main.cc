// wavebench: wall-clock benchmark of wavekit, end to end and per layer.
//
//   wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One run. The last line of stdout is the result JSON: end-to-end
//       metrics with --trace 0, per-layer metrics with --trace 1. Both modes
//       also write <out-dir>/<workload>.trace<0|1>.json.
//   wavebench --smoke       every workload at small size, untraced and traced
//   wavebench --self-test   plants one fault per check and shows it fails
//
// Other flags: --out-dir <dir> (default .bench_out), --query-threads <n>
// (WaveService::Options::num_query_threads; default 1).

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runner.h"

namespace wavebench {
namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

std::string ResultJson(const RunResult& r, bool trace) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(trace ? r.per_layer : r.end_to_end) +
         "}";
}

void PrintSummary(const std::string& workload, const RunResult& r) {
  std::printf("wavebench %s: %d measured rounds, %llu ops (%llu failed), %s\n",
              workload.c_str(), r.rounds,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "all checks passed" : "CHECKS FAILED");
  for (const auto& [check, count] : r.check_failures) {
    std::printf("  check %s failed %llu times\n", check.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const std::string& m : r.messages) std::printf("  %s\n", m.c_str());
  for (const Metric& m : r.end_to_end) {
    std::printf("  %-24s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.per_layer) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
}

void WriteRunFile(const RunOptions& options, const std::string& workload,
                  const RunResult& r) {
  std::filesystem::create_directories(options.out_dir);
  std::ofstream out(options.out_dir + "/" + workload + ".trace" +
                    (options.trace ? "1" : "0") + ".json");
  out << "{\"workload\": " << Quote(workload) << ", \"seed\": " << options.seed
      << ", \"rounds\": " << r.rounds
      << ", \"series_columns\": [\"probe_rate\", \"scan_entry_rate\", "
         "\"advance_ms\", \"day_ms\", \"probe_p50_us\", \"probe_p99_us\"]"
      << ", \"correct\": " << (r.correct ? "true" : "false")
      << ", \"end_to_end\": " << MetricsJson(r.end_to_end)
      << ", \"per_layer\": " << MetricsJson(r.per_layer)
      << ",\n \"rounds_series\": [";
  for (size_t i = 0; i < r.series.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "[";
    for (size_t j = 0; j < r.series[i].size(); ++j) {
      out << (j == 0 ? "" : ", ") << Number(r.series[i][j]);
    }
    out << "]";
  }
  out << "]}\n";
}

int Smoke(const RunOptions& base, std::chrono::steady_clock::time_point t0) {
  int failures = 0;
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      RunOptions options = base;
      options.seconds = 1;
      options.trace = trace;
      const RunResult r =
          RunWorkload(LookupWorkload(name, true), options, t0);
      PrintSummary(name + (trace ? " (traced)" : ""), r);
      if (!r.correct || r.failed != 0) ++failures;
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int SelfTest(const RunOptions& base, std::chrono::steady_clock::time_point t0) {
  struct Case {
    const char* workload;
    Plant plant;
    const char* check;  // nullptr: the clean run must pass every check
  };
  const Case cases[] = {
      {"scam_probe", Plant::kNone, nullptr},
      {"scam_serve", Plant::kNone, nullptr},
      {"tpcd_scan", Plant::kNone, nullptr},
      {"wse_maintain", Plant::kNone, nullptr},
      {"scam_probe", Plant::kDropEntry, "probe_answer"},
      {"scam_serve", Plant::kDropEntry, "probe_answer"},
      {"tpcd_scan", Plant::kScanOffByOne, "scan_conservation"},
      {"scam_serve", Plant::kScanOffByOne, "scan_conservation"},
      {"wse_maintain", Plant::kCoverage, "coverage"},
      {"scam_probe", Plant::kTheorem2, "theorem2"},
      {"tpcd_scan", Plant::kCodecSize, "codec_size"},
      {"wse_maintain", Plant::kIoCount, "io_count"},
  };
  int failures = 0;
  for (const Case& c : cases) {
    RunOptions options = base;
    options.seconds = 0;
    options.plant = c.plant;
    const RunResult r =
        RunWorkload(LookupWorkload(c.workload, true), options, t0);
    bool ok;
    if (c.check == nullptr) {
      ok = r.correct && r.failed == 0;
    } else {
      ok = !r.correct && r.check_failures.count(c.check) == 1;
    }
    std::printf("self-test %-12s plant=%-16s expect %-18s -> %s\n", c.workload,
                c.check == nullptr ? "none" : c.check,
                c.check == nullptr ? "pass" : c.check, ok ? "ok" : "WRONG");
    if (!ok) {
      ++failures;
      PrintSummary(c.workload, r);
    }
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "wavebench: %s\nusage: wavebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--query-threads <n>]\n       wavebench --smoke | "
               "--self-test\n",
               message);
  return 2;
}

}  // namespace
}  // namespace wavebench

int main(int argc, char** argv) {
  using namespace wavebench;
  const auto process_start = std::chrono::steady_clock::now();
  RunOptions options;
  std::string workload;
  bool smoke = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--query-threads" && has_value) {
      options.query_threads = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.query_threads < 1 || options.query_threads > 64) {
    return Usage("--query-threads must be in [1, 64]");
  }
  std::filesystem::create_directories(options.out_dir);
  if (smoke) return Smoke(options, process_start);
  if (self_test) return SelfTest(options, process_start);
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == workload;
  if (!known) return Usage(("unknown workload '" + workload + "'").c_str());

  const RunResult result = RunWorkload(LookupWorkload(workload, false),
                                       options, process_start);
  PrintSummary(workload, result);
  WriteRunFile(options, workload, result);
  std::printf("%s\n", ResultJson(result, options.trace).c_str());
  return 0;
}
