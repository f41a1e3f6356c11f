#include "runner.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <utility>

#include "oracle.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "stats.h"
#include "storage/cost_model.h"
#include "timing_device.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"
#include "workload/tpcd.h"

namespace wavebench {
namespace {

using wavekit::Day;
using wavekit::DayBatch;
using wavekit::DayRange;
using wavekit::Entry;
using wavekit::Status;
using wavekit::Value;
using Clock = std::chrono::steady_clock;

constexpr uint16_t kTenant = 1;
// Counted metrics (stored bytes, modeled seconds) come from the first
// measured rounds spanning at least this many days, so they repeat exactly
// for a seed however long the run is.
constexpr int kCountedDays = 10;
// Every run measures at least this many rounds, even past --seconds.
constexpr int kMinMeasuredRounds = 5;
// Wall-clock metrics take, call by call, this quantile of each timed call's
// duration over the measured rounds. Hosts slow whole stretches of a run by
// up to half, which moves medians between runs; a call of a few microseconds
// finds fast moments that a whole round rarely does.
constexpr double kFastQuantile = 0.05;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

bool ParseFrame(const std::string& bytes, wavekit::serve::Frame* frame) {
  wavekit::serve::FrameReader reader;
  if (!reader.Feed(bytes.data(), bytes.size()).ok()) return false;
  return reader.Next(frame) && reader.buffered_bytes() == 0;
}

// One round's timed calls, in the order the round makes them. Every round
// makes the same calls in the same order, each on that round's data.
struct RoundSample {
  std::vector<double> advance_us;  // one per day
  std::vector<double> probe_us;    // probes_per_day per day
  std::vector<double> scan_us;     // scans_per_day per day
  std::vector<double> scan_entries;
};

// Call i's kFastQuantile over the rounds, for every call i of a round.
std::vector<double> PerCall(const std::vector<RoundSample>& rounds,
                            std::vector<double> RoundSample::*calls) {
  std::vector<double> out, column(rounds.size());
  if (rounds.empty()) return out;
  for (size_t i = 0; i < (rounds.front().*calls).size(); ++i) {
    for (size_t r = 0; r < rounds.size(); ++r) column[r] = (rounds[r].*calls)[i];
    out.push_back(Quantile(column, kFastQuantile));
  }
  return out;
}

// Per-layer samples of a traced run.
struct LayerSamples {
  std::vector<double> ingest_us, overhead_us, request_decode_us,
      reply_encode_us, reply_bytes, advance_decode_ms;
  std::vector<double> snapshot_us, service_probe_us, index_probe_us, merge_us,
      constituents, constituent_probe_us;
  double cscan_entries = 0, cscan_us = 0;
  double decode_ns = 0, decode_entries = 0, encode_ns = 0, encode_entries = 0;
  double crc_ns = 0, crc_bytes = 0;
  std::vector<double> compressed_share, compression_ratio;
  std::map<std::string, double> span_self_us;
};

// Counters over the timed sections only (advances, probes, scans), so the
// traced run's replays do not leak into them.
struct SectionCounters {
  uint64_t days = 0, probes = 0, queries = 0;
  uint64_t verified = 0, trusted = 0;
  IoTally query_io, advance_io;
  uint64_t cache_hits = 0, cache_misses = 0, probe_cache_misses = 0;
  uint64_t seeks = 0;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options) {}

  RunResult Run(Clock::time_point process_start);

 private:
  DayBatch Generate(Day day) {
    return spec_.tpcd ? tpcd_->GenerateDay(day) : netnews_->GenerateDay(day);
  }

  void Fail(const std::string& check, const std::string& message) {
    result_.correct = false;
    ++result_.check_failures[check];
    if (result_.messages.size() < 8) {
      result_.messages.push_back(check + ": " + message);
    }
  }

  // Counts one operation; a failed one is reported but not checked further.
  bool Op(const Status& status, const std::string& what) {
    ++result_.attempted;
    if (status.ok()) return true;
    ++result_.failed;
    if (result_.messages.size() < 8) {
      result_.messages.push_back("op " + what + ": " + status.ToString());
    }
    return false;
  }

  Status Setup();
  void RunDay(Day day, RoundSample* round);
  void Advance(DayBatch batch, RoundSample* round);
  void CheckWave(Day day);
  void CheckProbe(const DayRange& range, const Value& value,
                  std::vector<Entry>* entries, bool plant);
  void CheckScan(const DayRange& range, const std::vector<uint64_t>& counts,
                 const std::vector<uint64_t>& aux, uint64_t stray, bool plant);
  double StoredBytesPerEntry() const;
  void TraceAdvanceSpans();
  void TraceProbe(const DayRange& range, const Value& value);
  void TraceConstituentScan(const DayRange& range);
  void TraceBuckets();
  void Report(const std::vector<RoundSample>& rounds, double setup_s,
              double modeled_day_s, double stored_bytes_per_entry,
              double rss_mib);

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  RunResult result_;
  std::unique_ptr<wavekit::workload::NetnewsGenerator> netnews_;
  std::unique_ptr<wavekit::workload::TpcdGenerator> tpcd_;
  PostingModel model_;
  std::vector<Value> probe_values_;
  std::unique_ptr<wavekit::serve::ServerCore> core_;
  wavekit::serve::ServerCore::Session* session_ = nullptr;
  wavekit::WaveService* service_ = nullptr;
  TimingDevice* timing_ = nullptr;
  std::string device_path_;
  uint32_t request_id_ = 0;
  SectionCounters counters_;
  LayerSamples layers_;
  // The encoded ADVANCE frame of the current day (served or traced runs).
  std::string advance_frame_;
};

Status Runner::Setup() {
  wavekit::Rng rng(options_.seed * 0x2545F4914F6CDD1DULL + 17);
  if (spec_.tpcd) {
    wavekit::workload::TpcdConfig config;
    config.rows_per_day = spec_.records_per_day;
    config.num_suppliers = spec_.universe;
    config.seed = rng.Next();
    tpcd_ = std::make_unique<wavekit::workload::TpcdGenerator>(config);
  } else {
    wavekit::workload::NetnewsConfig config;
    config.articles_per_day = spec_.records_per_day;
    config.vocabulary_size = spec_.universe;
    config.words_per_article = spec_.words_per_article;
    config.seed = rng.Next();
    netnews_ = std::make_unique<wavekit::workload::NetnewsGenerator>(config);
  }
  // The fixed probe list: Zipf-popular words, or uniform SUPPKEYs, drawn by
  // stratified inversion (one draw per 1/P slice of the distribution) and
  // shuffled. Plain sampling lets the seed decide how many of the few very
  // popular words the list holds, which moves probe cost by tens of percent
  // between seeds; stratified lists cost the same on every seed.
  wavekit::Rng probe_rng = rng.Fork(1);
  std::vector<double> cdf(spec_.universe);
  double mass = 0;
  for (uint64_t k = 0; k < spec_.universe; ++k) {
    mass += spec_.tpcd ? 1.0
                       : std::pow(static_cast<double>(k + 1),
                                  -netnews_->config().zipf_theta);
    cdf[k] = mass;
  }
  const int probes = spec_.probes_per_day;
  for (int i = 0; i < probes; ++i) {
    const double u = (i + probe_rng.NextDouble()) / probes * mass;
    const uint64_t k = std::min<uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        spec_.universe - 1);
    probe_values_.push_back(spec_.tpcd ? tpcd_->SuppkeyFor(k)
                                       : netnews_->WordForRank(k));
  }
  for (size_t i = probe_values_.size(); i > 1; --i) {
    std::swap(probe_values_[i - 1], probe_values_[probe_rng.Uniform(i)]);
  }

  wavekit::WaveService::Options o;
  o.scheme = spec_.scheme;
  o.config.window = spec_.window;
  o.config.num_indexes = spec_.num_indexes;
  o.config.technique = spec_.technique;
  o.config.codec = spec_.codec;
  o.cache_blocks = spec_.cache_blocks;
  o.num_query_threads = options_.query_threads;
  o.num_maintenance_threads = 1;
  o.storage_backend = spec_.backend;
  if (spec_.backend != "memory") {
    device_path_ = options_.out_dir + "/" + spec_.name + ".dat";
    std::remove(device_path_.c_str());
    o.storage_path = device_path_;
  }
  o.trace_sample_rate = options_.trace ? 1.0 : 0.0;
  o.trace_ring_capacity = 4096;
  const bool timed = options_.trace;
  o.device_interposer = [this, timed](wavekit::Device* inner) {
    auto device = std::make_unique<TimingDevice>(inner, timed);
    timing_ = device.get();
    return std::unique_ptr<wavekit::Device>(std::move(device));
  };
  auto created = wavekit::WaveService::Create(std::move(o));
  if (!created.ok()) return created.status();
  core_ = std::make_unique<wavekit::serve::ServerCore>(
      wavekit::serve::ServerCore::Options{});
  Status added = core_->AddTenant(kTenant, std::move(created).ValueOrDie());
  if (!added.ok()) return added;
  service_ = core_->tenant(kTenant);
  auto session = core_->OpenSession();
  if (!session.ok()) return session.status();
  session_ = session.ValueOrDie();

  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= spec_.window; ++d) {
    first_window.push_back(Generate(d));
    model_.AddDay(first_window.back());
  }
  return service_->Start(std::move(first_window));
}

void Runner::Advance(DayBatch batch, RoundSample* round) {
  const Day day = batch.day;
  const bool encode = spec_.served || options_.trace;
  if (encode) {
    advance_frame_ = wavekit::serve::EncodeAdvanceRequest(
        kTenant, ++request_id_, wavekit::serve::AdvanceRequest{batch});
  }
  std::string out;
  Clock::time_point t0, t1;
  Status status;
  if (spec_.served) {
    t0 = Clock::now();
    status = core_->Ingest(session_, advance_frame_.data(),
                           advance_frame_.size(), &out);
    t1 = Clock::now();
    if (status.ok()) {
      wavekit::serve::Frame frame;
      wavekit::serve::AdvanceReply reply;
      if (!ParseFrame(out, &frame) ||
          !wavekit::serve::DecodeAdvanceReply(frame.payload, &reply).ok()) {
        status = Status::Internal("undecodable ADVANCE reply");
      } else if (!reply.result.ok()) {
        status = Status::Internal("ADVANCE failed: " + reply.result.detail);
      } else if (reply.current_day != day) {
        status = Status::Internal("ADVANCE reply names day " +
                                  std::to_string(reply.current_day));
      }
    }
  } else {
    t0 = Clock::now();
    status = service_->AdvanceDay(std::move(batch));
    t1 = Clock::now();
  }
  round->advance_us.push_back(Micros(t0, t1));
  Op(status, "advance to day " + std::to_string(day));
}

void Runner::CheckWave(Day day) {
  const int w = spec_.window;
  auto snapshot = service_->Snapshot();
  wavekit::TimeSet covered = snapshot->CoveredDays();
  if (options_.plant == Plant::kCoverage) covered.erase(day - w + 1);
  for (Day d = day - w + 1; d <= day; ++d) {
    if (covered.count(d) == 0) {
      Fail("coverage", "day " + std::to_string(d) + " missing after day " +
                           std::to_string(day));
      break;
    }
  }
  if (service_->scheme().hard_window() &&
      covered.size() != static_cast<size_t>(w)) {
    Fail("coverage", "hard-window wave covers " +
                         std::to_string(covered.size()) + " days");
  }
  if (spec_.scheme == wavekit::SchemeKind::kWata) {
    // Theorem 2: WATA's wave never holds more than W + ceil((W-1)/(n-1)) - 1
    // days.
    const int n = spec_.num_indexes;
    const int bound = w + (w - 1 + n - 2) / (n - 1) - 1;
    int total = snapshot->TotalDays();
    if (options_.plant == Plant::kTheorem2) total += w;
    if (total > bound) {
      Fail("theorem2", "wave holds " + std::to_string(total) +
                           " days, bound " + std::to_string(bound));
    }
  }
  const auto codec = service_->CodecTotals();
  uint64_t stored = codec.stored_bytes;
  if (options_.plant == Plant::kCodecSize) {
    stored = codec.uncompressed_bytes + 1;
  }
  if (stored > codec.uncompressed_bytes) {
    Fail("codec_size", std::to_string(stored) + " stored bytes > " +
                           std::to_string(codec.uncompressed_bytes) + " raw");
  }
  const IoTally io = timing_->tally();
  const wavekit::IoCounters meter = service_->device()->total();
  uint64_t read_bytes = io.read_bytes;
  if (options_.plant == Plant::kIoCount) ++read_bytes;
  if (read_bytes != meter.bytes_read || io.write_bytes != meter.bytes_written) {
    Fail("io_count", "interposer read/wrote " + std::to_string(read_bytes) +
                         "/" + std::to_string(io.write_bytes) +
                         " bytes, meter " + std::to_string(meter.bytes_read) +
                         "/" + std::to_string(meter.bytes_written));
  }
}

void Runner::CheckProbe(const DayRange& range, const Value& value,
                        std::vector<Entry>* entries, bool plant) {
  if (plant && !entries->empty()) entries->pop_back();
  PostingSum got;
  for (const Entry& e : *entries) got.Add(e);
  const PostingSum want = model_.Probe(range, value);
  if (got.count != want.count || got.fingerprint != want.fingerprint) {
    Fail("probe_answer", "probe '" + value + "' [" +
                             std::to_string(range.lo) + "," +
                             std::to_string(range.hi) + "] returned " +
                             std::to_string(got.count) + " entries, model " +
                             std::to_string(want.count));
  }
}

void Runner::CheckScan(const DayRange& range,
                       const std::vector<uint64_t>& counts,
                       const std::vector<uint64_t>& aux, uint64_t stray,
                       bool plant) {
  if (stray != 0) {
    Fail("scan_conservation",
         std::to_string(stray) + " entries outside the scanned range");
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    const Day d = range.lo + static_cast<Day>(i);
    const PostingSum want = model_.Day(d);
    const uint64_t got = counts[i] + (plant && i == 0 ? 1 : 0);
    if (got != want.count || aux[i] != want.aux_sum) {
      Fail("scan_conservation", "day " + std::to_string(d) + ": visited " +
                                    std::to_string(got) + " entries, model " +
                                    std::to_string(want.count));
      return;
    }
  }
}

void Runner::RunDay(Day day, RoundSample* round) {
  DayBatch batch = Generate(day);
  model_.AddDay(batch);
  model_.DropBefore(day - spec_.window + 1);

  // Each timed section is bracketed by counter samples, so replays and
  // checks in between are left out of every per-section count.
  const auto* cache = service_->cache();
  const wavekit::IoCounters meter0 = service_->device()->total();
  const IoTally io0 = timing_->tally();
  Advance(std::move(batch), round);
  const IoTally io1 = timing_->tally();
  counters_.advance_io = counters_.advance_io + (io1 - io0);
  ++counters_.days;
  if (options_.trace) TraceAdvanceSpans();
  CheckWave(day);

  const DayRange window = DayRange::Window(day, spec_.window);
  const wavekit::CacheStats cache0 = cache->stats();
  const uint64_t verified0 = service_->integrity().verified_buckets.load();
  const uint64_t trusted0 = service_->integrity().trusted_buckets.load();
  const IoTally qio0 = timing_->tally();
  bool plant_probe = options_.plant == Plant::kDropEntry;
  std::vector<Entry> entries;
  std::string frame, out;
  for (const Value& value : probe_values_) {
    entries.clear();
    Clock::time_point t0, t1;
    Status status;
    if (spec_.served) {
      frame = wavekit::serve::EncodeProbeRequest(
          kTenant, ++request_id_, wavekit::serve::ProbeRequest{window, value});
      out.clear();
      t0 = Clock::now();
      status = core_->Ingest(session_, frame.data(), frame.size(), &out);
      t1 = Clock::now();
      wavekit::serve::Frame reply_frame;
      wavekit::serve::QueryReply reply;
      if (status.ok() &&
          (!ParseFrame(out, &reply_frame) ||
           !wavekit::serve::DecodeQueryReply(reply_frame.payload, &reply)
                .ok() ||
           !reply.result.ok())) {
        status = Status::Internal("PROBE reply not OK");
      }
      entries = std::move(reply.entries);
    } else {
      t0 = Clock::now();
      status = service_->TimedIndexProbe(window, value, &entries);
      t1 = Clock::now();
    }
    round->probe_us.push_back(Micros(t0, t1));
    if (Op(status, "probe")) {
      CheckProbe(window, value, &entries, plant_probe && !entries.empty());
      if (!entries.empty()) plant_probe = false;
    }
  }
  const wavekit::CacheStats cache1 = cache->stats();
  counters_.probe_cache_misses += cache1.misses - cache0.misses;
  counters_.probes += probe_values_.size();

  const DayRange scan_range =
      spec_.scan_whole_window ? window : DayRange{day, day};
  const size_t scan_days = static_cast<size_t>(scan_range.hi - scan_range.lo + 1);
  for (int s = 0; s < spec_.scans_per_day; ++s) {
    std::vector<uint64_t> counts(scan_days, 0), aux(scan_days, 0);
    uint64_t stray = 0, visited = 0;
    const auto tally = [&](const Entry& e) {
      const size_t i = static_cast<size_t>(e.day - scan_range.lo);
      if (i < scan_days) {
        ++counts[i];
        aux[i] += e.aux;
      } else {
        ++stray;
      }
      ++visited;
    };
    Clock::time_point t0, t1;
    Status status;
    if (spec_.served) {
      frame = wavekit::serve::EncodeScanRequest(
          kTenant, ++request_id_, wavekit::serve::ScanRequest{scan_range, 0});
      out.clear();
      t0 = Clock::now();
      status = core_->Ingest(session_, frame.data(), frame.size(), &out);
      t1 = Clock::now();
      wavekit::serve::Frame reply_frame;
      wavekit::serve::QueryReply reply;
      if (status.ok() &&
          (!ParseFrame(out, &reply_frame) ||
           !wavekit::serve::DecodeQueryReply(reply_frame.payload, &reply)
                .ok() ||
           !reply.result.ok())) {
        status = Status::Internal("SCAN reply not OK");
      }
      for (const Entry& e : reply.entries) tally(e);
    } else {
      t0 = Clock::now();
      status = service_->TimedSegmentScan(
          scan_range, [&tally](const Value&, const Entry& e) { tally(e); });
      t1 = Clock::now();
    }
    round->scan_us.push_back(Micros(t0, t1));
    round->scan_entries.push_back(static_cast<double>(visited));
    if (Op(status, "scan")) {
      CheckScan(scan_range, counts, aux, stray,
                options_.plant == Plant::kScanOffByOne && s == 0);
    }
  }
  const wavekit::CacheStats cache2 = cache->stats();
  counters_.queries += probe_values_.size() + spec_.scans_per_day;
  counters_.query_io = counters_.query_io + (timing_->tally() - qio0);
  counters_.cache_hits += cache2.hits - cache0.hits;
  counters_.cache_misses += cache2.misses - cache0.misses;
  counters_.verified +=
      service_->integrity().verified_buckets.load() - verified0;
  counters_.trusted += service_->integrity().trusted_buckets.load() - trusted0;
  counters_.seeks += (service_->device()->total() - meter0).seeks;

  if (options_.trace) {
    for (const Value& value : probe_values_) TraceProbe(window, value);
    TraceConstituentScan(scan_range);
  }
}

double Runner::StoredBytesPerEntry() const {
  auto snapshot = service_->Snapshot();
  const uint64_t entries = snapshot->EntryCount();
  const uint64_t bytes =
      snapshot->AllocatedBytes() + service_->scheme().TemporaryBytes();
  return entries == 0 ? 0.0
                      : static_cast<double>(bytes) /
                            static_cast<double>(entries);
}

// --- Traced-run measurements, each timing calls into one layer ------------

void Runner::TraceAdvanceSpans() {
  wavekit::obs::Tracer* tracer = service_->tracer();
  const std::vector<wavekit::obs::SpanRecord> spans = tracer->CompletedSpans();
  tracer->Clear();
  std::map<uint64_t, uint64_t> child_us;
  for (const auto& span : spans) {
    if (span.parent_span_id != 0) child_us[span.parent_span_id] += span.duration_us;
  }
  static const std::map<std::string, std::string> kPrimitive = {
      {"AdvanceDay", "advance_self"},     {"BuildIndex", "build_index"},
      {"CopyIndex", "copy_index"},        {"AddToIndex", "add_to_index"},
      {"DeleteFromIndex", "delete_from_index"},
      {"UpdateIndex", "update_index"},    {"PackIndex", "pack_index"},
      {"DropIndex", "drop_index"},
  };
  for (const auto& span : spans) {
    const uint64_t children = child_us[span.span_id];
    const double self = span.duration_us > children
                            ? static_cast<double>(span.duration_us - children)
                            : 0.0;
    auto it = kPrimitive.find(span.name);
    layers_.span_self_us[it != kPrimitive.end() ? it->second : "scheme_step"] +=
        self;
  }
  // The serve layer's share of an advance: decoding the ADVANCE frame.
  wavekit::serve::Frame frame;
  if (ParseFrame(advance_frame_, &frame)) {
    wavekit::serve::AdvanceRequest request;
    const auto t0 = Clock::now();
    const Status decoded =
        wavekit::serve::DecodeAdvanceRequest(frame.payload, &request);
    const auto t1 = Clock::now();
    if (decoded.ok()) layers_.advance_decode_ms.push_back(Micros(t0, t1) / 1e3);
  }
}

void Runner::TraceProbe(const DayRange& range, const Value& value) {
  namespace serve = wavekit::serve;
  // serve: the whole request through the core, against the same probe
  // called directly.
  const std::string frame = serve::EncodeProbeRequest(
      kTenant, ++request_id_, serve::ProbeRequest{range, value});
  std::string out;
  auto t0 = Clock::now();
  const Status ingested =
      core_->Ingest(session_, frame.data(), frame.size(), &out);
  auto t1 = Clock::now();
  std::vector<Entry> direct;
  wavekit::QueryStats direct_stats;
  auto t2 = Clock::now();
  const Status probed =
      service_->TimedIndexProbe(range, value, &direct, &direct_stats);
  auto t3 = Clock::now();
  serve::Frame request_frame, reply_frame;
  serve::ProbeRequest request;
  serve::QueryReply reply;
  if (!ingested.ok() || !probed.ok() || !ParseFrame(frame, &request_frame) ||
      !ParseFrame(out, &reply_frame) ||
      !serve::DecodeQueryReply(reply_frame.payload, &reply).ok() ||
      !reply.result.ok()) {
    Fail("trace_replay", "probe replay failed for '" + value + "'");
    return;
  }
  CheckProbe(range, value, &reply.entries, false);
  CheckProbe(range, value, &direct, false);
  layers_.ingest_us.push_back(Micros(t0, t1));
  layers_.service_probe_us.push_back(Micros(t2, t3));
  layers_.overhead_us.push_back(Micros(t0, t1) - Micros(t2, t3));
  layers_.reply_bytes.push_back(static_cast<double>(out.size()));
  t0 = Clock::now();
  const Status decoded = serve::DecodeProbeRequest(request_frame.payload, &request);
  t1 = Clock::now();
  const std::string encoded =
      serve::EncodeQueryReply(request_frame.header, reply);
  t2 = Clock::now();
  if (!decoded.ok() || encoded != out) {
    Fail("trace_replay", "serve codec replay differs for '" + value + "'");
  }
  layers_.request_decode_us.push_back(Micros(t0, t1));
  layers_.reply_encode_us.push_back(Micros(t1, t2));

  // wave: snapshot acquisition, the snapshot's probe, and each constituent's
  // share of it; what is left is the day filter and merge.
  t0 = Clock::now();
  auto snapshot = service_->Snapshot();
  t1 = Clock::now();
  std::vector<Entry> merged;
  wavekit::QueryStats stats;
  t2 = Clock::now();
  const Status index_probed =
      snapshot->TimedIndexProbe(range, value, &merged, &stats);
  t3 = Clock::now();
  if (!index_probed.ok()) {
    Fail("trace_replay", "snapshot probe failed: " + index_probed.ToString());
    return;
  }
  layers_.snapshot_us.push_back(Micros(t0, t1));
  layers_.index_probe_us.push_back(Micros(t2, t3));
  layers_.constituents.push_back(stats.indexes_accessed);
  double constituent_us = 0;
  std::vector<Entry> part;
  for (const auto& index : snapshot->constituents()) {
    if (!index->healthy() || !range.Intersects(index->time_set())) continue;
    part.clear();
    const auto c0 = Clock::now();
    const Status s = index->TimedProbe(value, range, &part);
    const auto c1 = Clock::now();
    if (!s.ok()) Fail("trace_replay", "constituent probe: " + s.ToString());
    layers_.constituent_probe_us.push_back(Micros(c0, c1));
    constituent_us += Micros(c0, c1);
  }
  layers_.merge_us.push_back(Micros(t2, t3) - constituent_us);
}

void Runner::TraceConstituentScan(const DayRange& range) {
  auto snapshot = service_->Snapshot();
  for (const auto& index : snapshot->constituents()) {
    if (!index->healthy() || !range.Intersects(index->time_set())) continue;
    uint64_t visited = 0;
    const auto t0 = Clock::now();
    const Status s = index->TimedScan(
        range, [&visited](const Value&, const Entry&) { ++visited; });
    const auto t1 = Clock::now();
    if (!s.ok()) Fail("trace_replay", "constituent scan: " + s.ToString());
    layers_.cscan_entries += static_cast<double>(visited);
    layers_.cscan_us += Micros(t0, t1);
  }
}

// Replays the codec and checksum on the bytes the constituents store, read
// straight from the storage backend (below the meter and the cache, so the
// replay moves no counter the timed sections report).
void Runner::TraceBuckets() {
  constexpr uint64_t kReplayBytes = uint64_t{4} << 20;
  const auto totals = service_->CodecTotals();
  uint64_t buckets = 0, compressed = 0;
  for (int c = 0; c < wavekit::kNumCodecs; ++c) {
    buckets += totals.buckets[c];
    if (c != static_cast<int>(wavekit::Codec::kRaw)) compressed += totals.buckets[c];
  }
  layers_.compressed_share.push_back(
      buckets == 0 ? 0.0 : static_cast<double>(compressed) / buckets);
  layers_.compression_ratio.push_back(totals.ratio());

  auto snapshot = service_->Snapshot();
  wavekit::Device* base = service_->base_device();
  uint64_t replayed = 0;
  std::vector<std::byte> stored;
  std::vector<Entry> entries;
  for (const auto& index : snapshot->constituents()) {
    if (replayed >= kReplayBytes) break;
    const Status visited = index->ForEachBucket(
        [&](const Value&, const wavekit::BucketInfo& info) {
          if (replayed >= kReplayBytes || info.count == 0) return;
          const uint64_t length = info.stored_length();
          stored.resize(length);
          if (!base->Read(info.extent.offset, stored).ok()) {
            Fail("trace_replay", "backend read failed");
            return;
          }
          replayed += length;
          auto t0 = Clock::now();
          const uint32_t crc = wavekit::Crc32c(stored.data(), length);
          auto t1 = Clock::now();
          entries.resize(info.count);
          const Status decoded = wavekit::DecodeBucket(
              info.codec, stored.data(), length, info.count, entries.data());
          auto t2 = Clock::now();
          const wavekit::EncodedBucket encoded =
              wavekit::EncodeBucket(entries.data(), info.count, spec_.codec);
          auto t3 = Clock::now();
          if (crc != info.crc || !decoded.ok() ||
              encoded.stored_length(info.count) != length) {
            Fail("trace_replay", "stored bucket does not replay");
          }
          layers_.crc_ns += Micros(t0, t1) * 1e3;
          layers_.crc_bytes += static_cast<double>(length);
          layers_.decode_ns += Micros(t1, t2) * 1e3;
          layers_.decode_entries += info.count;
          layers_.encode_ns += Micros(t2, t3) * 1e3;
          layers_.encode_entries += info.count;
        });
    if (!visited.ok()) Fail("trace_replay", visited.ToString());
  }
}

void Runner::Report(const std::vector<RoundSample>& rounds, double setup_s,
                    double modeled_day_s, double stored_bytes_per_entry,
                    double rss_mib) {
  const double round_days = spec_.round_days;
  for (const RoundSample& r : rounds) {
    const double advance_us = Sum(r.advance_us), probe_us = Sum(r.probe_us),
                 scan_us = Sum(r.scan_us);
    result_.series.push_back(
        {r.probe_us.size() / (probe_us / 1e6),
         Sum(r.scan_entries) / (scan_us / 1e6), advance_us / 1e3 / round_days,
         (advance_us + probe_us + scan_us) / 1e3 / round_days,
         Quantile(r.probe_us, 0.5), Quantile(r.probe_us, 0.99)});
  }
  const std::vector<double> advance = PerCall(rounds, &RoundSample::advance_us);
  const std::vector<double> probe = PerCall(rounds, &RoundSample::probe_us);
  const std::vector<double> scan = PerCall(rounds, &RoundSample::scan_us);
  double scan_entries = 0;
  for (const RoundSample& r : rounds) scan_entries += Sum(r.scan_entries);
  scan_entries /= static_cast<double>(rounds.size());
  const double probe_us = Sum(probe), scan_us = Sum(scan);
  result_.end_to_end = {
      {"setup_s", "s", setup_s},
      {"probe_rate", "probes/s", probe.size() / (probe_us / 1e6)},
      {"probe_p50_us", "us", Quantile(probe, 0.5)},
      {"probe_p99_us", "us", Quantile(probe, 0.99)},
      {"scan_entry_rate", "entries/s", scan_entries / (scan_us / 1e6)},
      {"advance_ms", "ms", Sum(advance) / 1e3 / round_days},
      {"day_ms", "ms", (Sum(advance) + probe_us + scan_us) / 1e3 / round_days},
      {"stored_bytes_per_entry", "B", stored_bytes_per_entry},
      {"modeled_day_s", "s", modeled_day_s},
      {"rss_mib", "MiB", rss_mib},
  };
  if (!options_.trace) return;

  const LayerSamples& l = layers_;
  const SectionCounters& c = counters_;
  const double days = static_cast<double>(c.days);
  const double queries = static_cast<double>(c.queries);
  const auto span_ms = [&](const char* name) {
    auto it = l.span_self_us.find(name);
    return it == l.span_self_us.end() ? 0.0 : it->second / 1e3 / days;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  result_.per_layer = {
      {"serve.ingest_us", "us", Quantile(l.ingest_us, 0.5)},
      {"serve.overhead_us", "us", Quantile(l.overhead_us, 0.5)},
      {"serve.request_decode_us", "us", Quantile(l.request_decode_us, 0.5)},
      {"serve.reply_encode_us", "us", Quantile(l.reply_encode_us, 0.5)},
      {"serve.reply_bytes", "B", Mean(l.reply_bytes)},
      {"serve.advance_decode_ms", "ms", Quantile(l.advance_decode_ms, 0.5)},
      {"wave.snapshot_us", "us", Quantile(l.snapshot_us, 0.5)},
      {"wave.service_probe_us", "us", Quantile(l.service_probe_us, 0.5)},
      {"wave.index_probe_us", "us", Quantile(l.index_probe_us, 0.5)},
      {"wave.merge_us", "us", Quantile(l.merge_us, 0.5)},
      {"wave.constituents_per_probe", "count", Mean(l.constituents)},
      {"wave.build_index_ms", "ms", span_ms("build_index")},
      {"wave.copy_index_ms", "ms", span_ms("copy_index")},
      {"wave.add_to_index_ms", "ms", span_ms("add_to_index")},
      {"wave.delete_from_index_ms", "ms", span_ms("delete_from_index")},
      {"wave.update_index_ms", "ms", span_ms("update_index")},
      {"wave.pack_index_ms", "ms", span_ms("pack_index")},
      {"wave.drop_index_ms", "ms", span_ms("drop_index")},
      {"wave.scheme_step_ms", "ms", span_ms("scheme_step")},
      {"wave.advance_self_ms", "ms", span_ms("advance_self")},
      {"index.constituent_probe_us", "us",
       Quantile(l.constituent_probe_us, 0.5)},
      {"index.constituent_scan_entry_rate", "entries/s",
       ratio(l.cscan_entries, l.cscan_us / 1e6)},
      {"index.decode_ns_per_entry", "ns/entry",
       ratio(l.decode_ns, l.decode_entries)},
      {"index.encode_ns_per_entry", "ns/entry",
       ratio(l.encode_ns, l.encode_entries)},
      {"index.compressed_bucket_share", "ratio", Mean(l.compressed_share)},
      {"index.compression_ratio", "ratio", Mean(l.compression_ratio)},
      {"util.crc32c_ns_per_byte", "ns/B", ratio(l.crc_ns, l.crc_bytes)},
      {"util.verified_buckets_per_query", "count", ratio(c.verified, queries)},
      {"util.trusted_buckets_per_query", "count", ratio(c.trusted, queries)},
      {"storage.read_calls_per_query", "count",
       ratio(c.query_io.read_calls, queries)},
      {"storage.read_bytes_per_query", "B",
       ratio(c.query_io.read_bytes, queries)},
      {"storage.read_us_per_query", "us",
       ratio(c.query_io.read_ns / 1e3, queries)},
      {"storage.write_calls_per_day", "count",
       ratio(c.advance_io.write_calls, days)},
      {"storage.write_bytes_per_day", "B",
       ratio(c.advance_io.write_bytes, days)},
      {"storage.write_ms_per_day", "ms",
       ratio(c.advance_io.write_ns / 1e6, days)},
      {"storage.cache_hit_ratio", "ratio",
       ratio(c.cache_hits, c.cache_hits + c.cache_misses)},
      {"storage.cache_misses_per_probe", "count",
       ratio(c.probe_cache_misses, c.probes)},
      {"storage.modeled_seeks_per_day", "count", ratio(c.seeks, days)},
  };
}

RunResult Runner::Run(Clock::time_point process_start) {
  const uint64_t rss0 = ResidentBytes();
  const Status started = Setup();
  if (!Op(started, "setup")) {
    result_.correct = false;
    return result_;
  }
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();

  std::vector<RoundSample> rounds;
  const int counted_rounds =
      std::max(2, (kCountedDays + spec_.round_days - 1) / spec_.round_days);
  double modeled_s = 0, stored_per_entry = 0;
  wavekit::IoCounters counted_start;
  const auto loop_start = Clock::now();
  Day day = spec_.window;
  for (int round = 0;; ++round) {
    const int measured = round - spec_.warmup_rounds;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    if (measured >= kMinMeasuredRounds && elapsed >= options_.seconds) break;
    if (measured == 0) counted_start = service_->device()->total();
    RoundSample sample;
    for (int d = 0; d < spec_.round_days; ++d) RunDay(++day, &sample);
    if (measured < 0) continue;
    rounds.push_back(std::move(sample));
    if (measured < counted_rounds) {
      stored_per_entry += StoredBytesPerEntry() / counted_rounds;
    }
    if (measured + 1 == counted_rounds) {
      modeled_s = wavekit::CostModel::Paper().Seconds(
                      service_->device()->total() - counted_start) /
                  (counted_rounds * spec_.round_days);
    }
    if (options_.trace) TraceBuckets();
  }
  const uint64_t rss1 = ResidentBytes();
  const double rss_mib =
      static_cast<double>(rss1 - std::min(rss1, rss0)) / (1 << 20);
  result_.rounds = static_cast<int>(rounds.size());
  Report(rounds, setup_s, modeled_s, stored_per_entry, rss_mib);

  core_.reset();
  if (!device_path_.empty()) std::remove(device_path_.c_str());
  return result_;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "scam_probe", "scam_serve", "tpcd_scan", "wse_maintain"};
  return kNames;
}

WorkloadSpec LookupWorkload(const std::string& name, bool small) {
  WorkloadSpec s;
  s.name = name;
  if (name == "scam_probe" || name == "scam_serve") {
    // SCAM: Netnews with Zipf words, W=7, WATA n=3 on simple shadowing. The
    // 512 KiB cache is smaller than the ~4 MiB index.
    s.served = name == "scam_serve";
    s.scheme = wavekit::SchemeKind::kWata;
    s.technique = wavekit::UpdateTechniqueKind::kSimpleShadow;
    s.window = 7;
    s.num_indexes = 3;
    s.cache_blocks = 128;
    s.records_per_day = 500;
    s.universe = 20000;
    s.probes_per_day = 350;
    s.scans_per_day = 1;
    s.scan_whole_window = false;
    s.round_days = 3;  // one WATA throw-away every ceil((W-1)/(n-1)) days
    s.warmup_rounds = 3;
  } else if (name == "tpcd_scan") {
    // TPC-D LINEITEM on SUPPKEY, W=100, REINDEX rebuilt daily on packed
    // shadowing with codec=auto; the 32 MiB cache holds the whole wave.
    s.tpcd = true;
    s.scheme = wavekit::SchemeKind::kReindex;
    s.technique = wavekit::UpdateTechniqueKind::kPackedShadow;
    s.codec = wavekit::CodecMode::kAuto;
    s.window = 100;
    s.num_indexes = 1;
    s.cache_blocks = 8192;
    s.records_per_day = 1000;
    s.universe = 200;
    s.probes_per_day = 1000;
    s.scans_per_day = 4;
    s.scan_whole_window = true;
    s.round_days = 1;  // every day rebuilds the whole wave
    s.warmup_rounds = 5;
  } else if (name == "wse_maintain") {
    // Web search engine: Netnews, W=35, REINDEX++ with n=7 (five-day
    // clusters) on packed shadowing, on the file backend.
    s.scheme = wavekit::SchemeKind::kReindexPlusPlus;
    s.technique = wavekit::UpdateTechniqueKind::kPackedShadow;
    s.window = 35;
    s.num_indexes = 7;
    s.backend = "file";
    s.cache_blocks = 4096;
    s.records_per_day = 250;
    s.universe = 20000;
    s.probes_per_day = 200;
    s.scans_per_day = 1;
    s.scan_whole_window = false;
    s.round_days = 5;  // one cluster rotation: W / n days
    // Advance time creeps up by a fifth over the first ~100 days as extents
    // spread over the device file; measure past the steepest part of it.
    s.warmup_rounds = 8;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::abort();
  }
  if (small) {
    s.records_per_day = std::max<uint64_t>(20, s.records_per_day / 10);
    s.probes_per_day = std::max(10, s.probes_per_day / 10);
  }
  return s;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                      std::chrono::steady_clock::time_point process_start) {
  Runner runner(spec, options);
  return runner.Run(process_start);
}

}  // namespace wavebench
