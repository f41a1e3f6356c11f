#include "wave/wave_index.h"

#include <algorithm>
#include <latch>

#include "util/macros.h"

namespace wavekit {
namespace {

template <typename Vector>
auto FindConstituent(Vector& constituents, const ConstituentIndex* index) {
  return std::find_if(
      constituents.begin(), constituents.end(),
      [index](const std::shared_ptr<ConstituentIndex>& c) {
        return c.get() == index;
      });
}

// OK for a complete answer, PartialResult when constituents were excluded
// (unhealthy) or dropped (unreadable) — see the degraded-serving contract in
// wave_index.h.
Status DegradedStatus(const QueryStats& stats) {
  if (stats.indexes_unhealthy == 0 && stats.indexes_failed == 0) {
    return Status::OK();
  }
  return Status::PartialResult(
      "degraded answer: " + std::to_string(stats.indexes_unhealthy) +
      " unhealthy constituent(s) excluded, " +
      std::to_string(stats.indexes_failed) + " unreadable and dropped");
}

// TimedProbe on one constituent with the degraded-serving fallback: an
// I/O-failing directory probe is retried as a value-filtered sequential
// scan. On a second I/O failure `out` is rolled back to its length at entry
// and the IOError is returned for the caller to count; other errors
// propagate unchanged. A DataLoss (checksum mismatch) gets NO fallback: the
// scan would reread the same corrupt bytes, and the constituent has already
// quarantined itself — roll back and report it for the caller to drop.
Status ProbeWithFallback(const ConstituentIndex& constituent,
                         const Value& value, const DayRange& range,
                         std::vector<Entry>* out, bool* used_fallback) {
  const size_t mark = out->size();
  Status status = constituent.TimedProbe(value, range, out);
  if (status.IsDataLoss()) {
    out->resize(mark);
    return status;
  }
  if (!status.IsIOError()) return status;
  out->resize(mark);
  *used_fallback = true;
  status = constituent.TimedScan(range, [&](const Value& v, const Entry& e) {
    if (v == value) out->push_back(e);
  });
  if (!status.ok()) out->resize(mark);
  return status;
}

// An unreadable constituent — transiently (IOError) or permanently
// (DataLoss, quarantined) — is dropped from the answer and counted in
// indexes_failed.
bool CountsAsFailed(const Status& status) {
  return status.IsIOError() || status.IsDataLoss();
}

// One constituent's share of a parallel probe, filled by its pool task.
struct ParallelSlot {
  bool used_fallback = false;
  Status status;
  std::vector<Entry> entries;
};

}  // namespace

void WaveIndex::AddIndex(std::shared_ptr<ConstituentIndex> index) {
  constituents_.push_back(std::move(index));
}

Status WaveIndex::RemoveIndex(const ConstituentIndex* index) {
  auto it = FindConstituent(constituents_, index);
  if (it == constituents_.end()) {
    return Status::NotFound("index is not a constituent of this wave index");
  }
  constituents_.erase(it);
  return Status::OK();
}

Status WaveIndex::DropIndex(const ConstituentIndex* index) {
  auto it = FindConstituent(constituents_, index);
  if (it == constituents_.end()) {
    return Status::NotFound("index is not a constituent of this wave index");
  }
  std::shared_ptr<ConstituentIndex> held = *it;
  constituents_.erase(it);
  return held->Destroy();
}

Status WaveIndex::ReplaceIndex(const ConstituentIndex* old_index,
                               std::shared_ptr<ConstituentIndex> with) {
  auto it = FindConstituent(constituents_, old_index);
  if (it == constituents_.end()) {
    return Status::NotFound("index is not a constituent of this wave index");
  }
  *it = std::move(with);
  return Status::OK();
}

bool WaveIndex::Contains(const ConstituentIndex* index) const {
  return FindConstituent(constituents_, index) != constituents_.end();
}

Status WaveIndex::TimedIndexProbe(const DayRange& range, const Value& value,
                                  std::vector<Entry>* out,
                                  QueryStats* stats) const {
  QueryStats local;
  const size_t before = out->size();
  for (const auto& constituent : constituents_) {
    if (!range.Intersects(constituent->time_set())) {
      ++local.indexes_skipped;
      continue;
    }
    if (!constituent->healthy()) {
      ++local.indexes_unhealthy;
      continue;
    }
    ++local.indexes_accessed;
    bool used_fallback = false;
    const Status status =
        ProbeWithFallback(*constituent, value, range, out, &used_fallback);
    if (used_fallback) ++local.probe_fallbacks;
    if (CountsAsFailed(status)) {
      ++local.indexes_failed;
      continue;
    }
    WAVEKIT_RETURN_NOT_OK(status);
  }
  local.entries_returned = out->size() - before;
  if (stats != nullptr) *stats = local;
  return DegradedStatus(local);
}

Status WaveIndex::IndexProbe(const Value& value, std::vector<Entry>* out,
                             QueryStats* stats) const {
  return TimedIndexProbe(DayRange::All(), value, out, stats);
}

Status WaveIndex::TimedSegmentScan(const DayRange& range,
                                   const EntryCallback& callback,
                                   QueryStats* stats) const {
  QueryStats local;
  for (const auto& constituent : constituents_) {
    if (!range.Intersects(constituent->time_set())) {
      ++local.indexes_skipped;
      continue;
    }
    if (!constituent->healthy()) {
      ++local.indexes_unhealthy;
      continue;
    }
    ++local.indexes_accessed;
    const Status status = constituent->TimedScan(
        range, [&](const Value& v, const Entry& e) {
          ++local.entries_returned;
          callback(v, e);
        });
    if (CountsAsFailed(status)) {
      // Entries already delivered before the failure stand (scans stream,
      // and every delivered batch passed checksum verification); the rest
      // of this constituent is missing — flagged via PartialResult.
      ++local.indexes_failed;
      continue;
    }
    WAVEKIT_RETURN_NOT_OK(status);
  }
  if (stats != nullptr) *stats = local;
  return DegradedStatus(local);
}

Status WaveIndex::SegmentScan(const EntryCallback& callback,
                              QueryStats* stats) const {
  return TimedSegmentScan(DayRange::All(), callback, stats);
}

Status WaveIndex::ParallelTimedIndexProbe(ThreadPool* pool,
                                          const DayRange& range,
                                          const Value& value,
                                          std::vector<Entry>* out,
                                          QueryStats* stats) const {
  QueryStats local;
  std::vector<ParallelSlot> slots(constituents_.size());
  std::latch remaining(static_cast<ptrdiff_t>(constituents_.size()));
  for (size_t i = 0; i < constituents_.size(); ++i) {
    const ConstituentIndex* constituent = constituents_[i].get();
    ParallelSlot* slot = &slots[i];
    if (!range.Intersects(constituent->time_set())) {
      ++local.indexes_skipped;
      remaining.count_down();
      continue;
    }
    if (!constituent->healthy()) {
      ++local.indexes_unhealthy;
      remaining.count_down();
      continue;
    }
    ++local.indexes_accessed;
    pool->Submit([constituent, slot, &range, &value, &remaining]() {
      slot->status = ProbeWithFallback(*constituent, value, range,
                                       &slot->entries, &slot->used_fallback);
      remaining.count_down();
    });
  }
  remaining.wait();
  for (const ParallelSlot& slot : slots) {
    if (slot.used_fallback) ++local.probe_fallbacks;
    if (CountsAsFailed(slot.status)) {
      ++local.indexes_failed;
      continue;
    }
    WAVEKIT_RETURN_NOT_OK(slot.status);
    out->insert(out->end(), slot.entries.begin(), slot.entries.end());
    local.entries_returned += slot.entries.size();
  }
  if (stats != nullptr) *stats = local;
  return DegradedStatus(local);
}

int WaveIndex::TotalDays() const {
  int days = 0;
  for (const auto& constituent : constituents_) {
    days += static_cast<int>(constituent->time_set().size());
  }
  return days;
}

TimeSet WaveIndex::CoveredDays() const {
  TimeSet all;
  for (const auto& constituent : constituents_) {
    all.insert(constituent->time_set().begin(), constituent->time_set().end());
  }
  return all;
}

uint64_t WaveIndex::AllocatedBytes() const {
  uint64_t bytes = 0;
  for (const auto& constituent : constituents_) {
    bytes += constituent->allocated_bytes();
  }
  return bytes;
}

uint64_t WaveIndex::EntryCount() const {
  uint64_t entries = 0;
  for (const auto& constituent : constituents_) {
    entries += constituent->entry_count();
  }
  return entries;
}

}  // namespace wavekit
