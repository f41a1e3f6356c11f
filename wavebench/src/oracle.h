// PostingModel: the benchmark's own brute-force answer to every query.
//
// Built from the day batches the benchmark generated, independently of the
// index: for each day, every (value -> entries) posting is folded into a
// count, a sum of aux fields, and an order-independent fingerprint (the sum
// of a 64-bit mix of record_id, day and aux). A probe answer matches the
// model when its entry count and fingerprint equal the sums over the days of
// the probe's range; a scan conserves entries when it visits exactly the
// model's entry count (and aux sum) on every day of its range.

#ifndef WAVEBENCH_ORACLE_H_
#define WAVEBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/entry.h"
#include "index/record.h"
#include "util/day.h"

namespace wavebench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline uint64_t EntryFingerprint(uint64_t record_id, wavekit::Day day,
                                 uint32_t aux) {
  return Mix64(record_id ^ Mix64((static_cast<uint64_t>(
                                      static_cast<uint32_t>(day))
                                  << 32) |
                                 aux));
}

struct PostingSum {
  uint64_t count = 0;
  uint64_t aux_sum = 0;
  uint64_t fingerprint = 0;

  void Add(const wavekit::Entry& e) {
    ++count;
    aux_sum += e.aux;
    fingerprint += EntryFingerprint(e.record_id, e.day, e.aux);
  }
  PostingSum& operator+=(const PostingSum& o) {
    count += o.count;
    aux_sum += o.aux_sum;
    fingerprint += o.fingerprint;
    return *this;
  }
  bool operator==(const PostingSum& o) const = default;
};

class PostingModel {
 public:
  /// Folds one generated day into the model.
  void AddDay(const wavekit::DayBatch& batch) {
    DayModel& day = days_[batch.day];
    for (const wavekit::Record& r : batch.records) {
      for (size_t i = 0; i < r.values.size(); ++i) {
        const wavekit::Entry e{r.record_id, batch.day, r.AuxFor(i)};
        day.by_value[r.values[i]].Add(e);
        day.total.Add(e);
      }
    }
  }

  /// Forgets days before `oldest` (they can no longer be queried).
  void DropBefore(wavekit::Day oldest) {
    days_.erase(days_.begin(), days_.lower_bound(oldest));
  }

  /// Expected answer of TimedIndexProbe(range, value).
  PostingSum Probe(const wavekit::DayRange& range,
                   const wavekit::Value& value) const {
    PostingSum sum;
    for (auto it = days_.lower_bound(range.lo);
         it != days_.end() && it->first <= range.hi; ++it) {
      auto found = it->second.by_value.find(value);
      if (found != it->second.by_value.end()) sum += found->second;
    }
    return sum;
  }

  /// Every entry of `day` (count, aux sum, fingerprint).
  PostingSum Day(wavekit::Day day) const {
    auto it = days_.find(day);
    return it == days_.end() ? PostingSum{} : it->second.total;
  }

 private:
  struct DayModel {
    std::unordered_map<wavekit::Value, PostingSum> by_value;
    PostingSum total;
  };
  std::map<wavekit::Day, DayModel> days_;
};

}  // namespace wavebench

#endif  // WAVEBENCH_ORACLE_H_
