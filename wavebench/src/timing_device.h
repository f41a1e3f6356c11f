// TimingDevice: the benchmark's own count of storage traffic.
//
// Installed through WaveService::Options::device_interposer, it sits directly
// on the storage backend, under the service's MeteredDevice and block cache.
// It therefore sees exactly the bytes the meter charges, counted a second
// time by code that shares nothing with the meter: the runner checks the two
// totals agree. In traced runs it also times every call.

#ifndef WAVEBENCH_TIMING_DEVICE_H_
#define WAVEBENCH_TIMING_DEVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "storage/device.h"

namespace wavebench {

struct IoTally {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t write_calls = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;

  IoTally operator+(const IoTally& o) const {
    return {read_calls + o.read_calls, read_bytes + o.read_bytes,
            read_ns + o.read_ns,       write_calls + o.write_calls,
            write_bytes + o.write_bytes, write_ns + o.write_ns};
  }
  IoTally operator-(const IoTally& o) const {
    return {read_calls - o.read_calls, read_bytes - o.read_bytes,
            read_ns - o.read_ns,       write_calls - o.write_calls,
            write_bytes - o.write_bytes, write_ns - o.write_ns};
  }
};

class TimingDevice : public wavekit::Device {
 public:
  TimingDevice(wavekit::Device* inner, bool timed)
      : inner_(inner), timed_(timed) {}

  wavekit::Status Read(uint64_t offset, std::span<std::byte> out) override {
    const uint64_t t0 = Now();
    wavekit::Status s = inner_->Read(offset, out);
    Count(&read_calls_, &read_bytes_, &read_ns_, out.size(), t0);
    return s;
  }

  wavekit::Status Write(uint64_t offset,
                        std::span<const std::byte> data) override {
    const uint64_t t0 = Now();
    wavekit::Status s = inner_->Write(offset, data);
    Count(&write_calls_, &write_bytes_, &write_ns_, data.size(), t0);
    return s;
  }

  wavekit::Status ReadBatch(std::span<const wavekit::Extent> extents,
                            std::span<std::byte> out) override {
    const uint64_t t0 = Now();
    wavekit::Status s = inner_->ReadBatch(extents, out);
    Count(&read_calls_, &read_bytes_, &read_ns_, out.size(), t0);
    return s;
  }

  wavekit::Status WriteBatch(std::span<const wavekit::Extent> extents,
                             std::span<const std::byte> data) override {
    const uint64_t t0 = Now();
    wavekit::Status s = inner_->WriteBatch(extents, data);
    Count(&write_calls_, &write_bytes_, &write_ns_, data.size(), t0);
    return s;
  }

  wavekit::Status ReadBatchTracked(std::span<const wavekit::Extent> extents,
                                   std::span<std::byte> out, bool* all_trusted,
                                   uint64_t* fill_token) override {
    const uint64_t t0 = Now();
    wavekit::Status s =
        inner_->ReadBatchTracked(extents, out, all_trusted, fill_token);
    Count(&read_calls_, &read_bytes_, &read_ns_, out.size(), t0);
    return s;
  }

  void MarkVerified(std::span<const wavekit::Extent> extents,
                    uint64_t fill_token) override {
    inner_->MarkVerified(extents, fill_token);
  }

  wavekit::Status Sync() override { return inner_->Sync(); }

  uint64_t capacity() const override { return inner_->capacity(); }

  IoTally tally() const {
    return {read_calls_.load(std::memory_order_relaxed),
            read_bytes_.load(std::memory_order_relaxed),
            read_ns_.load(std::memory_order_relaxed),
            write_calls_.load(std::memory_order_relaxed),
            write_bytes_.load(std::memory_order_relaxed),
            write_ns_.load(std::memory_order_relaxed)};
  }

 private:
  uint64_t Now() const {
    if (!timed_) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void Count(std::atomic<uint64_t>* calls, std::atomic<uint64_t>* bytes,
             std::atomic<uint64_t>* ns, uint64_t size, uint64_t t0) {
    calls->fetch_add(1, std::memory_order_relaxed);
    bytes->fetch_add(size, std::memory_order_relaxed);
    if (timed_) ns->fetch_add(Now() - t0, std::memory_order_relaxed);
  }

  wavekit::Device* inner_;
  const bool timed_;
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> write_ns_{0};
};

}  // namespace wavebench

#endif  // WAVEBENCH_TIMING_DEVICE_H_
