// Metrics registry: named counters, gauges, and log2-bucketed
// histograms.
//
// Subsystems register a metric once (name lookup, allocation) and keep
// the returned reference; bumping it afterwards is a plain integer
// operation. Registry::snapshot() freezes every value into a plain
// struct for reporting; to_string() renders the text export used by
// benches and examples. core::SystemStats (core/stats.hpp) is a separate
// per-system struct that collect_stats() reads from the components; it
// is not published here.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vapres::snap {
class SystemSnapshot;
}

namespace vapres::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Power-of-two latency histogram: bucket 0 holds value 0, bucket i
/// (i >= 1) holds values in [2^(i-1), 2^i). 64 buckets cover the full
/// u64 range, so record() never clips.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  /// Upper bound of the bucket holding the p-quantile (0 < p <= 1).
  std::uint64_t percentile(double p) const;
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  void reset();

 private:
  // Checkpoint/restore overlays raw buckets and extrema — the public
  // surface can only re-record, which loses min_/max_ exactness
  // (snap/system_snapshot.cpp).
  friend class ::vapres::snap::SystemSnapshot;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// A frozen histogram for snapshots.
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

/// THE percentile convention. Every p50/p99 the harnesses, benches, and
/// health rules report comes through here (Histogram::percentile's
/// nearest-rank-over-log2-buckets rounding) — one implementation, one
/// rounding convention.
HistogramSummary summarize(const std::string& name, const Histogram& h);

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSummary> histograms;

  std::string to_string() const;
};

class Registry {
 public:
  static Registry& instance();

  /// Lookup-or-create by name; returned references stay valid for the
  /// registry's lifetime (reset() clears values, not registrations).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  std::string to_string() const { return snapshot().to_string(); }

  /// Summary of one histogram by name without registering it: a
  /// zero-count summary when the name was never recorded. Const —
  /// usable on a registry snapshot path that must not mutate.
  HistogramSummary summary(const std::string& name) const;

  /// Zeroes every metric (registrations and references survive). Tests
  /// and benches call this between scenarios; the registry is
  /// process-wide.
  void reset();

 private:
  Registry() = default;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace vapres::obs
