// Fixed-capacity health time-series over the metrics registry.
//
// A HealthSampler periodically freezes obs::Registry into per-metric
// ring time-series keyed by a typed prefix: counters become wrap-aware
// deltas ("rate:<name>"), gauges become levels ("gauge:<name>"), and
// histograms become bucket-quantile tracks ("p50:<name>" /
// "p99:<name>"). Samples are stamped with the *simulated* cycle they
// were taken at, never wall time, so two identical runs produce
// byte-identical series and a byte-stable FNV digest. The sampler is
// observational scratch: restarting it loses history but never changes
// a health decision — decision state lives in journaled StateDb rows
// (fleet/health_agent.hpp, docs/HEALTH.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace vapres::snap {
class SnapshotWriter;
}

namespace vapres::obs {
class Registry;
}

namespace vapres::obs::health {

/// Wrap/reset-aware counter delta (the Prometheus rate convention): a
/// reading below the previous one is treated as a counter reset and the
/// whole new reading counts as the delta.
inline std::uint64_t counter_delta(std::uint64_t prev, std::uint64_t cur) {
  return cur >= prev ? cur - prev : cur;
}

struct Sample {
  sim::Cycles cycle = 0;
  std::int64_t value = 0;
};

/// Bounded ring of samples, oldest overwritten first. The digest folds
/// only the retained window, oldest-first, so it is a pure function of
/// the last `capacity` pushes.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity);

  void push(sim::Cycles cycle, std::int64_t value);

  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_pushed() const { return head_; }

  /// i-th retained sample, oldest first (0 <= i < size()).
  Sample at(std::size_t i) const;
  /// Latest value (0 when empty).
  std::int64_t last() const;

  /// FNV-1a over the retained (cycle, value) pairs, oldest first.
  std::uint64_t digest() const;

 private:
  std::vector<Sample> ring_;
  std::uint64_t head_ = 0;  ///< monotonic write cursor
};

class HealthSampler {
 public:
  explicit HealthSampler(std::size_t series_capacity = 256);

  /// Freezes the process-wide Registry at simulated cycle `now`: one
  /// push per counter/gauge plus p50/p99 pushes per histogram. Also
  /// publishes the EventBus occupancy gauges (obs.bus.*) first, so
  /// trace loss is part of the frozen window.
  void sample(sim::Cycles now);

  std::uint64_t samples_taken() const { return samples_; }
  /// nullptr when the key has never been sampled.
  const TimeSeries* series(const std::string& key) const;
  std::vector<std::string> keys() const;

  /// Fold of every series digest, keyed by name — byte-stable across
  /// identical runs.
  std::uint64_t digest() const;

  /// Serializes the retained window into an already-open snapshot
  /// section (the flight bundle's "flight.health" payload).
  void write_to(snap::SnapshotWriter& w) const;

 private:
  TimeSeries& at(const std::string& key);

  std::size_t capacity_;
  std::uint64_t samples_ = 0;
  std::map<std::string, TimeSeries> series_;           // ordered => deterministic
  std::map<std::string, std::uint64_t> last_counter_;  // raw value at last sample
};

}  // namespace vapres::obs::health
