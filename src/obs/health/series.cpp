#include "obs/health/series.hpp"

#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "snap/format.hpp"

namespace vapres::obs::health {

TimeSeries::TimeSeries(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TimeSeries::push(sim::Cycles cycle, std::int64_t value) {
  ring_[static_cast<std::size_t>(head_) % ring_.size()] = Sample{cycle, value};
  ++head_;
}

std::size_t TimeSeries::size() const {
  return head_ < ring_.size() ? static_cast<std::size_t>(head_) : ring_.size();
}

Sample TimeSeries::at(std::size_t i) const {
  const std::size_t n = size();
  if (i >= n) return Sample{};
  const std::uint64_t oldest = head_ - n;
  return ring_[static_cast<std::size_t>(oldest + i) % ring_.size()];
}

std::int64_t TimeSeries::last() const {
  const std::size_t n = size();
  return n == 0 ? 0 : at(n - 1).value;
}

std::uint64_t TimeSeries::digest() const {
  std::uint64_t d = snap::kFnvOffset;
  const std::size_t n = size();
  snap::fnv1a_u64(d, n);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample s = at(i);
    snap::fnv1a_u64(d, s.cycle);
    snap::fnv1a_u64(d, static_cast<std::uint64_t>(s.value));
  }
  return d;
}

HealthSampler::HealthSampler(std::size_t series_capacity)
    : capacity_(series_capacity == 0 ? 1 : series_capacity) {}

TimeSeries& HealthSampler::at(const std::string& key) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, TimeSeries(capacity_)).first;
  }
  return it->second;
}

void HealthSampler::sample(sim::Cycles now) {
  EventBus::instance().publish_gauges();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  for (const auto& [name, value] : snap.counters) {
    auto last = last_counter_.find(name);
    const std::uint64_t prev = last == last_counter_.end() ? 0 : last->second;
    at("rate:" + name)
        .push(now, static_cast<std::int64_t>(counter_delta(prev, value)));
    last_counter_[name] = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    at("gauge:" + name).push(now, value);
  }
  for (const auto& h : snap.histograms) {
    at("p50:" + h.name).push(now, static_cast<std::int64_t>(h.p50));
    at("p99:" + h.name).push(now, static_cast<std::int64_t>(h.p99));
  }
  ++samples_;
}

const TimeSeries* HealthSampler::series(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> HealthSampler::keys() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [key, ts] : series_) out.push_back(key);
  return out;
}

std::uint64_t HealthSampler::digest() const {
  std::uint64_t d = snap::kFnvOffset;
  snap::fnv1a_u64(d, samples_);
  for (const auto& [key, ts] : series_) {
    snap::fnv1a_str(d, key);
    snap::fnv1a_u64(d, ts.digest());
  }
  return d;
}

void HealthSampler::write_to(snap::SnapshotWriter& w) const {
  w.u64(samples_);
  w.u64(series_.size());
  for (const auto& [key, ts] : series_) {
    w.str(key);
    const std::size_t n = ts.size();
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Sample s = ts.at(i);
      w.u64(s.cycle);
      w.i64(s.value);
    }
  }
}

}  // namespace vapres::obs::health
