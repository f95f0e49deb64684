#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

namespace starfish::obs {

HistogramSpec HistogramSpec::exponential(uint64_t first, double factor, size_t count) {
  HistogramSpec spec;
  spec.bounds.reserve(count);
  double bound = static_cast<double>(first);
  for (size_t i = 0; i < count; ++i) {
    const auto b = static_cast<uint64_t>(bound);
    if (!spec.bounds.empty() && b <= spec.bounds.back()) break;  // saturated
    spec.bounds.push_back(b);
    bound *= factor;
  }
  return spec;
}

HistogramSpec HistogramSpec::linear(uint64_t first, uint64_t width, size_t count) {
  HistogramSpec spec;
  spec.bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) spec.bounds.push_back(first + i * width);
  return spec;
}

Histogram::Histogram(HistogramSpec spec)
    : bounds_(std::move(spec.bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::record(uint64_t v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<size_t>(it - bounds_.begin())];
  min_ = std::min(min_, v);  // min_ starts at UINT64_MAX; min() masks empty
  max_ = std::max(max_, v);
  ++count_;
  sum_ += v;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const HistogramSpec& spec) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::piecewise_construct, std::forward_as_tuple(name),
                             std::forward_as_tuple(spec))
             .first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

const HistogramSpec& MetricsRegistry::duration_buckets() {
  static const HistogramSpec spec = HistogramSpec::exponential(1000, 2.0, 30);
  return spec;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
}

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n  \"" : ",\n  \"";
    first = false;
    append_escaped(out, name);
    out += "\": ";
    append_u64(out, c.value());
  }
  out += "\n },\n \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n  \"" : ",\n  \"";
    first = false;
    append_escaped(out, name);
    out += "\": {\"value\": ";
    append_i64(out, g.value());
    out += ", \"max\": ";
    append_i64(out, g.max());
    out += "}";
  }
  out += "\n },\n \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n  \"" : ",\n  \"";
    first = false;
    append_escaped(out, name);
    out += "\": {\"count\": ";
    append_u64(out, h.count());
    out += ", \"sum\": ";
    append_u64(out, h.sum());
    out += ", \"min\": ";
    append_u64(out, h.min());
    out += ", \"max\": ";
    append_u64(out, h.max());
    out += ", \"bounds\": [";
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out += ", ";
      append_u64(out, h.bounds()[i]);
    }
    out += "], \"buckets\": [";
    const std::vector<uint64_t>& buckets = h.buckets();
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i != 0) out += ", ";
      append_u64(out, buckets[i]);
    }
    out += "]}";
  }
  out += "\n }\n}";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("obs metrics: " + path).c_str());
    return false;
  }
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace starfish::obs
