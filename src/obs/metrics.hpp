// Deterministic metrics: named counters, gauges and fixed-bucket histograms.
//
// Every value is driven by *virtual* time and deterministic event order, so
// two runs with the same seed produce byte-identical registry snapshots
// (DESIGN.md section 10). No wall clock, no host randomness, no allocation
// on the record paths beyond first-touch name registration.
//
// Instruments are owned by a MetricsRegistry and live for its lifetime;
// `counter()` / `gauge()` / `histogram()` return stable references (the
// registry is node-based), so hot paths resolve a name once and then bump a
// plain integer. The engine runs on one thread, so nothing here is atomic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace starfish::obs {

class Counter {
 public:
  void add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-written value plus the high-water mark (queue depths, log sizes).
class Gauge {
 public:
  void set(int64_t v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void add(int64_t delta) { set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

/// Inclusive bucket upper bounds, fixed at creation (recordings replay
/// bit-for-bit; the implicit final bucket is +inf).
struct HistogramSpec {
  std::vector<uint64_t> bounds;

  /// `count` bounds: first, first*factor, first*factor^2, ...
  static HistogramSpec exponential(uint64_t first, double factor, size_t count);
  /// `count` bounds: first, first+width, first+2*width, ...
  static HistogramSpec linear(uint64_t first, uint64_t width, size_t count);
};

class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);

  void record(uint64_t v);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Min/max over recorded values; 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  /// Find-or-create; references stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The spec applies only on first creation of `name`.
  Histogram& histogram(std::string_view name, const HistogramSpec& spec = duration_buckets());

  /// Read-only lookups (nullptr if never touched) for tests and exporters.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  size_t size() const;

  /// Deterministic snapshot: names sorted, fixed integer formatting. Shape:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;
  /// Writes to_json() (plus trailing newline) to `path`; false after perror
  /// if the file cannot be written.
  bool write_json(const std::string& path) const;

  /// Default bucketing for virtual-nanosecond durations: 1 us .. ~17 min,
  /// powers of two.
  static const HistogramSpec& duration_buckets();

 private:
  // std::map: node-based (stable references) and name-sorted (deterministic
  // export order for free).
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace starfish::obs
