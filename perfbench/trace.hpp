// In-memory span recorder and the arithmetic the benchmark reports with.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it (its parent) and the id of the packet it served. Spans are
// kept in a preallocated buffer and written out once the run ends, so
// recording costs two clock reads and a store, and never allocates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks of the sorted samples
/// (q in [0, 1]); the same rule as numpy's default percentile. Empty
/// input gives 0.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Log-bucketed histogram of nanosecond latencies in fixed memory: exact
/// below 1024 ns, then 1024 buckets per power of two (relative width
/// under 0.1%). Percentiles use the same closest-ranks rule as
/// percentile(), placing a bucket's samples evenly across its width.
class Histogram {
 public:
  void add(std::int64_t ns);
  std::uint64_t count() const { return count_; }
  /// Percentile in microseconds; 0 when empty.
  double percentile_us(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static std::size_t bucket(std::uint64_t ns);
  /// [low, low + width) of bucket `b`, in ns.
  static void bounds(std::size_t b, double* low, double* width);

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(55 * kSub);
  std::uint64_t count_ = 0;
};

struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  ///< index into Tracer::spans()
  std::uint32_t packet = 0;          ///< packet id (stream index)
  std::uint16_t name = 0;            ///< index into Tracer::names()
  /// Per-call facts the reports filter on (see dvbench.cpp's kFlag*).
  std::uint16_t flags = 0;
  std::uint32_t pad = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// a child reaching outside its parent is clipped to it).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

class Tracer {
 public:
  /// `names` fixes the name table; `capacity` caps the spans kept. Once
  /// full, begin() returns kDropped and the span is timed but not kept.
  Tracer(std::vector<std::string> names, std::size_t capacity);

  static constexpr std::uint32_t kDropped = 0xfffffffeu;
  /// Set on a kept span when one of its children was dropped: its self
  /// time would be overstated, so reports skip it.
  static constexpr std::uint16_t kTainted = 0x8000;

  /// Open a span as a child of the innermost open span.
  std::uint32_t begin(std::uint16_t name, std::uint32_t packet);
  /// Close the innermost open span (must be `id`), tagging it.
  void end(std::uint32_t id, std::uint16_t flags = 0);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::uint64_t dropped() const { return dropped_; }

  /// CSV: name,span,parent,packet,flags,start_ns,end_ns (start-relative).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span ids
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
