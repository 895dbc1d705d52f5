#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

std::size_t Histogram::bucket(std::uint64_t ns) {
  if (ns < kSub) return ns;
  const int e = 63 - __builtin_clzll(ns);  // >= kSubBits
  const std::uint64_t mantissa = (ns >> (e - kSubBits)) & (kSub - 1);
  return (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) + mantissa;
}

void Histogram::bounds(std::size_t b, double* low, double* width) {
  if (b < kSub) {
    *low = static_cast<double>(b);
    *width = 1;
    return;
  }
  const int e = static_cast<int>(b >> kSubBits) + kSubBits - 1;
  const std::uint64_t mantissa = b & (kSub - 1);
  *width = std::ldexp(1.0, e - kSubBits);
  *low = (kSub + mantissa) * *width;
}

void Histogram::add(std::int64_t ns) {
  const std::size_t b = bucket(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  ++counts_[std::min(b, counts_.size() - 1)];
  ++count_;
}

double Histogram::percentile_us(double q) const {
  if (count_ == 0) return 0;
  // Sample k (0-based, sorted) of a bucket holding c samples sits at
  // low + width * (k + 0.5) / c.
  auto value = [this](std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (rank < seen + counts_[b]) {
        double low = 0, width = 0;
        bounds(b, &low, &width);
        return low + width * ((rank - seen) + 0.5) / counts_[b];
      }
      seen += counts_[b];
    }
    return 0.0;
  };
  const double rank = std::clamp(q, 0.0, 1.0) * (count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(rank));
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double a = value(lo);
  return (a + (rank - lo) * (value(hi) - a)) / 1e3;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= spans.size()) continue;
    const Span& p = spans[s.parent];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[s.parent].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

Tracer::Tracer(std::vector<std::string> names, std::size_t capacity)
    : names_(std::move(names)), capacity_(capacity) {
  spans_.reserve(capacity_);
  open_.reserve(64);
}

std::uint32_t Tracer::begin(std::uint16_t name, std::uint32_t packet) {
  std::uint32_t parent = Span::kNoParent;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it != kDropped) {
      parent = *it;
      break;
    }
  }
  if (spans_.size() >= capacity_) {
    // A kept ancestor would now under-count its children: mark it so
    // reports skip it rather than inflate its self time.
    if (parent != Span::kNoParent) spans_[parent].flags |= kTainted;
    ++dropped_;
    open_.push_back(kDropped);
    return kDropped;
  }
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span s;
  s.parent = parent;
  s.packet = packet;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id, std::uint16_t flags) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  open_.pop_back();
  if (id == kDropped) return;
  spans_[id].end_ns = t;
  spans_[id].flags |= flags;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "name,span,parent,packet,flags,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%zu,%lld,%u,%u,%lld,%lld\n", names_[s.name].c_str(), i,
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 s.packet, s.flags, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
