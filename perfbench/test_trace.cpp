// Tests of the benchmark's own arithmetic: percentiles, the latency
// histogram and span self time.
// Run by run.py before every benchmark run; exits nonzero on a failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

perfbench::Span span(std::int64_t a, std::int64_t b, std::uint32_t parent) {
  perfbench::Span s;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void test_percentile() {
  using perfbench::percentile;
  expect_near(percentile({}, 0.5), 0, "empty");
  expect_near(percentile({7}, 0.99), 7, "single");
  expect_near(percentile({3, 1, 2}, 0.5), 2, "odd median, unsorted");
  expect_near(percentile({4, 1, 3, 2}, 0.5), 2.5, "even median interpolates");
  expect_near(percentile({1, 2, 3, 4, 5}, 0.0), 1, "p0 is min");
  expect_near(percentile({1, 2, 3, 4, 5}, 1.0), 5, "p100 is max");
  // rank = 0.9 * 10 = 9 -> between the 10th (9) and 11th (10) values.
  std::vector<double> v;
  for (int i = 0; i <= 10; ++i) v.push_back(i);
  expect_near(percentile(v, 0.9), 9, "p90 on 0..10");
  expect_near(percentile(v, 0.95), 9.5, "p95 on 0..10");
  // rank = 0.99 * 99 = 98.01 over 1..100.
  std::vector<double> w;
  for (int i = 1; i <= 100; ++i) w.push_back(i);
  expect_near(percentile(w, 0.99), 99.01, "p99 on 1..100");
}

void test_self_time() {
  using perfbench::self_times_ns;
  using perfbench::Span;
  // root [0,100) with children [10,30) and [50,60): self = 100 - 30.
  {
    const std::vector<Span> s = {span(0, 100, Span::kNoParent),
                                 span(10, 30, 0), span(50, 60, 0)};
    const auto self = self_times_ns(s);
    expect_near(self[0], 70, "two disjoint children");
    expect_near(self[1], 20, "leaf child is its duration");
  }
  // Overlapping children count their union once: [10,40) u [30,50) = 40.
  {
    const std::vector<Span> s = {span(0, 100, Span::kNoParent),
                                 span(10, 40, 0), span(30, 50, 0)};
    expect_near(self_times_ns(s)[0], 60, "overlapping children");
  }
  // A child reaching past its parent is clipped: covers [90,100) only.
  {
    const std::vector<Span> s = {span(0, 100, Span::kNoParent),
                                 span(90, 130, 0)};
    expect_near(self_times_ns(s)[0], 90, "clipped child");
  }
  // Only direct children subtract: grandchild time stays in the child.
  {
    const std::vector<Span> s = {span(0, 100, Span::kNoParent),
                                 span(10, 60, 0), span(20, 40, 1)};
    const auto self = self_times_ns(s);
    expect_near(self[0], 50, "grandchild not subtracted from root");
    expect_near(self[1], 30, "grandchild subtracted from child");
  }
}

void test_tracer_nesting_and_capacity() {
  perfbench::Tracer tr({"a", "b"}, 2);
  const auto root = tr.begin(0, 7);
  const auto kid = tr.begin(1, 7);
  const auto dropped = tr.begin(1, 7);  // over capacity
  tr.end(dropped);
  tr.end(kid, 3);
  tr.end(root);
  const auto& spans = tr.spans();
  expect_near(spans.size(), 2, "capacity caps kept spans");
  expect_near(spans[1].parent, 0, "child links to parent");
  expect_near(spans[1].packet, 7, "packet id kept");
  expect_near(spans[1].flags & 3, 3, "flags kept");
  expect_near((spans[1].flags & perfbench::Tracer::kTainted) != 0, 1,
              "parent of a dropped span is tainted");
  expect_near(static_cast<double>(tr.dropped()), 1, "dropped counted");
}

void test_histogram() {
  perfbench::Histogram h;
  expect_near(h.percentile_us(0.5), 0, "empty histogram");
  // Below 1024 ns buckets are exact: 1..1000 ns behave like percentile().
  std::vector<double> v;
  for (int ns = 1; ns <= 1000; ++ns) {
    h.add(ns);
    v.push_back(ns / 1e3);
  }
  const double p50 = perfbench::percentile(v, 0.5);
  const double p99 = perfbench::percentile(v, 0.99);
  if (std::fabs(h.percentile_us(0.5) - p50) > 1e-3 ||
      std::fabs(h.percentile_us(0.99) - p99) > 1e-3) {
    std::fprintf(stderr, "FAIL exact-range histogram percentiles\n");
    ++failures;
  }
  // Above that, within the bucket width (< 0.1% of the value).
  perfbench::Histogram g;
  std::vector<double> w;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t ns = 2000 + 37 * i;  // 2 us .. 187 us
    g.add(ns);
    w.push_back(ns / 1e3);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double want = perfbench::percentile(w, q);
    if (std::fabs(g.percentile_us(q) - want) > want * 1e-3) {
      std::fprintf(stderr, "FAIL histogram p%.0f: got %.6f, want %.6f\n",
                   q * 100, g.percentile_us(q), want);
      ++failures;
    }
  }
  expect_near(static_cast<double>(g.count()), 5000, "histogram count");
}

}  // namespace

int main() {
  test_histogram();
  test_percentile();
  test_self_time();
  test_tracer_nesting_and_capacity();
  if (failures) {
    std::fprintf(stderr, "%d perfbench test(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench tests passed\n");
  return 0;
}
