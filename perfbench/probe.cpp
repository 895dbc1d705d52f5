#include "probe.hpp"

#include <cstdint>
#include <map>
#include <string>

#include "trace.hpp"

namespace perfbench {

double run_host_probe_us() {
  // Short-lived strings in an ordered map: small allocations, copies and
  // pointer-chasing compares. Of the probes tried (ALU loop, cache-missing
  // pointer chase, heap + hash mix) this one followed the benchmark's own
  // speed drift most closely.
  constexpr int kOps = 4000;
  const std::int64_t t0 = now_ns();
  std::map<std::string, std::uint64_t> fields;
  for (int i = 0; i < kOps; ++i) {
    fields["hdr.field_" + std::to_string(i % 97) + ".bits"] += i;
  }
  static volatile std::size_t sink = 0;
  sink = sink + fields.size();
  return (now_ns() - t0) / 1e3;
}

}  // namespace perfbench
