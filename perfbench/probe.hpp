// A fixed unit of host work, run between packets to gauge the host's
// speed at that moment. The machine this benchmark was built on shares
// its cores with other tenants, and its speed for allocation-heavy code
// drifts by a third within minutes. The driver scales every host time by
// the most recent probes to a reference host speed (README.md, "Host
// speed"). The probe's code and data are its own, and the driver runs it
// in a child process forked before set-up, so the program under test
// neither changes its work nor shares its heap.
#pragma once

namespace perfbench {

/// Duration of the probe's work this time, in host microseconds. Takes
/// about kProbeReferenceUs on the reference host.
double run_host_probe_us();

/// Probe duration that defines the reference host speed.
inline constexpr double kProbeReferenceUs = 500.0;

}  // namespace perfbench
