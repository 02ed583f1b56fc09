#ifndef DIFFCBENCH_HOSTPROBE_H_
#define DIFFCBENCH_HOSTPROBE_H_

namespace diffcbench {

/// The host probe: a fixed CPU-bound kernel that uses nothing of diffc
/// (pseudo-random reads and writes over a 32 KiB table, with
/// data-dependent branches). On a shared host the speed at which this
/// process runs drifts by a third within minutes, with no steal at all
/// (neighbours on the same cores and caches). The probe's median
/// duration, taken while the benchmark runs, tracks that drift; the gated
/// timings are scaled by it to a reference host on which the probe takes
/// `kProbeReferenceUs`. The probe's speed does not depend on diffc, so a
/// change to the program still moves the scaled figures by its full
/// amount. Time the hypervisor steals from a busy vCPU is not tracked: a
/// short probe on a mostly idle thread is rarely stolen from.
inline constexpr double kProbeReferenceUs = 1000.0;

/// One run of the probe: its wall-clock and its thread-CPU duration.
struct ProbeTime {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

/// Runs the probe once on the calling thread (about a millisecond on the
/// host it was tuned on).
ProbeTime RunProbe();

/// The factor that scales a duration measured while the probe took
/// `probe_us` (a median) to the reference host.
inline double ToReference(double probe_us) { return kProbeReferenceUs / probe_us; }

/// Median thread-CPU duration of `count` probes run back to back.
double MedianProbeCpuUs(int count);

}  // namespace diffcbench

#endif  // DIFFCBENCH_HOSTPROBE_H_
