//===- perfbench/bench/HostSpeed.h - Reference-speed timings ----*- C++ -*-===//
//
// The end-to-end timings are scaled to a reference host speed. The shared
// 4-vCPU hosts these numbers come from change speed by up to 1.7x for
// minutes at a time as their neighbours come and go, so a whole ten-seed
// round of one workload can run fast or slow. A fixed reference loop in
// the benchmark's own code (a small bytecode interpreter that calls
// nothing in the library, compiled with pinned flags) is timed every
// ProbeEveryMs by each thread that measures, between timed units of work;
// each timing a thread takes after a probe is multiplied by its
// hostFactor(), the speed of its vCPU relative to the reference. A change to the library moves a
// scaled timing as it moves the raw one; a change of host speed moves the
// raw timing and the probe together. Each run's table prints the factor.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include <vector>

namespace perfbench {

/// How often the reference loop is timed while a workload runs.
inline constexpr double ProbeEveryMs = 50;
/// ns per step of the reference loop at the reference speed: about its
/// median on the 4-vCPU x86-64 KVM guest (Intel Xeon, g++ 12, -O2) the
/// benchmark was tuned on. Any constant would do; only ratios are compared.
inline constexpr double ReferenceProbeNs = 14.0;

/// ns per step of the reference loop now: the fastest of three timings of
/// 16384 steps (about 0.25 ms each), so an interrupt does not count.
double probeNs();
/// Times the reference loop if this thread's last probe is older than
/// ProbeEveryMs (or there was none) and updates its hostFactor(). Call
/// from a measuring thread, outside timed spans.
void probeIfDue();
/// ReferenceProbeNs over this thread's last probe's ns per step: above 1
/// when the host runs faster than the reference. 1 before the first probe.
double hostFactor();
/// Every factor probeIfDue() has measured, on any thread.
std::vector<double> hostFactors();

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
