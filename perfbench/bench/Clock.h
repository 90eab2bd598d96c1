//===- perfbench/bench/Clock.h - Cheap calibrated timestamps ----*- C++ -*-===//
//
// Timestamps for spans and per-request latencies. A timestamp is one rdtsc
// (a few ns), calibrated once against std::chrono::steady_clock. The
// benchmark keeps its own clock so a change to the library's telemetry
// clock cannot move its numbers.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLOCK_H
#define PERFBENCH_CLOCK_H

#include <chrono>
#include <cstdint>

// The x64 back end, NativeCpu and the binary translator run host code.
#if !defined(__x86_64__)
#error "perfbench needs an x86-64 host"
#endif

namespace perfbench {

/// Raw timestamp in ticks.
inline uint64_t ticks() { return __builtin_ia32_rdtsc(); }

/// Nanoseconds per tick, measured on first use (about 20 ms).
double nsPerTick();

inline double ticksToNs(uint64_t T) { return double(T) * nsPerTick(); }
inline double ticksToUs(uint64_t T) { return ticksToNs(T) / 1e3; }
inline double ticksToSec(uint64_t T) { return ticksToNs(T) / 1e9; }
inline uint64_t nsToTicks(double Ns) { return uint64_t(Ns / nsPerTick()); }

/// Seconds since an arbitrary epoch, from steady_clock (for coarse phases).
inline double wallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace perfbench

#endif // PERFBENCH_CLOCK_H
