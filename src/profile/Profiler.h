//===- profile/Profiler.h - Sampling profiler for generated code -*- C++ -*-==//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two samplers feed CodeMap heat tallies:
///
/// - Native: a SIGPROF/itimer handler captures the interrupted RIP into a
///   lock-free ring of atomic slots (async-signal-safe: the handler does
///   one relaxed fetch_add and one relaxed store). Samples are attributed
///   through CodeMap::lookup at drain time (stop, report, and before
///   any CodeMap entry is removed), so native and DBT frames — real host
///   code — show up by name, also after their region is retired.
///   Linux/x86-64 only; startSampler() reports false elsewhere.
///
/// - Virtual: the simulators sample their own guest PC every
///   kVirtualSamplePeriod instructions via VCODE_PF_SAMPLE_VPC and
///   attribute it by host address: the PC converted through the arena it
///   runs in, so two arenas at the same guest base never share heat.
///   Ordinary thread context, so attribution is immediate (one locked
///   CodeMap lookup + relaxed Samples increment).
///
/// Everything here compiles out under -DVCODE_TELEMETRY=OFF: the macro
/// expands to nothing and the functions become inline no-ops, so the
/// simulator dispatch loops carry zero cost.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_PROFILE_PROFILER_H
#define VCODE_PROFILE_PROFILER_H

#include "profile/CodeMap.h"
#include <cstdint>
#include <string>

namespace vcode {
namespace profile {

/// Virtual-PC sampling period (instructions); power of two so the gate
/// is one AND on the dispatch path.
constexpr uint64_t kVirtualSamplePeriod = 4096;

struct SamplerStats {
  uint64_t VirtualSamples = 0;    ///< virtual-PC samples taken
  uint64_t VirtualAttributed = 0; ///< ... that hit a CodeMap entry
  uint64_t NativeSamples = 0;     ///< SIGPROF ticks captured
  uint64_t NativeAttributed = 0;  ///< ... whose RIP hit a CodeMap entry
  uint64_t NativeDropped = 0;     ///< ring overruns between drains
};

#if VCODE_TELEMETRY_ENABLED

/// True while a profiling session is open (gates both samplers).
bool samplerActive();

/// Opens a profiling session: enables virtual-PC sampling everywhere
/// and, on Linux/x86-64, arms an ITIMER_PROF at \p Hz for native
/// sampling. Returns true if the native timer armed; virtual sampling
/// is active either way. Idempotent while running.
bool startSampler(unsigned Hz = 997);

/// Disarms the timer, drains the native ring through CodeMap, and
/// closes the session. Safe to call when not running.
void stopSampler();

/// Attributes one virtual-PC sample, given as the host address of the
/// sampled instruction, immediately. Called from the simulators through
/// VCODE_PF_SAMPLE_VPC; ordinary thread context.
void recordVirtualPc(uintptr_t HostPc);

/// Attributes the native samples taken so far. CodeMap calls it before
/// an entry leaves the map, so a sample is charged to the region that was
/// live when it was taken, never to a later one at the same address. The
/// caller must not hold the CodeMap lock (the drain takes it). One relaxed
/// compare when nothing is pending.
void drainPendingSamples();

/// Cumulative tallies for the current process (drains the native ring
/// first so NativeAttributed is current).
SamplerStats samplerStats();

/// Appends the profiler section: sampler tallies + hottest entries.
void appendProfileReport(std::string &Out);

/// --profile-report: start sampling now and print the profile to
/// stderr at exit (idempotent).
void requestProfileReport();

/// --dump-code=<name|all>: turn on CodeMap byte capture now and print
/// annotated disassembly of the matching entries to stdout at exit.
void requestDumpCode(const std::string &NameOrAll);

/// The atexit hook behind the request* entry points (exposed so tests
/// can invoke the same path deterministically).
void profileAtExit();

/// Zeroes the sampler tallies and drops pending ring samples. Tests
/// only, same rationale as CodeMap::resetForTest.
void resetSamplerForTest();

/// One virtual-PC sample every kVirtualSamplePeriod ticks of Clk, only
/// while a session is open. The common case is one AND, one compare,
/// and one relaxed load; \p HostPc (the sampled PC's host address) is
/// evaluated only when a sample is taken.
#define VCODE_PF_SAMPLE_VPC(Clk, HostPc)                                     \
  do {                                                                       \
    if (((Clk) & (::vcode::profile::kVirtualSamplePeriod - 1)) == 0 &&       \
        ::vcode::profile::samplerActive())                                   \
      ::vcode::profile::recordVirtualPc(HostPc);                             \
  } while (0)

#else // !VCODE_TELEMETRY_ENABLED

inline bool samplerActive() { return false; }
inline bool startSampler(unsigned = 997) { return false; }
inline void stopSampler() {}
inline void recordVirtualPc(uintptr_t) {}
inline void drainPendingSamples() {}
inline SamplerStats samplerStats() { return {}; }
inline void appendProfileReport(std::string &) {}
inline void requestProfileReport() {}
inline void requestDumpCode(const std::string &) {}
inline void profileAtExit() {}
inline void resetSamplerForTest() {}

// Arguments are not evaluated: the clock increment itself compiles out.
#define VCODE_PF_SAMPLE_VPC(Clk, HostPc)                                     \
  do {                                                                       \
  } while (0)

#endif // VCODE_TELEMETRY_ENABLED

} // namespace profile
} // namespace vcode

#endif // VCODE_PROFILE_PROFILER_H
