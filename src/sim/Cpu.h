//===- sim/Cpu.h - CPU simulator interface ----------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of the per-ISA simulators (MIPS, SPARC, Alpha) and
/// the machine configurations named after the paper's evaluation hosts.
/// Calls into generated code marshal typed arguments according to the same
/// CallConv data the backend used, so the simulator and the generator can
/// never disagree about the convention.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SIM_CPU_H
#define VCODE_SIM_CPU_H

#include "core/CallConv.h"
#include "core/CodeBuffer.h"
#include "core/Types.h"
#include "sim/Memory.h"
#include <cstring>
#include <initializer_list>
#include <vector>

namespace vcode {
namespace sim {

/// Cost-model and cache parameters of a simulated machine.
struct MachineConfig {
  const char *Name = "generic";
  double ClockMHz = 25.0;
  bool ModelCaches = true;
  uint32_t ICacheBytes = 64 * 1024;
  uint32_t DCacheBytes = 64 * 1024;
  uint32_t LineBytes = 16;
  uint32_t MissPenalty = 15; ///< cycles per cache miss
  uint32_t MulCycles = 12;
  uint32_t DivCycles = 35;
  uint32_t FpAddCycles = 2;
  uint32_t FpMulCycles = 5;
  uint32_t FpDivCycles = 19;
};

/// DECstation 3100 (16.67 MHz R2000, 64K/64K direct-mapped I/D caches).
inline MachineConfig dec3100Config() {
  MachineConfig C;
  C.Name = "DEC3100";
  C.ClockMHz = 16.67;
  C.MissPenalty = 6;
  C.MulCycles = 12;
  C.DivCycles = 35;
  return C;
}

/// DECstation 5000/200 (25 MHz R3000, 64K/64K direct-mapped I/D caches).
inline MachineConfig dec5000Config() {
  MachineConfig C;
  C.Name = "DEC5000";
  C.ClockMHz = 25.0;
  C.MissPenalty = 15;
  C.MulCycles = 12;
  C.DivCycles = 35;
  return C;
}

/// A typed value crossing the call boundary.
struct TypedValue {
  Type Ty = Type::V;
  uint64_t Bits = 0;

  static TypedValue fromInt(int64_t V, Type Ty = Type::I) {
    return TypedValue{Ty, uint64_t(V)};
  }
  static TypedValue fromUInt(uint64_t V, Type Ty = Type::U) {
    return TypedValue{Ty, V};
  }
  static TypedValue fromPtr(SimAddr A) { return TypedValue{Type::P, A}; }
  static TypedValue fromFloat(float V) {
    uint32_t B;
    std::memcpy(&B, &V, 4);
    return TypedValue{Type::F, B};
  }
  static TypedValue fromDouble(double V) {
    uint64_t B;
    std::memcpy(&B, &V, 8);
    return TypedValue{Type::D, B};
  }

  int32_t asInt32() const { return int32_t(uint32_t(Bits)); }
  uint32_t asUInt32() const { return uint32_t(Bits); }
  int64_t asInt64() const { return int64_t(Bits); }
  uint64_t asUInt64() const { return Bits; }
  float asFloat() const {
    float V;
    uint32_t B = uint32_t(Bits);
    std::memcpy(&V, &B, 4);
    return V;
  }
  double asDouble() const {
    double V;
    std::memcpy(&V, &Bits, 8);
    return V;
  }
};

/// Execution statistics of one call (or, via Cpu::cumulativeStats, of
/// every call since the last reset).
struct RunStats {
  uint64_t Instrs = 0;
  uint64_t Cycles = 0;
  uint64_t ICacheMisses = 0;
  uint64_t DCacheMisses = 0;
  uint64_t LoadStalls = 0;

  /// Wall time in microseconds at a given clock rate.
  double microseconds(double ClockMHz) const {
    return double(Cycles) / ClockMHz;
  }

  /// Adds another run's numbers into this one.
  void accumulate(const RunStats &S) {
    Instrs += S.Instrs;
    Cycles += S.Cycles;
    ICacheMisses += S.ICacheMisses;
    DCacheMisses += S.DCacheMisses;
    LoadStalls += S.LoadStalls;
  }
};

/// Common interface of the ISA simulators.
class Cpu {
public:
  virtual ~Cpu();

  /// Calls generated code at \p Entry with the \p NumArgs arguments at
  /// \p Args under convention \p CC, runs to completion, and returns the
  /// result interpreted as \p RetTy. The argument list lives in
  /// caller-owned storage and no Cpu allocates per call, which matters
  /// when a dispatch loop makes millions of sub-microsecond calls.
  virtual TypedValue callWithConvSpan(const CallConv &CC, SimAddr Entry,
                                      const TypedValue *Args, size_t NumArgs,
                                      Type RetTy) = 0;

  /// callWithConvSpan over a vector of arguments.
  TypedValue callWithConv(const CallConv &CC, SimAddr Entry,
                          const std::vector<TypedValue> &Args, Type RetTy) {
    return callWithConvSpan(CC, Entry, Args.data(), Args.size(), RetTy);
  }

  /// Calls under the target's default convention.
  TypedValue call(SimAddr Entry, const std::vector<TypedValue> &Args,
                  Type RetTy = Type::I) {
    return callWithConv(defaultConv(), Entry, Args, RetTy);
  }

  /// Braced argument lists take the span path: no heap allocation.
  TypedValue call(SimAddr Entry, std::initializer_list<TypedValue> Args,
                  Type RetTy = Type::I) {
    return callWithConvSpan(defaultConv(), Entry, Args.begin(), Args.size(),
                            RetTy);
  }

  /// The target's default calling convention.
  virtual const CallConv &defaultConv() const = 0;

  /// Invalidates both caches (Table 4's "uncached" rows).
  virtual void flushCaches() = 0;
  /// Pre-loads [A, A+Len) into the data cache.
  virtual void warmData(SimAddr A, size_t Len) = 0;

  /// Statistics of the most recent call(). Overwritten by every call;
  /// dispatch loops that want a total over many calls (e.g. classifying a
  /// packet stream) read cumulativeStats() instead of summing snapshots.
  /// The Table 3 DPF bench bills whole dispatch loops and sums per-call
  /// values explicitly; the Table 4 ASH bench bills single handler runs
  /// and uses lastStats() directly.
  virtual const RunStats &lastStats() const = 0;

  /// Aggregate statistics over every call() since construction (or the
  /// last resetCumulativeStats()): repeated runs accumulate instead of
  /// overwriting.
  const RunStats &cumulativeStats() const { return CumStats; }
  void resetCumulativeStats() { CumStats = RunStats(); }
  /// Upper bound on executed instructions per call (runaway guard).
  virtual void setInstrLimit(uint64_t N) = 0;
  /// The machine configuration in effect.
  virtual const MachineConfig &config() const = 0;

  /// Gives this Cpu a private stack: subsequent calls start with SP = \p A
  /// (16-byte aligned down) instead of the arena's shared default stack.
  /// Required when several Cpus execute concurrently over one Memory —
  /// pair with Memory::allocStack(). Pass 0 to restore the default.
  void setStackTop(SimAddr A) { StackTopOverride = A; }

protected:
  /// Initial SP for a fresh activation: the per-Cpu override when set,
  /// else the arena's shared stack region.
  SimAddr initialSp(const Memory &M) const {
    return StackTopOverride ? (StackTopOverride & ~SimAddr(15))
                            : M.stackTop();
  }

  /// Called by each simulator at the end of a call with that run's
  /// stats: folds them into the cumulative totals and surfaces them in
  /// the process-wide telemetry registry, so generated-code cost (cycles,
  /// stalls, cache misses) and generation cost read off one report.
  void finishRun(const RunStats &S);

  /// Folds one run into the cumulative totals without touching the
  /// process-wide telemetry registry. Substrates whose entire call is
  /// tens of nanoseconds (binary translation, native dispatch) bill only
  /// the counters that apply to them: no timing model runs there.
  void accumulateStats(const RunStats &S) { CumStats.accumulate(S); }

private:
  RunStats CumStats;
  SimAddr StackTopOverride = 0;
};

} // namespace sim
} // namespace vcode

#endif // VCODE_SIM_CPU_H
