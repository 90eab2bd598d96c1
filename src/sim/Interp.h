//===- sim/Interp.h - Interpreter shell shared by the simulators -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything an instruction-set simulator does around executing one
/// instruction, written once for MIPS, SPARC and Alpha. `Interp<Derived>`
/// owns the memory, the machine configuration, the split I/D caches and
/// the run statistics. It supplies instruction fetch and naturally aligned
/// loads and stores (each billing the miss penalty), argument marshalling
/// through the shared placement walker (core/CallConv.h), the run loop
/// (instruction limit, virtual-PC sampler, stop address) and the
/// end-of-call accounting. One shared pipeline with the ISA parts plugged
/// in, as in mgsim. An ISA supplies, as members of Derived:
///
///   - the constants `IsaName`, `WordBytes` and `DefaultInstrLimit`;
///   - its register file and `void step()`, which executes the
///     instruction at PC;
///   - `resetForCall(CC, Entry, Sp)`, which clears the per-call state and
///     sets the stack pointer, the link register and any next-PC;
///   - its argument and return width rules: `setArg(Reg, TypedValue)`,
///     `storeArg(Memory &, SimAddr Slot, TypedValue)` and
///     `resultBits(CC, RetTy)`.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SIM_INTERP_H
#define VCODE_SIM_INTERP_H

#include "profile/Profiler.h"
#include "sim/Cache.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include <cstring>

namespace vcode {
namespace sim {

/// Raises "<isa> sim: unaligned <N>-byte <load|store> at 0x...".
[[noreturn]] void unalignedAccess(const char *Isa, SimAddr A, unsigned Bytes,
                                  bool IsStore);
/// Raises "<isa> sim: instruction limit (N) exceeded; runaway code?".
[[noreturn]] void instrLimitExceeded(const char *Isa, uint64_t Limit);

/// The interpreter shell: see the file comment for what Derived supplies.
template <class Derived> class Interp : public Cpu {
public:
  TypedValue callWithConvSpan(const CallConv &CC, SimAddr Entry,
                              const TypedValue *Args, size_t NumArgs,
                              Type RetTy) override {
    Derived &D = static_cast<Derived &>(*this);
    Stats = RunStats();
    const SimAddr Sp = initialSp(Mem);
    D.resetForCall(CC, Entry, Sp);
    ArgWalker Walk(CC, Derived::WordBytes);
    for (size_t I = 0; I < NumArgs; ++I) {
      ArgLoc L = Walk.next(Args[I].Ty);
      if (L.OnStack)
        D.storeArg(Mem, Sp + uint32_t(L.StackOff), Args[I]);
      else
        D.setArg(L.R, Args[I]);
    }

    PC = Entry;
    while (PC != StopAddr) {
      checkLimit();
      // Virtual-PC sampling (profile/Profiler.h), by the PC's host
      // address: PfClock is cumulative across calls (Stats resets per
      // call) so the sampling phase does not realign with every call.
      VCODE_PF_SAMPLE_VPC(++PfClock, uintptr_t(Mem.hostPtr(PC, 4)));
      D.step();
    }

    TypedValue Res{RetTy, D.resultBits(CC, RetTy)};
    finishRun(Stats);
    return Res;
  }

  const CallConv &defaultConv() const override { return DefaultCC; }
  void flushCaches() override {
    ICache.flush();
    DCache.flush();
  }
  void warmData(SimAddr A, size_t Len) override { DCache.warm(A, Len); }
  const RunStats &lastStats() const override { return Stats; }
  const MachineConfig &config() const override { return Cfg; }
  void setInstrLimit(uint64_t N) override { InstrLimit = N; }

  /// Sentinel return address terminating a call (link register seed).
  static constexpr SimAddr StopAddr = 0xFFFF0000;

protected:
  Interp(Memory &M, const MachineConfig &C, const CallConv &CC)
      : Mem(M), Cfg(C), InstrLimit(Derived::DefaultInstrLimit),
        DefaultCC(CC) {
    ICache.configure(Cfg.ICacheBytes, Cfg.LineBytes);
    DCache.configure(Cfg.DCacheBytes, Cfg.LineBytes);
  }

  /// Reads the instruction word at \p A through the instruction cache.
  uint32_t fetch(SimAddr A) {
    if (Cfg.ModelCaches && !ICache.access(A)) {
      Stats.Cycles += Cfg.MissPenalty;
      ++Stats.ICacheMisses;
    }
    return Mem.read<uint32_t>(A);
  }

  /// A naturally aligned load of a \p T through the data cache; a signed
  /// \p T sign-extends when the caller widens it.
  template <class T> T load(SimAddr A) {
    accessData(A, sizeof(T), false);
    return Mem.read<T>(A);
  }

  /// A naturally aligned store of \p V through the data cache.
  template <class T> void store(SimAddr A, T V) {
    accessData(A, sizeof(T), true);
    Mem.write<T>(A, V);
  }

  /// Faults once the call has retired its instruction budget.
  void checkLimit() const {
    if (Stats.Instrs >= InstrLimit)
      instrLimitExceeded(Derived::IsaName, InstrLimit);
  }

  Memory &Mem;
  MachineConfig Cfg;
  Cache ICache, DCache;
  RunStats Stats;
  uint64_t InstrLimit;
  uint64_t PfClock = 0; ///< cumulative instruction clock for the sampler
  SimAddr PC = 0;

private:
  /// Bills the data-cache access, then applies the one alignment rule:
  /// an access of \p Bytes faults unless \p A is a multiple of it.
  void accessData(SimAddr A, unsigned Bytes, bool IsStore) {
    if (Cfg.ModelCaches && !DCache.access(A)) {
      Stats.Cycles += Cfg.MissPenalty;
      ++Stats.DCacheMisses;
    }
    if (A & (Bytes - 1))
      unalignedAccess(Derived::IsaName, A, Bytes, IsStore);
  }

  const CallConv &DefaultCC;
};

/// The register file and argument/return width rules of the 32-bit ISAs
/// (MIPS and SPARC): 32 integer registers and 32 single-precision FPRs,
/// a double in an even/odd pair, low word first. Arguments and results
/// travel as their low word; a signed integer result is sign-extended.
/// The static forms serve the MIPS binary translator, whose guest state
/// has the same layout.
struct Regs32 {
  uint32_t R[32] = {};
  uint32_t FPR[32] = {};

  float getS(unsigned F) const {
    float V;
    std::memcpy(&V, &FPR[F], 4);
    return V;
  }
  void setS(unsigned F, float V) { std::memcpy(&FPR[F], &V, 4); }
  double getD(unsigned F) const {
    uint64_t Bits = uint64_t(FPR[F]) | (uint64_t(FPR[F + 1]) << 32);
    double V;
    std::memcpy(&V, &Bits, 8);
    return V;
  }
  void setD(unsigned F, double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    FPR[F] = uint32_t(Bits);
    FPR[F + 1] = uint32_t(Bits >> 32);
  }

  static void setArg(uint32_t *R, uint32_t *FPR, Reg Loc,
                     const TypedValue &A) {
    if (Loc.isInt()) {
      R[Loc.Num] = uint32_t(A.Bits);
      return;
    }
    FPR[Loc.Num] = uint32_t(A.Bits);
    if (A.Ty == Type::D)
      FPR[Loc.Num + 1] = uint32_t(A.Bits >> 32);
  }
  void setArg(Reg Loc, const TypedValue &A) { setArg(R, FPR, Loc, A); }

  static void storeArg(Memory &M, SimAddr Slot, const TypedValue &A) {
    M.write<uint32_t>(Slot, uint32_t(A.Bits));
    if (A.Ty == Type::D)
      M.write<uint32_t>(Slot + 4, uint32_t(A.Bits >> 32));
  }

  static uint64_t resultBits(const uint32_t *R, const uint32_t *FPR,
                             const CallConv &CC, Type RetTy) {
    if (RetTy == Type::D)
      return uint64_t(FPR[CC.FpRet.Num]) |
             (uint64_t(FPR[CC.FpRet.Num + 1]) << 32);
    if (RetTy == Type::F)
      return FPR[CC.FpRet.Num];
    if (isSignedType(RetTy))
      return uint64_t(int64_t(int32_t(R[CC.IntRet.Num])));
    return R[CC.IntRet.Num];
  }
  uint64_t resultBits(const CallConv &CC, Type RetTy) const {
    return resultBits(R, FPR, CC, RetTy);
  }
};

} // namespace sim
} // namespace vcode

#endif // VCODE_SIM_INTERP_H
