//===- x64/NativeCpu.cpp - Direct host execution -----------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "x64/NativeCpu.h"
#include "support/Telemetry.h"
#include "x64/X64Target.h"
#include <bit>
#include <cstring>

using namespace vcode;
using namespace vcode::x64;
using sim::TypedValue;

NativeCpu::NativeCpu(sim::Memory &M) : Mem(M) {
  Cfg.Name = "host-x64";
  Cfg.ClockMHz = 1000.0; // nominal: native runs are wall-clock timed
  Cfg.ModelCaches = false;
  if (!M.isNative())
    fatalKind(CgErrKind::ApiMisuse,
              "native: NativeCpu needs a sim::Memory in native mode "
              "(construct it with sim::Memory::Native)");
}

const CallConv &NativeCpu::defaultConv() const {
  return x64TargetInfo().DefaultCC;
}

namespace {

/// SysV argument-register orders the trampoline can realize. Position N of
/// the trampoline's parameter list lands in IntOrder[N] / xmmN.
constexpr unsigned IntOrder[6] = {RDI, RSI, RDX, RCX, R8, R9};

/// The universal trampoline shape: the SysV ABI assigns integer parameters
/// to rdi,rsi,rdx,rcx,r8,r9 and double parameters to xmm0..7 in order,
/// independent of their interleaving, so one C call with every register
/// parameter populated realizes any register-only argument list. The
/// trailing uint64_t parameters are all memory-class (the register sets
/// are exhausted by then) and land at [rsp], [rsp+8], ... in order —
/// exactly the outgoing-argument layout ArgWalker assigns, since on
/// this target every stack argument occupies one naturally-aligned 8-byte
/// slot. Populating all eight realizes any argument list with up to 64
/// bytes of stack arguments; the callee reads only the slots its signature
/// names.
constexpr size_t MaxStackSlots = 8;
using IntFn = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                           uint64_t, double, double, double, double, double,
                           double, double, double, uint64_t, uint64_t,
                           uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                           uint64_t);
using FpFn = double (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                        uint64_t, double, double, double, double, double,
                        double, double, double, uint64_t, uint64_t, uint64_t,
                        uint64_t, uint64_t, uint64_t, uint64_t, uint64_t);

int intSlotOf(Reg R) {
  for (int I = 0; I < 6; ++I)
    if (R.Num == IntOrder[I])
      return I;
  return -1;
}

} // namespace

TypedValue NativeCpu::callWithConvSpan(const CallConv &CC, SimAddr Entry,
                                       const TypedValue *Args, size_t NumArgs,
                                       Type RetTy) {
#ifndef __x86_64__
  (void)CC;
  (void)Entry;
  (void)Args;
  (void)NumArgs;
  (void)RetTy;
  fatalKind(CgErrKind::ApiMisuse,
            "native: direct execution requires an x86-64 host");
#else
  if (!Mem.isExecutable(Entry))
    fatalKind(CgErrKind::SimFault,
              "native: entry 0x%llx is not published executable code "
              "(v_end publishes; did generation fail?)",
              (unsigned long long)Entry);

  // Place each argument by the convention's one placement rule (ArgWalker),
  // without materializing the ArgLoc vector: this path runs once per
  // dispatched message. Every stack argument takes one 8-byte slot.
  uint64_t IArg[6] = {0, 0, 0, 0, 0, 0};
  double DArg[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  uint64_t SArg[MaxStackSlots] = {0, 0, 0, 0, 0, 0, 0, 0};
  ArgWalker Walk(CC, 8);
  for (size_t I = 0; I < NumArgs; ++I) {
    const TypedValue &A = Args[I];
    // Pass the bit pattern: an F argument occupies the low 32 bits of its
    // xmm register (or stack slot), exactly where the callee reads it.
    uint64_t Bits = A.Ty == Type::F ? (A.Bits & 0xffffffffu) : A.Bits;
    ArgLoc L = Walk.next(A.Ty);
    if (L.OnStack) {
      size_t Slot = size_t(L.StackOff) / 8;
      if (Slot >= MaxStackSlots)
        fatalKind(CgErrKind::ApiMisuse,
                  "native: argument %zu needs stack slot %zu; the host "
                  "trampoline passes at most %zu stack slots",
                  I + 1, Slot + 1, MaxStackSlots);
      SArg[Slot] = Bits;
    } else if (isFpType(A.Ty)) {
      if (L.R.Num >= 8)
        fatalKind(CgErrKind::ApiMisuse,
                  "native: fp argument register xmm%u is outside the SysV "
                  "argument set",
                  unsigned(L.R.Num));
      DArg[L.R.Num] = std::bit_cast<double>(Bits);
    } else {
      int Slot = intSlotOf(L.R);
      if (Slot < 0)
        fatalKind(CgErrKind::ApiMisuse,
                  "native: integer argument register is outside the SysV "
                  "argument set");
      IArg[Slot] = Bits;
    }
  }

  TypedValue R;
  R.Ty = RetTy;
  auto P = uintptr_t(Entry);
  if (isFpType(RetTy)) {
    if (CC.FpRet.Num != 0)
      fatalKind(CgErrKind::ApiMisuse,
                "native: fp results must come back in xmm0");
    double D = reinterpret_cast<FpFn>(P)(
        IArg[0], IArg[1], IArg[2], IArg[3], IArg[4], IArg[5], DArg[0],
        DArg[1], DArg[2], DArg[3], DArg[4], DArg[5], DArg[6], DArg[7],
        SArg[0], SArg[1], SArg[2], SArg[3], SArg[4], SArg[5], SArg[6],
        SArg[7]);
    uint64_t Bits = std::bit_cast<uint64_t>(D);
    R.Bits = RetTy == Type::F ? (Bits & 0xffffffffu) : Bits;
  } else {
    if (RetTy != Type::V && CC.IntRet.Num != RAX)
      fatalKind(CgErrKind::ApiMisuse,
                "native: integer results must come back in rax");
    uint64_t V = reinterpret_cast<IntFn>(P)(
        IArg[0], IArg[1], IArg[2], IArg[3], IArg[4], IArg[5], DArg[0],
        DArg[1], DArg[2], DArg[3], DArg[4], DArg[5], DArg[6], DArg[7],
        SArg[0], SArg[1], SArg[2], SArg[3], SArg[4], SArg[5], SArg[6],
        SArg[7]);
    // Canonicalize like the simulators do: 32-bit results sign/zero-extend
    // (the generated code's upper 32 bits are unspecified for i/u).
    switch (RetTy) {
    case Type::V:
      R.Bits = 0;
      break;
    case Type::I:
    case Type::C:
    case Type::S:
      R.Bits = uint64_t(int64_t(int32_t(uint32_t(V))));
      break;
    case Type::U:
    case Type::UC:
    case Type::US:
      R.Bits = uint64_t(uint32_t(V));
      break;
    default: // L, UL, P
      R.Bits = V;
      break;
    }
  }
  // Native runs have no simulated statistics to fold in: lastStats() and
  // cumulativeStats() stay zero, and the call is billed to one dedicated
  // batched counter instead of the six per-call sim.* telemetry adds.
  Last = sim::RunStats();
  VCODE_TM_COUNT_BATCHED("native.calls", 1);
  return R;
#endif
}
