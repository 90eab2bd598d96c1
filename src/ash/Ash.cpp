//===- ash/Ash.cpp - Integrated message-data manipulation -------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "ash/Ash.h"
#include "core/Generate.h"
#include "core/TierStream.h"
#include "core/VRegLayer.h"
#include "support/BitUtils.h"
#include <algorithm>

using namespace vcode;
using namespace vcode::ash;

namespace {

template <typename R> struct LoopRegs {
  R Dst, Src, N, EndMain, EndAll, V, T1, T2, Acc;
};

/// Reverses the bytes of R.V (network byte-order conversion). All masks
/// fit 16-bit immediate fields.
template <typename S> void emitSwap(S &St, LoopRegs<typename S::RegT> &R) {
  St.rshui(R.T1, R.V, 24);
  St.rshui(R.T2, R.V, 8);
  St.andui(R.T2, R.T2, 0xff00);
  St.oru(R.T1, R.T1, R.T2);
  St.andui(R.T2, R.V, 0xff00);
  St.lshui(R.T2, R.T2, 8);
  St.oru(R.T1, R.T1, R.T2);
  St.lshui(R.T2, R.V, 24);
  St.oru(R.V, R.T1, R.T2);
}

/// Accumulates both 16-bit halves of R.V into R.Acc (deferred-fold
/// Internet checksum; safe for buffers up to tens of MB).
template <typename S>
void emitCksumStep(S &St, LoopRegs<typename S::RegT> &R) {
  St.andui(R.T1, R.V, 0xffff);
  St.addu(R.Acc, R.Acc, R.T1);
  St.rshui(R.T1, R.V, 16);
  St.addu(R.Acc, R.Acc, R.T1);
}

/// Folds the deferred sum into 16 bits.
template <typename S>
void emitCksumFold(S &St, LoopRegs<typename S::RegT> &R) {
  for (int I = 0; I < 2; ++I) {
    St.andui(R.T1, R.Acc, 0xffff);
    St.rshui(R.Acc, R.Acc, 16);
    St.addu(R.Acc, R.Acc, R.T1);
  }
}

/// Emits the per-word body at byte offset \p K.
template <typename S>
void emitBody(S &St, LoopRegs<typename S::RegT> &R,
              const std::vector<Step> &Steps, unsigned K, uint32_t XorKey) {
  St.ldui(R.V, R.Src, int64_t(K));
  for (Step S2 : Steps) {
    switch (S2) {
    case Step::Copy:
      St.stui(R.V, R.Dst, int64_t(K));
      break;
    case Step::ByteSwap:
      emitSwap(St, R);
      break;
    case Step::Checksum:
      emitCksumStep(St, R);
      break;
    case Step::Xor:
      // The key is a code-generation-time constant, baked into the
      // instruction stream like DPF's filter constants.
      St.xorui(R.V, R.V, int64_t(XorKey));
      break;
    }
  }
}

/// The whole loop over either tier's stream (see core/TierStream.h).
template <typename S>
void emitLoop(S &St, Reg Arg[3], const std::vector<Step> &Steps,
              unsigned Unroll, bool ScheduleSlots, uint32_t XorKey) {
  LoopRegs<typename S::RegT> R;
  R.Dst = St.fromArg(Type::P, Arg[0]);
  R.Src = St.fromArg(Type::P, Arg[1]);
  R.N = St.fromArg(Type::U, Arg[2]);
  R.EndMain = St.temp(Type::P);
  R.EndAll = St.temp(Type::P);
  R.V = St.temp(Type::U);
  R.T1 = St.temp(Type::U);
  R.T2 = St.temp(Type::U);
  R.Acc = St.temp(Type::U);
  if (!R.Acc.isValid())
    fatalKind(CgErrKind::RegisterPressure, "ash: out of registers");

  bool HasCksum =
      std::find(Steps.begin(), Steps.end(), Step::Checksum) != Steps.end();
  uint32_t IterBytes = 4 * Unroll;

  St.setu(R.Acc, 0);
  St.addp(R.EndAll, R.Src, R.N);
  if (Unroll > 1) {
    St.andui(R.T1, R.N, int64_t(uint32_t(~(IterBytes - 1))));
    St.addp(R.EndMain, R.Src, R.T1);
  } else {
    St.movp(R.EndMain, R.EndAll);
  }

  Label LMain = St.genLabel(), LTail = St.genLabel(), LDone = St.genLabel();

  St.label(LMain);
  St.bgep(R.Src, R.EndMain, LTail);
  for (unsigned K = 0; K < Unroll; ++K)
    emitBody(St, R, Steps, 4 * K, XorKey);
  St.addpi(R.Dst, R.Dst, IterBytes);
  if (ScheduleSlots) {
    St.scheduleDelay([&] { St.jmp(LMain); },
                     [&] { St.addpi(R.Src, R.Src, IterBytes); });
  } else {
    St.addpi(R.Src, R.Src, IterBytes);
    St.jmp(LMain);
  }

  St.label(LTail);
  if (Unroll > 1) {
    St.bgep(R.Src, R.EndAll, LDone);
    emitBody(St, R, Steps, 0, XorKey);
    St.addpi(R.Dst, R.Dst, 4);
    if (ScheduleSlots) {
      St.scheduleDelay([&] { St.jmp(LTail); },
                       [&] { St.addpi(R.Src, R.Src, 4); });
    } else {
      St.addpi(R.Src, R.Src, 4);
      St.jmp(LTail);
    }
  }
  St.label(LDone);
  if (HasCksum)
    emitCksumFold(St, R);
  else
    St.setu(R.Acc, 0);
  St.retu(R.Acc);
  St.finish();
}

} // namespace

/// See Ash.h: one emission attempt of the loop generator into \p CM.
CodePtr vcode::ash::emitLoopInto(VCode &V, CodeMem CM,
                                 const std::vector<Step> &Steps,
                                 unsigned Unroll, bool ScheduleSlots,
                                 uint32_t XorKey, Tier Tr) {
  Reg Arg[3];
  V.lambda("%p%p%u", Arg, LeafHint, CM);
  if (Tr == Tier::Tier1) {
    VRegLayer L(V, Tier::Tier1);
    RecStream St(V, L);
    emitLoop(St, Arg, Steps, Unroll, ScheduleSlots, XorKey);
  } else {
    DirectStream St(V);
    emitLoop(St, Arg, Steps, Unroll, ScheduleSlots, XorKey);
  }
  return V.end();
}

namespace {

/// Generates the loop with generateWithRetry: on buffer overflow the
/// region grows in place (the loop allocates nothing mid-emission, so it
/// is still the arena's last allocation); a failed attempt's region is
/// released before the next.
CodePtr genLoop(Target &Tgt, sim::Memory &Mem, const std::vector<Step> &Steps,
                unsigned Unroll, bool ScheduleSlots,
                uint32_t XorKey = DefaultXorKey, Tier Tr = Tier::Tier0) {
  VCODE_TM_TICK(TmLoop);
  VCode V(Tgt);
  GenerateOptions Opts;
  Opts.InitialBytes = 16384;
  Opts.GenTier = Tr;
  SimAddr Mark = Mem.mark();
  GenerateResult R = generateWithRetry(
      V,
      [&](size_t N) {
        Mem.release(Mark);
        return Mem.allocCode(N);
      },
      [&](CodeMem CM, Tier T2) {
        return emitLoopInto(V, CM, Steps, Unroll, ScheduleSlots, XorKey, T2);
      },
      Opts);
  if (!R.ok())
    fatalKind(R.Err.Kind, "ash: loop generation failed: %s", R.Err.Detail);
  VCODE_TM_SPAN("ash.genloop", TmLoop);
  VCODE_TM_COUNT("ash.loops", 1);
  return R.Code;
}

} // namespace

uint32_t vcode::ash::refRun(const std::vector<Step> &Steps, sim::Memory &M,
                            SimAddr Dst, SimAddr Src, uint32_t Bytes,
                            uint32_t XorKey) {
  uint32_t Acc = 0;
  bool HasCksum = false;
  for (uint32_t Off = 0; Off < Bytes; Off += 4) {
    uint32_t V = M.read<uint32_t>(Src + Off);
    for (Step S : Steps) {
      switch (S) {
      case Step::Copy:
        M.write<uint32_t>(Dst + Off, V);
        break;
      case Step::ByteSwap:
        V = byteSwap32(V);
        break;
      case Step::Checksum:
        Acc += V & 0xffff;
        Acc += V >> 16;
        HasCksum = true;
        break;
      case Step::Xor:
        V ^= XorKey;
        break;
      }
    }
  }
  if (!HasCksum)
    return 0;
  Acc = (Acc & 0xffff) + (Acc >> 16);
  Acc = (Acc & 0xffff) + (Acc >> 16);
  return Acc;
}

SeparateLoops::SeparateLoops(Target &T, sim::Memory &M,
                             const std::vector<Step> &S, uint32_t XorKey)
    : Steps(S) {
  // One single-purpose routine per layer, as in a modular protocol stack.
  CopyLoop = genLoop(T, M, {Step::Copy}, 1, false);
  SwapLoop = genLoop(T, M, {Step::ByteSwap, Step::Copy}, 1, false);
  CksumLoop = genLoop(T, M, {Step::Checksum}, 1, false);
  XorLoop = genLoop(T, M, {Step::Xor, Step::Copy}, 1, false, XorKey);
}

uint32_t SeparateLoops::run(sim::Cpu &Cpu, SimAddr Dst, SimAddr Src,
                            uint32_t Bytes, uint64_t *TotalCycles) {
  using sim::TypedValue;
  uint64_t Cycles = 0;
  auto Call = [&](CodePtr &C, SimAddr D, SimAddr S) {
    TypedValue R = Cpu.call(C.Entry,
                            {TypedValue::fromPtr(D), TypedValue::fromPtr(S),
                             TypedValue::fromUInt(Bytes)},
                            Type::U);
    Cycles += Cpu.lastStats().Cycles;
    return R.asUInt32();
  };

  // Modular execution: each layer makes its own full pass over the
  // message. copy src -> dst, then swap dst in place, then checksum dst;
  // semantically identical to the fused pipelines for the canonical step
  // orders ({ByteSwap, Copy, Checksum} and {Copy, Checksum}).
  bool HasCopy =
      std::find(Steps.begin(), Steps.end(), Step::Copy) != Steps.end();
  bool HasSwap =
      std::find(Steps.begin(), Steps.end(), Step::ByteSwap) != Steps.end();
  bool HasCksum =
      std::find(Steps.begin(), Steps.end(), Step::Checksum) != Steps.end();
  bool HasXor = std::find(Steps.begin(), Steps.end(), Step::Xor) != Steps.end();
  if (!HasCopy)
    fatal("ash: the separate baseline requires a Copy step");

  // The canonical modular order: swap, then scramble, then copy... each
  // pass runs over the data separately; semantics match the fused loops
  // for step orders that transform before Copy/Checksum.
  uint32_t Cksum = 0;
  Call(CopyLoop, Dst, Src);
  if (HasSwap)
    Call(SwapLoop, Dst, Dst);
  if (HasXor)
    Call(XorLoop, Dst, Dst);
  if (HasCksum)
    Cksum = Call(CksumLoop, Dst, Dst);
  if (TotalCycles)
    *TotalCycles = Cycles;
  return Cksum;
}

IntegratedLoop::IntegratedLoop(Target &T, sim::Memory &M,
                               const std::vector<Step> &Steps,
                               uint32_t XorKey) {
  // Straightforward single-pass loop, compiled-C quality: no unrolling,
  // no delay-slot scheduling.
  Code = genLoop(T, M, Steps, 1, false, XorKey);
}

void Pipeline::compile(unsigned Unroll) {
  if (Steps.empty())
    fatal("ash: empty pipeline");
  Code = genLoop(Tgt, Mem, Steps, Unroll, /*ScheduleSlots=*/true, XorKey,
                 GenTier);
}
