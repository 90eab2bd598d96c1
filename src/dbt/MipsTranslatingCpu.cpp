//===- dbt/MipsTranslatingCpu.cpp - Drop-in translating MIPS CPU -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "dbt/MipsTranslatingCpu.h"
#include "profile/Profiler.h"
#include "support/Telemetry.h"
#include <bit>
#include <cstring>

using namespace vcode;
using namespace vcode::dbt;
using sim::RunStats;
using sim::TypedValue;

MipsTranslatingCpu::MipsTranslatingCpu(sim::Memory &M, sim::MachineConfig Cfg)
    : MipsTranslatingCpu(M, std::make_shared<TranslationEngine>(M), Cfg) {}

MipsTranslatingCpu::MipsTranslatingCpu(sim::Memory &M,
                                       std::shared_ptr<TranslationEngine> Eng,
                                       sim::MachineConfig Cfg)
    : Mem(M), Interp(M, Cfg), Engine(std::move(Eng)),
      Avail(Engine->available()) {}

SimAddr MipsTranslatingCpu::interpUnit(SimAddr At) {
  VCODE_TM_COUNT("dbt.fallback_units", 1);
  sim::MipsSim::ArchState S;
  std::memcpy(S.R, GS.R, sizeof(S.R));
  std::memcpy(S.FPR, GS.FPR, sizeof(S.FPR));
  S.HI = GS.HI;
  S.LO = GS.LO;
  S.FpCond = GS.FpCond != 0;
  Interp.importState(S);
  Interp.seedRun(GS.Instrs); // the limit fatal fires at the exact count
  SimAddr Next = Interp.stepUnit(At);
  Interp.exportState(S);
  std::memcpy(GS.R, S.R, sizeof(GS.R));
  std::memcpy(GS.FPR, S.FPR, sizeof(GS.FPR));
  GS.HI = S.HI;
  GS.LO = S.LO;
  GS.FpCond = S.FpCond ? 1 : 0;
  GS.Instrs = Interp.retiredInstrs();
  return Next;
}

void MipsTranslatingCpu::insertSlot(SimAddr PC, TranslatedFn Fn) {
  size_t I = slotOf(PC);
  while (Index[I].PC != EmptyPC)
    I = (I + 1) & (Index.size() - 1);
  Index[I] = Slot{PC, Fn};
}

void MipsTranslatingCpu::rebuildIndex(size_t Slots) {
  Index.assign(Slots, Slot());
  IndexShift = 64 - unsigned(std::countr_zero(Slots));
  for (const Held &H : Pins)
    insertSlot(H.PC, H.Fn);
}

TranslatedFn MipsTranslatingCpu::translateAndIndex(SimAddr PC, uint64_t Gen) {
  TranslationEngine::Translation T = Engine->translateStamped(PC, Gen);
  std::shared_ptr<const CodeCache::Version> Pin = T.Code.pin();
  if (!Pin || !Pin->Code.isValid()) {
    VCODE_TM_COUNT("dbt.translate_failures", 1);
    return nullptr;
  }
  auto Fn = reinterpret_cast<TranslatedFn>(uintptr_t(Pin->Code.Entry));
  Pins.push_back(Held{PC, T.Lo, T.Hi, T.Stamp, Fn, std::move(Pin)});
  // At most half full: past that, double and rehash.
  if (2 * Pins.size() > Index.size())
    rebuildIndex(2 * Index.size());
  else
    insertSlot(PC, Fn);
  return Fn;
}

void MipsTranslatingCpu::dropStale() {
  size_t Dropped = std::erase_if(Pins, [&](const Held &H) {
    return Mem.codeStamp(H.Lo, H.Hi) != H.Stamp;
  });
  if (!Dropped)
    return;
  VCODE_TM_COUNT("dbt.invalidations", Dropped);
  rebuildIndex(Index.size());
}

TypedValue MipsTranslatingCpu::callWithConvSpan(const CallConv &CC,
                                                SimAddr Entry,
                                                const TypedValue *Args,
                                                size_t NumArgs, Type RetTy) {
  if (!Avail) {
    // Unsupported host or out-of-range guest arena: the whole call runs
    // on the embedded reference interpreter (which bills full timing
    // statistics and its own sim.* telemetry; we refold the stats so
    // cumulativeStats() stays coherent without double-billing the
    // registry).
    Interp.setStackTop(initialSp(Mem));
    TypedValue Res =
        Interp.callWithConvSpan(CC, Entry, Args, NumArgs, RetTy);
    Stats = Interp.lastStats();
    accumulateStats(Stats);
    return Res;
  }

  // Marshal as the interpreter does: the same register reset and the
  // shared placement walker.
  const SimAddr Sp = initialSp(Mem);
  sim::MipsSim::resetRegsForCall(GS, CC, Sp);
  ArgWalker Walk(CC, sim::MipsSim::WordBytes);
  for (size_t I = 0; I < NumArgs; ++I) {
    ArgLoc L = Walk.next(Args[I].Ty);
    if (L.OnStack)
      sim::Regs32::storeArg(Mem, Sp + uint32_t(L.StackOff), Args[I]);
    else
      sim::Regs32::setArg(GS.R, GS.FPR, L.R, Args[I]);
  }

  GS.Instrs = 0;
  GS.InstrLimit = InstrLimit;
  if (!HostBase)
    HostBase = Mem.hostPtr(Mem.base(), Mem.size());

  // One generation check per call: guest code is published from the host
  // side between calls (translated code cannot republish regions), so the
  // generation cannot move under a running call. A concurrent publisher's
  // bump is observed by the next call — the strongest ordering a publish
  // racing with execution can ask for.
  uint64_t Gen = Mem.codeGeneration();
  if (Gen != LocalGen) {
    dropStale();
    LocalGen = Gen;
  }

  const SimAddr Stop = sim::MipsSim::StopAddr;
  uint64_t PC = Entry, Dispatches = 0;
  while (PC != Stop) {
    if (PC & DbtInterpTag) {
      PC = interpUnit(SimAddr(PC & DbtPcMask));
      continue;
    }
    size_t I = slotOf(PC), Mask = Index.size() - 1;
    while (Index[I].PC != PC && Index[I].PC != EmptyPC)
      I = (I + 1) & Mask;
    TranslatedFn Fn = Index[I].Fn;
    if (Index[I].PC != PC && !(Fn = translateAndIndex(PC, Gen))) {
      PC = interpUnit(PC);
      continue;
    }
    ++Dispatches;
    VCODE_PF_SAMPLE_VPC(++PfClock, uintptr_t(Mem.hostPtr(SimAddr(PC), 4)));
    PC = Fn(&GS, HostBase);
  }

  TypedValue Res{RetTy, sim::Regs32::resultBits(GS.R, GS.FPR, CC, RetTy)};

  // Architectural results are exact; the timing model is not run, so a
  // translated call bills retired instructions only, through batched
  // counters (a registry atomic per call would dominate the dispatch).
  Stats = RunStats();
  Stats.Instrs = GS.Instrs;
  accumulateStats(Stats);
  VCODE_TM_COUNT_BATCHED("dbt.calls", 1);
  VCODE_TM_COUNT_BATCHED("dbt.dispatches", Dispatches);
  VCODE_TM_COUNT_BATCHED("sim.calls", 1);
  VCODE_TM_COUNT_BATCHED("sim.instrs", GS.Instrs);
  return Res;
}
