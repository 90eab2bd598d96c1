//===- bench/bench_codegen.cpp - E1/E5: cost of dynamic code generation ----===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Reproduces the paper's headline measurement (§1, §5.1, Fig. 2): "VCODE
// dynamically generates code at an approximate cost of six to ten
// instructions per generated instruction", and §5.3's "clients that ...
// use hard-coded register names ... reduce the cost of code generation by
// approximately a factor of two" (E5), with the raw Fig. 2 emission macro
// as the floor (a constant-folded or plus a store).
//
// Reported counters:
//   items_per_second - generated instructions per second (invert for
//                      ns per generated instruction)
//   host_insn_est    - estimated host instructions spent per generated
//                      instruction, using a calibrated dependent-add chain
//                      as the cycle yardstick (methodology: EXPERIMENTS.md)
//
//===----------------------------------------------------------------------===//

#include "alpha/AlphaTarget.h"
#include "core/VCode.h"
#include "mips/MipsEncoding.h"
#include "mips/MipsTarget.h"
#include "sim/Memory.h"
#include "sparc/SparcTarget.h"
#include <benchmark/benchmark.h>
#include <chrono>

using namespace vcode;

namespace {

/// ns per dependent integer op on this host: a proxy for the effective
/// cycle time of serial integer code (the paper's MIPS counted roughly one
/// instruction per cycle).
double hostOpNs() {
  static double Cached = [] {
    uint64_t X = 1;
    auto Start = std::chrono::steady_clock::now();
    constexpr int N = 50'000'000;
    for (int I = 0; I < N; ++I)
      X += (X >> 3) | 1;
    benchmark::DoNotOptimize(X);
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - Start)
               .count() /
           N;
  }();
  return Cached;
}

/// Adds the host-instruction-estimate counter: displayed value is
/// elapsed_ns / (instructions generated) / hostOpNs().
void addEstCounter(benchmark::State &State, int64_t GenInsns) {
  State.counters["host_insn_est"] = benchmark::Counter(
      double(GenInsns) * hostOpNs() / 1e9,
      benchmark::Counter::Flags(benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert));
}

struct Targets {
  sim::Memory Mem;
  mips::MipsTarget Mips;
  sparc::SparcTarget Sparc;
  alpha::AlphaTarget Alpha;
  CodeMem Code;

  Targets() {
    Alpha.installDivHelpers(Mem.allocCode(16384));
    Code = Mem.allocCode(1 << 20);
  }

  Target &byIndex(int I) {
    switch (I) {
    case 0:
      return Mips;
    case 1:
      return Sparc;
    default:
      return Alpha;
    }
  }
};

Targets &targets() {
  static Targets T;
  return T;
}

constexpr const char *TargetNames[] = {"mips", "sparc", "alpha"};

/// Portable path: allocated registers, immediate adds (the common case).
void BM_VcodePortable(benchmark::State &State) {
  Targets &T = targets();
  Target &Tgt = T.byIndex(int(State.range(0)));
  const int Ops = int(State.range(1));
  for (auto _ : State) {
    VCode V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, T.Code);
    Reg R = V.getreg(Type::I);
    V.movi(R, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(R, R, 1);
    V.reti(R);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
    V.putreg(R);
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

/// The same generator through VCodeT<TargetT>: every emit resolves
/// statically and inlines into this loop, no virtual dispatch per
/// generated instruction.
template <class TargetT>
void staticPortableLoop(benchmark::State &State, TargetT &Tgt, CodeMem Code,
                        int Ops) {
  for (auto _ : State) {
    VCodeT<TargetT> V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, Code);
    Reg R = V.getreg(Type::I);
    V.movi(R, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(R, R, 1);
    V.reti(R);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
    V.putreg(R);
  }
}

void BM_VcodeStaticPortable(benchmark::State &State) {
  Targets &T = targets();
  const int Ops = int(State.range(1));
  switch (int(State.range(0))) {
  case 0:
    staticPortableLoop(State, T.Mips, T.Code, Ops);
    break;
  case 1:
    staticPortableLoop(State, T.Sparc, T.Code, Ops);
    break;
  default:
    staticPortableLoop(State, T.Alpha, T.Code, Ops);
    break;
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

/// Hard-coded register names (paper §5.3): no allocator interaction.
void BM_VcodeHardRegs(benchmark::State &State) {
  Targets &T = targets();
  Target &Tgt = T.byIndex(int(State.range(0)));
  const int Ops = int(State.range(1));
  for (auto _ : State) {
    VCode V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, T.Code);
    Reg T0 = V.tmp(0);
    V.movi(T0, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(T0, T0, 1);
    V.reti(T0);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

/// Hard-coded registers through VCodeT: the two optimizations compose, and
/// this is the closest VCODE-API equivalent of the paper's macro interface.
template <class TargetT>
void staticHardRegsLoop(benchmark::State &State, TargetT &Tgt, CodeMem Code,
                        int Ops) {
  for (auto _ : State) {
    VCodeT<TargetT> V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, Code);
    Reg T0 = V.tmp(0);
    V.movi(T0, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(T0, T0, 1);
    V.reti(T0);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
  }
}

void BM_VcodeStaticHardRegs(benchmark::State &State) {
  Targets &T = targets();
  const int Ops = int(State.range(1));
  switch (int(State.range(0))) {
  case 0:
    staticHardRegsLoop(State, T.Mips, T.Code, Ops);
    break;
  case 1:
    staticHardRegsLoop(State, T.Sparc, T.Code, Ops);
    break;
  default:
    staticHardRegsLoop(State, T.Alpha, T.Code, Ops);
    break;
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

/// The Fig. 2 floor: raw constant-folded emission macros (MIPS shown;
/// the encoders are constexpr on every target).
void BM_RawEncoderMacro(benchmark::State &State) {
  Targets &T = targets();
  const int Ops = int(State.range(0));
  for (auto _ : State) {
    CodeBuffer B;
    B.reset(T.Code);
    using namespace vcode::mips;
    for (int I = 0; I < Ops; ++I)
      B.put(encode<Opc::Addiu>(mips::T0, mips::T0, 1));
    benchmark::DoNotOptimize(B.wordIndex());
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel("mips");
}

/// The portable path with error recovery enabled (E10): measures what the
/// opt-in recovery policy costs on the success path — a handler install
/// per function plus end()'s try frame, nothing per generated instruction.
/// Compare against BM_VcodePortable: the delta is the price of never
/// aborting; the default-policy numbers must be unchanged from E9.
void BM_VcodeRecovery(benchmark::State &State) {
  Targets &T = targets();
  Target &Tgt = T.byIndex(int(State.range(0)));
  const int Ops = int(State.range(1));
  for (auto _ : State) {
    VCode V(Tgt);
    V.setErrorRecovery(true);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, T.Code);
    Reg R = V.getreg(Type::I);
    V.movi(R, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(R, R, 1);
    V.reti(R);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
    V.putreg(R);
  }
  int64_t Gen = int64_t(State.iterations()) * Ops;
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

/// Generation throughput of a control-flow-heavy function: compare-branch
/// pairs with labels and backpatching (exercises the fixup machinery).
void BM_VcodeBranchy(benchmark::State &State) {
  Targets &T = targets();
  Target &Tgt = T.byIndex(int(State.range(0)));
  const int Blocks = int(State.range(1));
  int64_t Gen = 0;
  for (auto _ : State) {
    VCode V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, T.Code);
    Reg R = V.getreg(Type::I);
    V.movi(R, Arg[0]);
    for (int I = 0; I < Blocks; ++I) {
      Label L = V.genLabel();
      V.bltii(R, 0, L);
      V.addii(R, R, 1);
      V.label(L);
    }
    V.reti(R);
    CodePtr P = V.end();
    benchmark::DoNotOptimize(P.Entry);
    Gen += int64_t(P.SizeBytes / 4);
  }
  State.SetItemsProcessed(Gen);
  addEstCounter(State, Gen);
  State.SetLabel(TargetNames[State.range(0)]);
}

} // namespace

BENCHMARK(BM_VcodePortable)
    ->ArgsProduct({{0, 1, 2}, {32, 256, 2048}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VcodeStaticPortable)
    ->ArgsProduct({{0, 1, 2}, {32, 256, 2048}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VcodeHardRegs)
    ->ArgsProduct({{0, 1, 2}, {32, 256, 2048}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VcodeStaticHardRegs)
    ->ArgsProduct({{0, 1, 2}, {32, 256, 2048}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VcodeRecovery)
    ->ArgsProduct({{0, 1, 2}, {32, 256, 2048}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RawEncoderMacro)->Arg(2048)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VcodeBranchy)
    ->ArgsProduct({{0, 1, 2}, {256}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
