//===- examples/ash_pipeline.cpp - Composing message-data pipelines --------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §4.3 scenario: protocol layers register modular data-manipulation
// steps (byte swap, copy, checksum) and ASH composes them into a single
// specialized loop at runtime — "the dynamic composition of data
// manipulation routines" that made modularity free.
//
//===----------------------------------------------------------------------===//

#include "ash/Ash.h"
#include "substrate/Substrate.h"
#include "support/Rng.h"
#include "support/ToolFlags.h"
#include <cstdio>

using namespace vcode;
using namespace vcode::ash;

int main(int argc, char **argv) {
  // Shared tool flags: --tier=<0|1> picks the ASH pipeline's generation
  // tier, --target selects the machine (mips simulates the DEC5000/200
  // and reports cycles; host composes and runs the pipeline natively on
  // x86-64; dbt binary-translates the MIPS pipeline), --telemetry-report
  // / --trace-json=<file> as everywhere.
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  Substrate Sub = makeSubstrate(Opts, "ash_pipeline",
                                Substrate::Mips | Substrate::Host |
                                    Substrate::Dbt);
  sim::Memory &Mem = *Sub.Mem;
  Target &Target = *Sub.Tgt;
  sim::Cpu &Cpu = *Sub.Cpu;
  bool Cycles = Sub.modelsCycles();

  const uint32_t Bytes = 4096;
  Rng R(1);
  SimAddr Src = Mem.alloc(Bytes, 16), Dst = Mem.alloc(Bytes, 16);
  for (uint32_t I = 0; I < Bytes; I += 4)
    Mem.write<uint32_t>(Src + I, uint32_t(R.next()));

  // Four protocol layers contribute their steps (byte-order conversion, a
  // scrambling layer whose key is compiled into the code, the copy itself,
  // and checksumming); ASH fuses them into one pass.
  std::vector<Step> Steps = {Step::ByteSwap, Step::Xor, Step::Copy,
                             Step::Checksum};
  Pipeline Ash(Target, Mem);
  Ash.setTier(Opts.GenTier);
  for (Step S : Steps)
    Ash.addStep(S);
  Ash.compile(/*Unroll=*/4);

  SeparateLoops Sep(Target, Mem, Steps);
  IntegratedLoop Intg(Target, Mem, Steps);

  uint64_t SepCycles = 0;
  uint32_t SumSep = Sep.run(Cpu, Dst, Src, Bytes, &SepCycles);
  uint32_t SumIntg = Intg.run(Cpu, Dst, Src, Bytes);
  uint64_t IntgCycles = Cpu.lastStats().Cycles;
  uint32_t SumAsh = Ash.run(Cpu, Dst, Src, Bytes);
  uint64_t AshCycles = Cpu.lastStats().Cycles;

  std::printf("swap+scramble+copy+checksum of a %u-byte message (%s):\n\n",
              Bytes,
              Cycles ? "simulated DEC5000/200"
                     : "cycle counts not modeled on this target");
  if (Cycles) {
    std::printf("  separate passes : checksum 0x%04x, %8llu cycles\n", SumSep,
                (unsigned long long)SepCycles);
    std::printf("  hand-integrated : checksum 0x%04x, %8llu cycles\n", SumIntg,
                (unsigned long long)IntgCycles);
    std::printf("  ASH pipeline    : checksum 0x%04x, %8llu cycles  "
                "(%.2fx vs separate)\n",
                SumAsh, (unsigned long long)AshCycles,
                double(SepCycles) / double(AshCycles));
  } else {
    std::printf("  separate passes : checksum 0x%04x\n", SumSep);
    std::printf("  hand-integrated : checksum 0x%04x\n", SumIntg);
    std::printf("  ASH pipeline    : checksum 0x%04x\n", SumAsh);
  }

  if (SumSep != SumIntg || SumIntg != SumAsh) {
    std::printf("\nCHECKSUM MISMATCH\n");
    return 1;
  }
  std::printf("\nrun bench/bench_table4_ash for the full Table 4 "
              "reproduction.\n");
  return 0;
}
