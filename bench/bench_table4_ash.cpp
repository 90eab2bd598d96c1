//===- bench/bench_table4_ash.cpp - Table 4: integrated message ops --------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Regenerates paper Table 4: "Cost of integrated and non-integrated memory
// operations. Times are in microseconds." — copy+checksum and
// copy+checksum+byteswap over a message buffer on two simulated machines
// (DEC3100 and DEC5000/200), with rows:
//
//   separate/uncached : one pass per layer, caches flushed first
//   separate          : one pass per layer, data warm
//   C integrated      : hand-integrated single-pass loop
//   ASH               : the VCODE-composed, specialized pipeline
//
// Paper reference values (microseconds):
//          machine   sep/unc  sep   C-int  ASH
//   c+ck   DEC3100   1630     1290  1120   1060
//   +swap  DEC3100   3190     2230  1750   1600
//   c+ck   DEC5000    812      656   597    455
//   +swap  DEC5000   1640     1280   976    836
//
// Absolute magnitudes depend on the buffer size the authors used (not
// reported); EXPERIMENTS.md compares shapes and ratios.
//
//===----------------------------------------------------------------------===//

#include "ash/Ash.h"
#include "sim/MipsSim.h"
#include "substrate/Substrate.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include "support/ToolFlags.h"
#include <chrono>
#include <cstdio>

using namespace vcode;
using namespace vcode::ash;

namespace {

constexpr uint32_t BufBytes = 4 * 1024;

struct Workload {
  const char *Name;
  std::vector<Step> Steps;
};

// Stats mode: each table cell is one simulated run, so this benchmark
// bills single calls via sim::Cpu::lastStats(); Table 3 (bench_table3_dpf)
// batches many classifications and uses cumulativeStats() instead.
double toUs(uint64_t Cycles, const sim::MachineConfig &C) {
  return double(Cycles) / C.ClockMHz;
}

void runMachine(const sim::MachineConfig &Cfg, sim::Memory &Mem,
                Target &Tgt) {
  sim::MipsSim Cpu(Mem, Cfg);
  Rng R(5);
  SimAddr Src = Mem.alloc(BufBytes, 16);
  SimAddr Dst = Mem.alloc(BufBytes, 16);
  for (uint32_t I = 0; I < BufBytes; I += 4)
    Mem.write<uint32_t>(Src + I, uint32_t(R.next()));

  const Workload Workloads[] = {
      {"copy + checksum", {Step::Copy, Step::Checksum}},
      {"copy + checksum + byte swap",
       {Step::ByteSwap, Step::Copy, Step::Checksum}},
  };

  std::printf("\n%s (%.2f MHz, %uK/%uK caches, %u-cycle miss), %u KB "
              "message:\n\n",
              Cfg.Name, Cfg.ClockMHz, Cfg.ICacheBytes / 1024,
              Cfg.DCacheBytes / 1024, Cfg.MissPenalty, BufBytes / 1024);

  TablePrinter T({"Method", "copy+cksum us", "copy+cksum+swap us"});
  std::vector<std::string> Rows[4];
  const char *RowNames[] = {"separate/uncached", "separate", "C integrated",
                            "ASH (vcode)"};
  for (int RI = 0; RI < 4; ++RI)
    Rows[RI].push_back(RowNames[RI]);

  for (const Workload &W : Workloads) {
    SeparateLoops Sep(Tgt, Mem, W.Steps);
    IntegratedLoop Intg(Tgt, Mem, W.Steps);
    Pipeline Ash(Tgt, Mem);
    for (Step S : W.Steps)
      Ash.addStep(S);
    Ash.compile(4);

    uint64_t Cycles = 0;

    // separate / uncached: all passes with cold caches.
    Cpu.flushCaches();
    Sep.run(Cpu, Dst, Src, BufBytes, &Cycles);
    Rows[0].push_back(strFormat("%.0f", toUs(Cycles, Cfg)));

    // separate / warm.
    Cpu.warmData(Src, BufBytes);
    Cpu.warmData(Dst, BufBytes);
    Sep.run(Cpu, Dst, Src, BufBytes, &Cycles);
    Rows[1].push_back(strFormat("%.0f", toUs(Cycles, Cfg)));

    // C integrated / warm.
    Cpu.warmData(Src, BufBytes);
    Cpu.warmData(Dst, BufBytes);
    Intg.run(Cpu, Dst, Src, BufBytes);
    Intg.run(Cpu, Dst, Src, BufBytes);
    Rows[2].push_back(strFormat("%.0f", toUs(Cpu.lastStats().Cycles, Cfg)));

    // ASH / warm.
    Cpu.warmData(Src, BufBytes);
    Cpu.warmData(Dst, BufBytes);
    Ash.run(Cpu, Dst, Src, BufBytes);
    Ash.run(Cpu, Dst, Src, BufBytes);
    Rows[3].push_back(strFormat("%.0f", toUs(Cpu.lastStats().Cycles, Cfg)));
  }
  for (auto &Row : Rows)
    T.addRow(Row);
  T.print();

  // Bonus shape check: integrated with cold caches ("in the case where
  // there is a flush, the integration almost always provides a factor of
  // two performance improvement").
  const Workload &W = Workloads[1];
  SeparateLoops Sep(Tgt, Mem, W.Steps);
  IntegratedLoop Intg(Tgt, Mem, W.Steps);
  uint64_t SepCold = 0;
  Cpu.flushCaches();
  Sep.run(Cpu, Dst, Src, BufBytes, &SepCold);
  Cpu.flushCaches();
  Intg.run(Cpu, Dst, Src, BufBytes);
  uint64_t IntgCold = Cpu.lastStats().Cycles;
  std::printf("\nflushed-cache integration win (copy+cksum+swap): "
              "separate %.0f us vs integrated %.0f us = %.2fx\n",
              toUs(SepCold, Cfg), toUs(IntgCold, Cfg),
              double(SepCold) / double(IntgCold));
}

/// Native rows for --target=host: the same generated pipelines executing on
/// the build machine through the x86-64 backend. There is no simulated
/// cache to flush, so only the warm rows are reported, timed by wall clock
/// over repeated passes.
int runHost(Substrate &S) {
  std::printf("\nNative execution (--target=host, x86-64 SysV, %u KB "
              "message, wall clock):\n\n",
              BufBytes / 1024);
  sim::Memory &Mem = *S.Mem;
  Target &Tgt = *S.Tgt;
  sim::Cpu &Cpu = *S.Cpu;
  Rng R(5);
  SimAddr Src = Mem.alloc(BufBytes, 16);
  SimAddr Dst = Mem.alloc(BufBytes, 16);
  for (uint32_t I = 0; I < BufBytes; I += 4)
    Mem.write<uint32_t>(Src + I, uint32_t(R.next()));

  const Workload Workloads[] = {
      {"copy + checksum", {Step::Copy, Step::Checksum}},
      {"copy + checksum + byte swap",
       {Step::ByteSwap, Step::Copy, Step::Checksum}},
  };
  const int Reps = 1000;
  auto TimeUs = [&](auto &&Run) {
    Run(); // warm-up (and checksum check) pass
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I)
      Run();
    auto T1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(T1 - T0).count() / Reps;
  };

  TablePrinter T({"Method", "copy+cksum us", "copy+cksum+swap us"});
  std::vector<std::string> Rows[3];
  const char *RowNames[] = {"separate", "C integrated", "ASH (vcode)"};
  for (int RI = 0; RI < 3; ++RI)
    Rows[RI].push_back(RowNames[RI]);

  int BadChecksums = 0;
  for (const Workload &W : Workloads) {
    SeparateLoops Sep(Tgt, Mem, W.Steps);
    IntegratedLoop Intg(Tgt, Mem, W.Steps);
    Pipeline Ash(Tgt, Mem);
    for (Step S : W.Steps)
      Ash.addStep(S);
    Ash.compile(4);

    // Differential gate: each native pass must reproduce the reference
    // checksum exactly.
    uint32_t Ref = refRun(W.Steps, Mem, Dst, Src, BufBytes);
    if (Sep.run(Cpu, Dst, Src, BufBytes, nullptr) != Ref ||
        Intg.run(Cpu, Dst, Src, BufBytes) != Ref ||
        Ash.run(Cpu, Dst, Src, BufBytes) != Ref)
      ++BadChecksums;

    Rows[0].push_back(strFormat(
        "%.2f", TimeUs([&] { Sep.run(Cpu, Dst, Src, BufBytes, nullptr); })));
    Rows[1].push_back(strFormat(
        "%.2f", TimeUs([&] { Intg.run(Cpu, Dst, Src, BufBytes); })));
    Rows[2].push_back(strFormat(
        "%.2f", TimeUs([&] { Ash.run(Cpu, Dst, Src, BufBytes); })));
  }
  for (auto &Row : Rows)
    T.addRow(Row);
  T.print();
  std::printf("\nchecksum differential vs reference: %s\n",
              BadChecksums ? "MISMATCH" : "identical");
  return BadChecksums ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  tool::ToolOptions Opts;
  tool::handleArgs(Argc, Argv, Opts);
  Substrate S = makeSubstrate(Opts, "bench_table4_ash",
                              Substrate::Mips | Substrate::Host);
  // The simulated tables run on a MIPS arena whatever the target; host
  // adds the native rows.
  bool Native = S.native();
  Substrate Sim = Native ? makeSubstrate("mips") : std::move(S);
  std::printf("Table 4: cost of integrated and non-integrated memory "
              "operations\n");
  runMachine(sim::dec3100Config(), *Sim.Mem, *Sim.Tgt);
  runMachine(sim::dec5000Config(), *Sim.Mem, *Sim.Tgt);
  return Native ? runHost(S) : 0;
}
