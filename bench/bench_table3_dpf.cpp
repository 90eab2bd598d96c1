//===- bench/bench_table3_dpf.cpp - Table 3: DPF vs PATHFINDER vs MPF ------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Regenerates paper Table 3: "Average time on a DEC5000/200 to classify
// TCP/IP headers destined for one of ten TCP/IP filters; times are in
// microseconds ... the average of 100,000 trials is taken as the base cost
// of message classification. In this experiment, DPF is 20 times faster
// than MPF and 10 times faster than PATHFINDER."
//
// All engines run as machine code on the simulated DEC5000/200 (25 MHz
// R3000-class, split 64K direct-mapped caches); see DESIGN.md for the
// hardware substitution. Additional rows report DPF under each forced
// dispatch strategy (paper §4.2's switch-style specialization choices).
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationEngine.h"
#include "dpf/Engines.h"
#include "sim/MipsSim.h"
#include "substrate/Substrate.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include "support/ToolFlags.h"
#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace vcode;
using namespace vcode::dpf;

namespace {

struct Trial {
  SimAddr Msg;
};

/// Average per-classification time over \p Trials random messages.
///
/// Stats mode: this benchmark bills whole batches through the simulator's
/// cumulative counters (sim::Cpu::cumulativeStats) rather than summing
/// lastStats() by hand — reset, run the batch, read one total. Table 4
/// (bench_table4_ash) instead bills individual runs via lastStats(),
/// since each configuration is a single call.
double avgMicroseconds(Engine &E, sim::Cpu &Cpu,
                       const std::vector<Trial> &Trials, int &Checksum) {
  // One warm-up pass (install has just evicted everything).
  Checksum += E.classify(Cpu, Trials[0].Msg);
  Cpu.resetCumulativeStats();
  for (const Trial &T : Trials)
    Checksum += E.classify(Cpu, T.Msg);
  return double(Cpu.cumulativeStats().Cycles) / double(Trials.size()) /
         Cpu.config().ClockMHz;
}

/// Wall-clock microseconds per classification (used for the --target=host
/// comparison, where the native rows have no simulated cycle counts).
double wallUsPerMsg(Engine &E, sim::Cpu &Cpu, const std::vector<Trial> &Trials,
                    int &Checksum) {
  Checksum += E.classify(Cpu, Trials[0].Msg);
  auto T0 = std::chrono::steady_clock::now();
  for (const Trial &T : Trials)
    Checksum += E.classify(Cpu, T.Msg);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(T1 - T0).count() /
         double(Trials.size());
}

} // namespace

int main(int Argc, char **Argv) {
  tool::ToolOptions Opts;
  tool::handleArgs(Argc, Argv, Opts);
  Substrate S = makeSubstrate(Opts, "bench_table3_dpf",
                              Substrate::Mips | Substrate::Host |
                                  Substrate::Dbt);
  // The tables bill simulated DEC5000/200 cycles, so they interpret MIPS
  // code whatever the target: dbt adds a binary-translation section over
  // the same arena, host a native section over an arena of its own.
  bool Native = S.native();
  Substrate Sim = Native ? makeSubstrate("mips") : std::move(S);
  sim::Memory &Mem = *Sim.Mem;
  Target &Tgt = *Sim.Tgt;
  sim::MipsSim Cpu(Mem, sim::dec5000Config());

  const unsigned NumFilters = 10;
  const uint16_t BasePort = 1024;
  std::vector<Filter> Filters = makeTcpIpFilters(NumFilters, BasePort);

  // 100,000 trials, each a TCP/IP header destined for one of the ten
  // filters (paper §4.2). Pre-generate distinct packets.
  const int NumTrials = 100'000;
  const int NumPackets = 64;
  Rng R(42);
  std::vector<SimAddr> Packets;
  for (int I = 0; I < NumPackets; ++I) {
    SimAddr P = Mem.alloc(pkt::HeaderBytes, 8);
    writeTcpPacket(Mem, P, uint16_t(BasePort + R.below(NumFilters)));
    Packets.push_back(P);
  }
  std::vector<Trial> Trials(NumTrials);
  for (int I = 0; I < NumTrials; ++I)
    Trials[I].Msg = Packets[R.below(NumPackets)];

  MpfEngine Mpf(Tgt, Mem);
  PathFinderEngine Pf(Tgt, Mem);
  DpfEngine Dpf(Tgt, Mem);
  Mpf.install(Filters);
  Pf.install(Filters);
  Dpf.install(Filters);

  int Check = 0;
  double MpfUs = avgMicroseconds(Mpf, Cpu, Trials, Check);
  double PfUs = avgMicroseconds(Pf, Cpu, Trials, Check);
  double DpfUs = avgMicroseconds(Dpf, Cpu, Trials, Check);

  std::printf("Table 3: average time to classify TCP/IP headers destined "
              "for one of ten TCP/IP filters\n");
  std::printf("(simulated DEC5000/200, %d trials; paper reports DPF 20x "
              "faster than MPF, 10x faster than PATHFINDER)\n\n",
              NumTrials);

  TablePrinter T({"Engine", "us/message", "vs DPF"});
  T.addRow({"MPF", strFormat("%.2f", MpfUs), strFormat("%.1fx", MpfUs / DpfUs)});
  T.addRow({"PATHFINDER", strFormat("%.2f", PfUs),
            strFormat("%.1fx", PfUs / DpfUs)});
  T.addRow({"DPF (vcode)", strFormat("%.2f", DpfUs), "1.0x"});
  T.print();

  std::printf("\nDPF dispatch-strategy ablation (paper §4.2: direct range "
              "check / binary search / hash chosen from runtime keys):\n\n");
  TablePrinter T2({"Dispatch", "us/message", "code bytes"});
  const std::pair<DpfEngine::Dispatch, const char *> Strategies[] = {
      {DpfEngine::Dispatch::Auto, "auto"},
      {DpfEngine::Dispatch::Chain, "compare chain"},
      {DpfEngine::Dispatch::Binary, "binary search"},
      {DpfEngine::Dispatch::Hash, "perfect hash"},
      {DpfEngine::Dispatch::Table, "jump table"},
  };
  for (auto [S, Name] : Strategies) {
    DpfEngine E(Tgt, Mem, S);
    E.install(Filters);
    double Us = avgMicroseconds(E, Cpu, Trials, Check);
    T2.addRow({strFormat("%s (%s)", Name, E.dispatchUsed()),
               strFormat("%.2f", Us), strFormat("%zu", E.codeBytes())});
  }
  T2.print();

  std::printf("\nScaling with the number of installed filters "
              "(interpreters degrade linearly; DPF stays flat):\n\n");
  TablePrinter T3({"Filters", "MPF us", "PATHFINDER us", "DPF us"});
  for (unsigned N : {1u, 2u, 5u, 10u, 20u, 50u}) {
    std::vector<Filter> Fs = makeTcpIpFilters(N, BasePort);
    std::vector<Trial> Ts(10'000);
    Rng R2(7);
    std::vector<SimAddr> Ps;
    for (int I = 0; I < 16; ++I) {
      SimAddr P = Mem.alloc(pkt::HeaderBytes, 8);
      writeTcpPacket(Mem, P, uint16_t(BasePort + R2.below(N)));
      Ps.push_back(P);
    }
    for (auto &Tr : Ts)
      Tr.Msg = Ps[R2.below(Ps.size())];
    MpfEngine M2(Tgt, Mem);
    PathFinderEngine P2(Tgt, Mem);
    DpfEngine D2(Tgt, Mem);
    M2.install(Fs);
    P2.install(Fs);
    D2.install(Fs);
    T3.addRow({strFormat("%u", N),
               strFormat("%.2f", avgMicroseconds(M2, Cpu, Ts, Check)),
               strFormat("%.2f", avgMicroseconds(P2, Cpu, Ts, Check)),
               strFormat("%.2f", avgMicroseconds(D2, Cpu, Ts, Check))});
  }
  T3.print();

  // Paper §6: "A reasonable question to ask is how fast a dynamic code
  // generation system must be before it is fast enough." Estimate the
  // break-even point: installing DPF's classifier costs roughly
  // (emitted instructions) x (VCODE's ~10-instruction generation cost)
  // on the same machine; every message then saves the difference to the
  // interpreters.
  double InstallInsns = double(Dpf.codeBytes() / 4) * 10.0;
  double InstallUs = InstallInsns / Cpu.config().ClockMHz;
  std::printf("\nInstall economics (paper §6): compiling the 10-filter "
              "classifier emits %zu bytes;\nat ~10 generation instructions "
              "per instruction that is ~%.0f instructions (~%.0f us\n"
              "on this machine). Break-even vs MPF after %.1f messages, vs "
              "PATHFINDER after %.1f.\n",
              Dpf.codeBytes(), InstallInsns, InstallUs,
              InstallUs / (MpfUs - DpfUs), InstallUs / (PfUs - DpfUs));

  if (Sim.Engine) {
    // EXPERIMENTS E15: interpreted vs binary-translated throughput on a
    // million-packet DPF run. Same arena, same classifier code, same
    // packet stream — only the execution substrate changes.
    std::printf("\nBinary translation (--target=dbt): million-packet DPF "
                "run, interpreter vs translator\n\n");
    sim::Cpu &TCpu = *Sim.Cpu;
    bool Translating = Sim.Engine->available();
    if (!Translating)
      std::printf("(translation unavailable on this host: both rows "
                  "interpret)\n\n");

    const int E15Trials = 1'000'000;
    Rng DR(97);
    std::vector<Trial> DTrials(E15Trials);
    for (int I = 0; I < E15Trials; ++I)
      DTrials[I].Msg = Packets[DR.below(NumPackets)];

    // Differential gate first: the translated classifier must agree with
    // the interpreted one on every distinct packet.
    int DMismatch = 0;
    for (int I = 0; I < NumPackets; ++I)
      if (Dpf.classify(TCpu, Packets[I]) != Dpf.classify(Cpu, Packets[I]))
        ++DMismatch;

    int DCheck = 0;
    auto RunAll = [&](sim::Cpu &C) {
      auto T0 = std::chrono::steady_clock::now();
      for (const Trial &T : DTrials)
        DCheck += Dpf.classify(C, T.Msg);
      auto T1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(T1 - T0).count();
    };
    // Best of three passes per substrate: a million classifies run in
    // fractions of a second, where one scheduler preemption skews a
    // single-pass quotient by tens of percent.
    auto BestOf = [&](sim::Cpu &C) {
      double Best = RunAll(C);
      for (int Pass = 1; Pass < 3; ++Pass)
        Best = std::min(Best, RunAll(C));
      return Best;
    };
    Dpf.classify(Cpu, DTrials[0].Msg); // warm both substrates
    Dpf.classify(TCpu, DTrials[0].Msg);
    double InterpSec = BestOf(Cpu);
    double TransSec = BestOf(TCpu);

    TablePrinter TD({"Substrate", "seconds", "msgs/sec", "speedup"});
    TD.addRow({"MIPS interpreter", strFormat("%.2f", InterpSec),
               strFormat("%.0f", E15Trials / InterpSec), "1.0x"});
    TD.addRow({"binary translator", strFormat("%.2f", TransSec),
               strFormat("%.0f", E15Trials / TransSec),
               strFormat("%.1fx", InterpSec / TransSec)});
    TD.print();
    std::printf("\ndifferential check: %s (%d/%d packets)  (dbt check %d)\n",
                DMismatch ? "MISMATCH" : "identical", NumPackets - DMismatch,
                NumPackets, DCheck & 1);
    double Speedup = InterpSec / TransSec;
    std::printf("translated/interpreted speedup: %.1fx %s\n", Speedup,
                !Translating     ? "(translation unavailable)"
                : Speedup >= 5.0 ? "(>= 5x: ok)"
                                 : "(BELOW the 5x target)");
    if (DMismatch)
      return 1;
  }

  if (Native) {
    std::printf("\nNative execution (--target=host, x86-64 SysV, W^X code "
                "regions):\n\n");
    sim::Memory &NMem = *S.Mem;
    Target &NTgt = *S.Tgt;
    sim::Cpu &NCpu = *S.Cpu;

    // Identical packet stream in native memory (same seed, same ports).
    Rng NR(42);
    std::vector<SimAddr> NPackets;
    for (int I = 0; I < NumPackets; ++I) {
      SimAddr P = NMem.alloc(pkt::HeaderBytes, 8);
      writeTcpPacket(NMem, P, uint16_t(BasePort + NR.below(NumFilters)));
      NPackets.push_back(P);
    }
    std::vector<Trial> NTrials(NumTrials);
    for (int I = 0; I < NumTrials; ++I)
      NTrials[I].Msg = NPackets[NR.below(NumPackets)];

    MpfEngine NMpf(NTgt, NMem);
    PathFinderEngine NPf(NTgt, NMem);
    DpfEngine NDpf(NTgt, NMem);
    NMpf.install(Filters);
    NPf.install(Filters);
    NDpf.install(Filters);

    // Differential gate: every engine executed natively must classify every
    // packet exactly as the MIPS-interpreted DPF classifier does.
    int Mismatches = 0;
    for (int I = 0; I < NumPackets; ++I) {
      int Want = Dpf.classify(Cpu, Packets[I]);
      if (NDpf.classify(NCpu, NPackets[I]) != Want ||
          NMpf.classify(NCpu, NPackets[I]) != Want ||
          NPf.classify(NCpu, NPackets[I]) != Want)
        ++Mismatches;
    }

    int NCheck = 0;
    auto Best = [&NCheck](Engine &E, sim::Cpu &C,
                          const std::vector<Trial> &Ts) {
      double B = wallUsPerMsg(E, C, Ts, NCheck);
      for (int K = 0; K < 2; ++K)
        B = std::min(B, wallUsPerMsg(E, C, Ts, NCheck));
      return B;
    };
    double SimWallUs = Best(Dpf, Cpu, Trials);
    double NMpfUs = Best(NMpf, NCpu, NTrials);
    double NPfUs = Best(NPf, NCpu, NTrials);
    double NDpfUs = Best(NDpf, NCpu, NTrials);

    TablePrinter TH({"Engine", "native us/message", "vs native DPF"});
    TH.addRow({"MPF", strFormat("%.4f", NMpfUs),
               strFormat("%.1fx", NMpfUs / NDpfUs)});
    TH.addRow({"PATHFINDER", strFormat("%.4f", NPfUs),
               strFormat("%.1fx", NPfUs / NDpfUs)});
    TH.addRow({"DPF (vcode)", strFormat("%.4f", NDpfUs), "1.0x"});
    TH.print();

    std::printf("\nnative DPF dispatch: %.4f us/msg wall clock vs %.2f "
                "us/msg for the\nMIPS-interpreted classifier = %.0fx "
                "throughput %s\n",
                NDpfUs, SimWallUs, SimWallUs / NDpfUs,
                SimWallUs / NDpfUs >= 10.0 ? "(>= 10x: ok)"
                                           : "(BELOW the 10x target)");
    std::printf("differential check vs MIPS interpreter: %s (%d/%d packets)"
                "\n(native check %d)\n",
                Mismatches ? "MISMATCH" : "identical",
                NumPackets - Mismatches, NumPackets, NCheck & 1);
    if (Mismatches)
      return 1;
  }

  std::printf("\n(check %d)\n", Check & 1);
  return 0;
}
