//===- examples/dpf_demux.cpp - Dynamic packet filter demultiplexing -------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper's §4.2 scenario: ten TCP/IP endpoints each install a packet
// filter; incoming messages are classified by (a) an MPF-style
// interpreter, (b) a PATHFINDER-style pattern interpreter, and (c) DPF,
// which compiles the merged filters to machine code with VCODE when they
// are installed. Prints the classification of a few packets and the
// per-message cost of each engine.
//
// With --target=host (x86-64 builds) the compiled classifier runs
// directly on this machine instead of the MIPS simulator; costs are then
// wall-clock nanoseconds rather than simulated cycles. With --target=dbt
// the MIPS classifier runs through the binary translator
// (dbt::MipsTranslatingCpu): same code, same results, translated to host
// code on the fly.
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationEngine.h"
#include "dpf/Engines.h"
#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include <chrono>
#include <cstdio>

using namespace vcode;
using namespace vcode::dpf;

namespace {

/// Cost of one classification of \p Msg: simulated cycles of the call
/// just made when the CPU models them, else wall nanoseconds averaged over
/// a batch of repeated dispatches.
uint64_t costOf(const Substrate &S, Engine &E, sim::Cpu &C, SimAddr Msg) {
  if (S.modelsCycles())
    return C.lastStats().Cycles;
  constexpr unsigned Reps = 2000;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Reps; ++I)
    E.classify(C, Msg);
  auto T1 = std::chrono::steady_clock::now();
  return uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count() /
      Reps);
}

/// Installs ten TCP/IP filters in all three engines, then classifies
/// the probe packets with each, printing each probe's costs.
int runDemux(const Substrate &S, Tier GenTier) {
  sim::Memory &Mem = *S.Mem;
  sim::Cpu &Cpu = *S.Cpu;
  // Ten endpoints listening on ports 1024..1033.
  std::vector<Filter> Filters = makeTcpIpFilters(10, 1024);

  MpfEngine Mpf(*S.Tgt, Mem);
  PathFinderEngine Pf(*S.Tgt, Mem);
  DpfEngine Dpf(*S.Tgt, Mem);
  Dpf.setTier(GenTier);
  Mpf.install(Filters);
  Pf.install(Filters);
  Dpf.install(Filters);
  std::printf("installed 10 TCP/IP filters; DPF compiled them to %zu bytes "
              "of %s code (dispatch: %s)\n\n",
              Dpf.codeBytes(),
              S.native()  ? "x86-64"
              : S.Engine ? "MIPS (translated)"
                         : "MIPS",
              Dpf.dispatchUsed());

  SimAddr Msg = Mem.alloc(pkt::HeaderBytes, 8);
  struct Probe {
    uint16_t Port;
    const char *What;
  } Probes[] = {
      {1024, "first endpoint"},
      {1033, "last endpoint"},
      {1030, "middle endpoint"},
      {80, "no matching filter"},
  };

  for (const Probe &P : Probes) {
    writeTcpPacket(Mem, Msg, P.Port);
    int A = Mpf.classify(Cpu, Msg);
    uint64_t MpfCost = costOf(S, Mpf, Cpu, Msg);
    int B = Pf.classify(Cpu, Msg);
    uint64_t PfCost = costOf(S, Pf, Cpu, Msg);
    int C = Dpf.classify(Cpu, Msg);
    uint64_t DpfCost = costOf(S, Dpf, Cpu, Msg);
    if (A != B || B != C) {
      std::printf("ENGINES DISAGREE on port %u: %d %d %d\n", P.Port, A, B, C);
      return 1;
    }
    std::printf("dst port %5u -> filter %2d (%s)\n", P.Port, C, P.What);
    std::printf("   %s: MPF %llu, PATHFINDER %llu, DPF %llu\n",
                S.modelsCycles() ? "cycles" : "ns/message",
                (unsigned long long)MpfCost, (unsigned long long)PfCost,
                (unsigned long long)DpfCost);
  }
  std::printf("\nrun bench/bench_table3_dpf for the full Table 3 "
              "reproduction.\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // Shared tool flags: --tier=<0|1> picks DPF's generation tier,
  // --target=host runs the compiled classifier natively (x86-64),
  // --telemetry-report / --trace-json=<file> as everywhere.
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  Substrate S = makeSubstrate(Opts, "dpf_demux",
                              Substrate::Mips | Substrate::Host |
                                  Substrate::Dbt);
  if (S.Engine)
    std::printf("binary translation %s\n\n",
                S.Engine->available() ? "active (MIPS -> x86-64)"
                                      : "unavailable; interpreting");
  return runDemux(S, Opts.GenTier);
}
