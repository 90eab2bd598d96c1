//===- perfbench/bench/Fixtures.cpp - Shared workload pieces --------------===//

#include "Fixtures.h"
#include "core/VCodeT.h"
#include "service/Traffic.h"
#include "sim/Memory.h"
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"
#include <cstring>
#include <numeric>

using namespace vcode;

namespace perfbench {

Population makePopulation() {
  Population P;
  for (unsigned S = 0; S < PopulationSets; ++S) {
    P.Filters.push_back(service::makeSetFilters(S, FlowsPerSet));
    P.Tries.push_back(dpf::Trie::build(P.Filters.back()));
  }
  return P;
}

Traffic makeTraffic(uint64_t Seed, size_t N) {
  // TrafficGen writes each header into a buffer in a simulated arena; a
  // small private arena is enough to copy the headers out of.
  sim::Memory Mem(1 << 20, 0x10000000, 64 << 10);
  service::TrafficGen Gen(Mem, PopulationSets, FlowsPerSet, TrafficZipf, Seed);
  Traffic T;
  T.Set.reserve(N);
  T.Expect.reserve(N);
  T.Hdr.resize(N * Traffic::HdrBytes);
  for (size_t I = 0; I < N; ++I) {
    service::TrafficGen::Pkt P = Gen.next();
    T.Set.push_back(uint16_t(P.Set));
    T.Expect.push_back(int8_t(P.ExpectId));
    std::memcpy(&T.Hdr[I * Traffic::HdrBytes],
                Mem.hostPtr(P.Addr, Traffic::HdrBytes), Traffic::HdrBytes);
  }
  return T;
}

double x64CallProbeNs() {
  sim::Memory Mem(sim::Memory::Native, 4 << 20, 64 << 10);
  x64::X64Target Tgt;
  x64::NativeCpu Cpu(Mem);
  VCodeT<x64::X64Target> V(Tgt);
  Reg Args[1];
  V.lambda("%v", Args, LeafHint, Mem.allocCode(4096));
  V.retv();
  CodePtr P = V.end();
  const CallConv &CC = Cpu.defaultConv();
  constexpr unsigned Calls = 2000;
  std::vector<double> PerCall;
  for (unsigned B = 0; B < 51; ++B) {
    uint64_t T0 = ticks();
    for (unsigned I = 0; I < Calls; ++I)
      Cpu.callWithConvSpan(CC, P.Entry, nullptr, 0, Type::V);
    uint64_t T1 = ticks();
    if (B > 0) // the first batch warms the trampoline and caches
      PerCall.push_back(ticksToNs(T1 - T0) / Calls);
  }
  return median(PerCall);
}

double DispatchTally::msgsPerSec() const {
  std::vector<double> Rates;
  forEachWindow(BatchUsPerMsg, [&](auto B, auto E) {
    Rates.push_back(1e6 * double(E - B) / std::accumulate(B, E, 0.0));
  });
  return sustainedRate(Rates);
}

double untracedShare(const RunConfig &C) { return C.Trace ? 0.25 : 0.0; }

} // namespace perfbench
