//===- perfbench/bench/HostSpeed.cpp - Reference-speed timings ------------===//

#include "HostSpeed.h"
#include "Clock.h"
#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>

namespace perfbench {
namespace {

/// The reference loop's program: 4 KiB of fixed pseudo-random opcodes.
const std::array<uint8_t, 4096> &program() {
  static const std::array<uint8_t, 4096> P = [] {
    std::array<uint8_t, 4096> A{};
    uint64_t S = 0x9e3779b97f4a7c15ull;
    for (uint8_t &B : A) {
      S = S * 6364136223846793005ull + 1442695040888963407ull;
      B = uint8_t(S >> 56);
    }
    return A;
  }();
  return P;
}

/// Runs \p Steps steps of a switch-dispatched bytecode interpreter whose
/// branches depend on its data, like the interpreters and compilers the
/// workloads run.
uint64_t interpret(uint64_t Steps) {
  const std::array<uint8_t, 4096> &P = program();
  uint64_t Acc = 0, Pc = 0;
  for (uint64_t I = 0; I < Steps; ++I) {
    const uint8_t Op = P[Pc];
    switch (Op & 7) {
    case 0: Acc += Pc; break;
    case 1: Acc ^= Acc >> 3; break;
    case 2: Acc *= 3; break;
    case 3: if (Acc & 1) Pc += 2; break;
    case 4: Acc -= Op; break;
    case 5: Acc |= 16; break;
    case 6: Acc = (Acc << 1) | (Acc >> 63); break;
    default: Acc += 7; break;
    }
    Pc = (Pc + 1 + (Acc & 3)) & (P.size() - 1);
  }
  return Acc;
}

volatile uint64_t Sink;
// Per thread: the vCPUs of one run need not run at the same speed.
thread_local double Factor = 1.0;
thread_local uint64_t LastProbe = 0;
std::mutex FactorsM;
std::vector<double> Factors;

} // namespace

double probeNs() {
  constexpr uint64_t Steps = 16384;
  uint64_t Best = UINT64_MAX;
  for (int K = 0; K < 3; ++K) {
    uint64_t T0 = ticks();
    Sink = interpret(Steps);
    Best = std::min(Best, ticks() - T0);
  }
  return ticksToNs(Best) / double(Steps);
}

void probeIfDue() {
  if (LastProbe && ticks() - LastProbe < nsToTicks(ProbeEveryMs * 1e6))
    return;
  Factor = ReferenceProbeNs / probeNs();
  LastProbe = ticks();
  std::lock_guard<std::mutex> Lock(FactorsM);
  Factors.push_back(Factor);
}

double hostFactor() { return Factor; }

std::vector<double> hostFactors() {
  std::lock_guard<std::mutex> Lock(FactorsM);
  return Factors;
}

} // namespace perfbench
