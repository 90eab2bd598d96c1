//===- sim/Interp.cpp - Interpreter shell shared by the simulators ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/Interp.h"
#include "support/Telemetry.h"

using namespace vcode;
using namespace vcode::sim;

// Virtual method anchor.
Cpu::~Cpu() = default;

void Cpu::finishRun(const RunStats &S) {
  accumulateStats(S);
  VCODE_TM_COUNT_BATCHED("sim.calls", 1);
  VCODE_TM_COUNT_BATCHED("sim.instrs", S.Instrs);
  VCODE_TM_COUNT_BATCHED("sim.cycles", S.Cycles);
  VCODE_TM_COUNT_BATCHED("sim.icache_misses", S.ICacheMisses);
  VCODE_TM_COUNT_BATCHED("sim.dcache_misses", S.DCacheMisses);
  VCODE_TM_COUNT_BATCHED("sim.load_stalls", S.LoadStalls);
}

void sim::unalignedAccess(const char *Isa, SimAddr A, unsigned Bytes,
                          bool IsStore) {
  fatalKind(CgErrKind::SimFault, "%s sim: unaligned %u-byte %s at 0x%llx",
            Isa, Bytes, IsStore ? "store" : "load", (unsigned long long)A);
}

void sim::instrLimitExceeded(const char *Isa, uint64_t Limit) {
  fatalKind(CgErrKind::SimFault,
            "%s sim: instruction limit (%llu) exceeded; runaway code?", Isa,
            (unsigned long long)Limit);
}
