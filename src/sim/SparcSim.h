//===- sim/SparcSim.h - SPARC V8 simulator ----------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An instruction-set simulator for the SPARC V8 subset emitted by the
/// SPARC backend: integer pipeline with one branch delay slot, icc/fcc
/// condition codes, the Y register for mul/div, an FPU, and split
/// direct-mapped I/D caches.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SIM_SPARCSIM_H
#define VCODE_SIM_SPARCSIM_H

#include "sim/Interp.h"

namespace vcode {
namespace sim {

/// SPARC V8 CPU simulator over a Memory arena.
class SparcSim final : public Interp<SparcSim>, private Regs32 {
public:
  static constexpr const char *IsaName = "sparc";
  static constexpr unsigned WordBytes = 4;
  static constexpr uint64_t DefaultInstrLimit = 2'000'000'000;

  explicit SparcSim(Memory &M, MachineConfig Cfg = dec5000Config());

private:
  friend class Interp<SparcSim>;

  void step();
  void resetForCall(const CallConv &CC, SimAddr Entry, SimAddr Sp);
  bool iccHolds(unsigned Cond) const;
  bool fccHolds(unsigned Cond) const;
  void setIccSub(uint32_t A, uint32_t B);

  uint32_t Y = 0;
  bool IccN = false, IccZ = false, IccV = false, IccC = false;
  unsigned Fcc = 0; // 0=E 1=L 2=G 3=U
  SimAddr NPC = 0;
};

extern template class Interp<SparcSim>;

} // namespace sim
} // namespace vcode

#endif // VCODE_SIM_SPARCSIM_H
