//===- sim/AlphaSim.h - Alpha (21064-class) simulator -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An instruction-set simulator for the Alpha subset emitted by the Alpha
/// backend: 64-bit integer pipeline (no delay slots), ldq_u/ext/ins/msk
/// byte machinery, IEEE FPU with register values held in T format, and
/// split direct-mapped I/D caches.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SIM_ALPHASIM_H
#define VCODE_SIM_ALPHASIM_H

#include "sim/Interp.h"

namespace vcode {
namespace sim {

/// Alpha CPU simulator over a Memory arena.
class AlphaSim final : public Interp<AlphaSim> {
public:
  static constexpr const char *IsaName = "alpha";
  static constexpr unsigned WordBytes = 8;
  static constexpr uint64_t DefaultInstrLimit = 4'000'000'000;

  explicit AlphaSim(Memory &M, MachineConfig Cfg = dec5000Config());

private:
  friend class Interp<AlphaSim>;

  void step();
  void resetForCall(const CallConv &CC, SimAddr Entry, SimAddr Sp);
  void setArg(Reg Loc, const TypedValue &A);
  static void storeArg(Memory &M, SimAddr Slot, const TypedValue &A);
  uint64_t resultBits(const CallConv &CC, Type RetTy) const;
  double getT(unsigned F) const;
  void setT(unsigned F, double V);

  uint64_t R[32] = {};
  uint64_t F[32] = {}; // raw T-format bits
};

extern template class Interp<AlphaSim>;

} // namespace sim
} // namespace vcode

#endif // VCODE_SIM_ALPHASIM_H
