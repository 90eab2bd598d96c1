//===- sim/MipsSim.h - MIPS32 (R3000-class) simulator -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An instruction-set simulator for the MIPS I/II subset emitted by the
/// MIPS backend: integer pipeline with one architectural branch delay slot,
/// interlocked loads (one-cycle load-use stall), multiply/divide latencies,
/// an R3010-style FPU, and split direct-mapped I/D caches. Stands in for
/// the paper's DECstation hardware (DESIGN.md substitution table).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SIM_MIPSSIM_H
#define VCODE_SIM_MIPSSIM_H

#include "sim/Interp.h"
#include <cstring>

namespace vcode {
namespace sim {

/// MIPS32 CPU simulator over a Memory arena.
class MipsSim final : public Interp<MipsSim>, private Regs32 {
public:
  static constexpr const char *IsaName = "mips";
  static constexpr unsigned WordBytes = 4;
  static constexpr uint64_t DefaultInstrLimit = 2'000'000'000;

  explicit MipsSim(Memory &M, MachineConfig Cfg = dec5000Config());

  // --- Binary-translator fallback interface (dbt::MipsTranslatingCpu) ----

  /// Architectural register file, exportable/importable so a binary
  /// translator can hand individual instructions back to the interpreter
  /// and resume translated execution from the resulting state.
  struct ArchState {
    uint32_t R[32];
    uint32_t FPR[32];
    uint32_t HI, LO;
    bool FpCond;
  };

  void exportState(ArchState &S) const;
  void importState(const ArchState &S);

  /// Resets the per-run statistics and seeds the retired-instruction
  /// count, so interpreter-executed units continue a translator-maintained
  /// total and the instruction limit fires at the same point either way.
  void seedRun(uint64_t Instrs) {
    Stats = RunStats();
    Stats.Instrs = Instrs;
    LastLoadReg = -1;
  }
  uint64_t retiredInstrs() const { return Stats.Instrs; }

  /// Executes one instruction *unit* starting at \p At: the instruction
  /// itself plus, when it is a control-transfer, the delay-slot chain it
  /// starts — so the caller never observes the architecturally-invisible
  /// mid-CTI state. Returns the PC where control lands (StopAddr when
  /// the unit returned through the sentinel link register).
  SimAddr stepUnit(SimAddr At);

  /// The per-call register reset shared with the binary translator:
  /// clears R, HI, LO and the FP condition, then seeds $sp with \p Sp and
  /// the link register with StopAddr. FPRs persist across calls. \p S is
  /// MipsSim itself or dbt::GuestState.
  template <typename State>
  static void resetRegsForCall(State &S, const CallConv &CC, SimAddr Sp) {
    std::memset(S.R, 0, sizeof(S.R));
    S.HI = S.LO = 0;
    S.FpCond = 0;
    S.R[29] = uint32_t(Sp);
    S.R[CC.LinkReg.isValid() ? CC.LinkReg.Num : 31] = uint32_t(StopAddr);
  }

private:
  friend class Interp<MipsSim>;

  void step();
  void resetForCall(const CallConv &CC, SimAddr Entry, SimAddr Sp);
  void chargeLoadUse(uint32_t Instr);

  uint32_t HI = 0, LO = 0;
  bool FpCond = false;
  SimAddr NPC = 0;
  int LastLoadReg = -1; // for the load-use interlock model
};

extern template class Interp<MipsSim>;

} // namespace sim
} // namespace vcode

#endif // VCODE_SIM_MIPSSIM_H
