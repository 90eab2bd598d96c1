//===- dbt/MipsRegion.h - Guest basic-block discovery -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic-block discovery over simulated MIPS code, read through
/// mips::decode. A Region is the unit of translation: the set of basic
/// blocks reachable from one entry PC through *static* control transfers
/// (conditional branches, j, jal), bounded by discovery caps. Indirect
/// transfers (jr, jalr) and anything the translator cannot handle end a
/// block; the translated code returns the next guest PC (possibly tagged
/// "run one unit through the interpreter") and the dispatcher takes it
/// from there.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_DBT_MIPSREGION_H
#define VCODE_DBT_MIPSREGION_H

#include "core/CodeBuffer.h"
#include "mips/MipsDecode.h"
#include "sim/Memory.h"
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vcode {
namespace dbt {

/// True when the translator emits native code for this instruction: every
/// word the interpreter executes (mips::decode gives no Opc::Invalid)
/// except double-precision operand pairs at FPR 31 and cvt.s/cvt.d from a
/// format the interpreter rejects. A false return is not an error: the
/// unit is routed to the interpreter, which either executes it or reports
/// its own fault.
bool isMipsTranslatable(const mips::Insn &D);

/// How one translation unit ends.
enum class UnitKind : uint8_t {
  Plain, ///< one straight-line instruction
  Cti,   ///< control transfer + its delay-slot instruction (two words)
};

/// One translation unit: an instruction, plus its delay-slot word when it
/// is a control transfer.
struct MipsUnit {
  SimAddr PC = 0;
  mips::Insn Insn;
  mips::Insn Delay; ///< delay-slot instruction (Cti units only)
  UnitKind Kind = UnitKind::Plain;
  /// Guest instructions this unit retires when executed natively.
  unsigned instrs() const { return Kind == UnitKind::Cti ? 2 : 1; }
};

/// Why a block stopped.
enum class TermKind : uint8_t {
  Cti,        ///< last unit is a control transfer; it picks the successor
  InterpExit, ///< next instruction is untranslatable: exit tagged at ExitPC
  Goto,       ///< fell into another leader / hit a cap: continue at ExitPC
};

/// A straight-line run of units with one terminator.
struct MipsBlock {
  SimAddr Entry = 0;
  std::vector<MipsUnit> Units; ///< excludes the InterpExit pseudo-unit
  TermKind Term = TermKind::InterpExit;
  SimAddr ExitPC = 0; ///< InterpExit/Goto continuation PC
  /// Instructions retired by one full native execution of this block.
  unsigned instrCount() const {
    unsigned N = 0;
    for (const MipsUnit &U : Units)
      N += U.instrs();
    return N;
  }
};

/// A multi-block translation region rooted at Entry.
struct MipsRegion {
  SimAddr Entry = 0;
  std::vector<MipsBlock> Blocks; ///< Blocks[0].Entry == Entry
  std::unordered_map<SimAddr, unsigned> Leaders; ///< block entry -> index
  unsigned TotalWords = 0; ///< decoded instruction words (code sizing)

  bool isLeader(SimAddr PC) const { return Leaders.count(PC) != 0; }
};

/// Discovery caps: regions stay small enough that one translation never
/// monopolizes the code cache, and the BFS terminates on any input.
inline constexpr unsigned MaxRegionWords = 2048;
inline constexpr unsigned MaxRegionBlocks = 128;

/// Discovers the region rooted at \p Entry by breadth-first search over
/// static successors. Never faults: addresses outside \p GuestMem simply
/// terminate their block with an interpreter exit (the interpreter then
/// reproduces the fetch fault with its own diagnostic).
MipsRegion discoverRegion(const sim::Memory &GuestMem, SimAddr Entry);

} // namespace dbt
} // namespace vcode

#endif // VCODE_DBT_MIPSREGION_H
