//===- core/LinearScan.h - Linear-scan register allocation ------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan register allocation over the Tier-1 vreg recording
/// (Poletto/Engler/Kaashoek's tcc lineage: one pass over live intervals,
/// no graph coloring). The recorder builds the intervals and back edges
/// while it records (core/VRegLayer.h), so the allocator walks vregs, not
/// operations. Intervals span [first reference, last reference]; a
/// backward branch extends every interval live at its target to cover
/// the branch, iterated to a fixpoint so values stay in registers across
/// loop backedges. On pressure the interval with the furthest end is
/// spilled (whole-interval spilling — the replay stages spilled accesses
/// through reserved scratch registers and v_local homes).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_LINEARSCAN_H
#define VCODE_CORE_LINEARSCAN_H

#include "core/Reg.h"
#include <cstdint>
#include <vector>

namespace vcode {

/// One virtual register's live interval: [Start, End] in recorded-
/// operation positions. linearScan fills Phys and Spilled. Pre-colored
/// vregs (argument registers) keep their register and have no interval.
struct LsInterval {
  int32_t VReg = -1;   ///< the vreg this interval belongs to
  uint32_t Start = 0;  ///< first reference
  uint32_t End = 0;    ///< last reference (loop extension may raise it)
  bool Fp = false;     ///< competes for the fp pool
  bool Spilled = false;
  Reg Phys;            ///< valid unless Spilled
};

/// A resolved backward control-flow edge: the operation at \p Pos
/// branches (or may branch) to the operation at \p Target <= Pos.
struct LsEdge {
  uint32_t Pos = 0;
  uint32_t Target = 0;
};

/// Allocates \p Ivs, which must be ordered by Start, from the given
/// physical register pools (in preference order). \p BackEdges extend
/// intervals across loops (in place; rerunning is idempotent). Returns
/// the number of spilled intervals.
unsigned linearScan(std::vector<LsInterval> &Ivs,
                    const std::vector<LsEdge> &BackEdges,
                    const std::vector<Reg> &IntPool,
                    const std::vector<Reg> &FpPool);

} // namespace vcode

#endif // VCODE_CORE_LINEARSCAN_H
