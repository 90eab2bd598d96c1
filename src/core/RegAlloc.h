//===- core/RegAlloc.h - Machine-independent register allocator -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VCODE register allocator (paper §3.2). Clients request registers by
/// type and class (Temp = caller-saved scratch, Var = persistent across
/// calls); candidates are handed out in a declared priority ordering and an
/// invalid Reg is returned on exhaustion (the paper's error code), at which
/// point clients keep values on the stack. The allocator "makes unused
/// argument registers available for allocation, is intelligent about leaf
/// procedures, and generates code to allow caller-saved registers to stand
/// in for callee-saved registers and vice-versa."
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_REGALLOC_H
#define VCODE_CORE_REGALLOC_H

#include "core/Reg.h"
#include "core/Target.h"
#include <cstdint>
#include <vector>

namespace vcode {

/// Per-function register allocation state.
class RegAlloc {
public:
  /// Register numbers per kind (and so the longest priority ordering).
  static constexpr unsigned MaxRegs = 64;

  /// Resets all state from the target description: classes, priority
  /// orderings, and availability.
  void init(const TargetInfo &TI);

  /// Replaces the allocation priority ordering for one register kind
  /// (paper: "the client declares an allocation priority ordering for all
  /// register candidates"). Registers not listed become unavailable; an
  /// ordering longer than MaxRegs is an error.
  void setPriorityOrder(Reg::KindType Kind, const std::vector<Reg> &NewOrder);

  /// Dynamically reclassifies one physical register (paper §5.3).
  void setKind(Reg R, RegKind K);

  /// Reclassifies every register as callee-saved (interrupt-handler mode,
  /// paper §5.3: "in an interrupt handler all registers are live").
  void allCalleeSaved();

  /// Allocates a register suitable for type \p Ty and class \p C. Returns
  /// an invalid Reg when the machine's registers are exhausted. \p IsLeaf
  /// lets a leaf procedure use caller-saved registers for Var requests.
  Reg get(Type Ty, RegClass C, bool IsLeaf);

  /// Returns \p R to the free pool.
  void put(Reg R);

  /// Removes a specific register from the free pool (used to pin incoming
  /// argument registers). Returns false if it was already taken.
  bool take(Reg R);

  /// True if \p R is currently available for allocation.
  bool isFree(Reg R) const;

  /// Current classification of \p R (tracks setKind/allCalleeSaved).
  RegKind kindOf(Reg R) const { return entry(R).Kind; }

  /// Bitmask of callee-saved registers of kind \p K that were handed out at
  /// any point (sticky); these must be saved in the prologue.
  uint32_t usedCalleeSavedMask(Reg::KindType K) const {
    return K == Reg::Int ? UsedCalleeInt : UsedCalleeFp;
  }

  /// Marks a register as needing a callee save (used when a client writes
  /// a hard-coded callee-saved register name, paper §5.3).
  void noteCalleeSavedUse(Reg R);

private:
  struct Entry {
    RegKind Kind = RegKind::Unavailable;
    bool Free = false;
  };

  Entry &entry(Reg R);
  const Entry &entry(Reg R) const;
  Reg scan(Reg::KindType Kind, RegKind Want);

  /// One kind's priority ordering.
  struct Order {
    Reg Regs[MaxRegs];
    unsigned N = 0;
    const Reg *begin() const { return Regs; }
    const Reg *end() const { return Regs + N; }
  };
  Order &order(Reg::KindType K) { return K == Reg::Int ? IntOrder : FpOrder; }

  Entry Int[MaxRegs];
  Entry Fp[MaxRegs];
  Order IntOrder;
  Order FpOrder;
  uint32_t UsedCalleeInt = 0;
  uint32_t UsedCalleeFp = 0;
};

} // namespace vcode

#endif // VCODE_CORE_REGALLOC_H
