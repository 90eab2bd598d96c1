//===- core/RegAlloc.cpp - Machine-independent register allocator ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/RegAlloc.h"
#include "support/Error.h"
#include "support/Telemetry.h"
#include <cassert>

using namespace vcode;

RegAlloc::Entry &RegAlloc::entry(Reg R) {
  assert(R.isValid() && R.Num < MaxRegs && "bad register handle");
  return R.isInt() ? Int[R.Num] : Fp[R.Num];
}

const RegAlloc::Entry &RegAlloc::entry(Reg R) const {
  assert(R.isValid() && R.Num < MaxRegs && "bad register handle");
  return R.isInt() ? Int[R.Num] : Fp[R.Num];
}

void RegAlloc::init(const TargetInfo &TI) {
  for (unsigned I = 0; I < MaxRegs; ++I)
    Int[I] = Fp[I] = Entry();
  UsedCalleeInt = UsedCalleeFp = 0;

  IntOrder.N = FpOrder.N = 0;
  auto Add = [this](const std::vector<Reg> &Regs, RegKind K) {
    for (Reg R : Regs) {
      entry(R) = Entry{K, /*Free=*/true};
      Order &O = R.isInt() ? IntOrder : FpOrder;
      assert(O.N < MaxRegs && "register listed twice");
      O.Regs[O.N++] = R;
    }
  };
  // Default priority: caller-saved scratch first (cheap), then the
  // callee-saved registers (each first use costs a prologue save).
  Add(TI.IntTemps, RegKind::CallerSaved);
  Add(TI.IntSaves, RegKind::CalleeSaved);
  Add(TI.FpTemps, RegKind::CallerSaved);
  Add(TI.FpSaves, RegKind::CalleeSaved);
}

void RegAlloc::setPriorityOrder(Reg::KindType Kind,
                                const std::vector<Reg> &NewOrder) {
  if (NewOrder.size() > MaxRegs)
    fatalKind(CgErrKind::BadOperand,
              "priority ordering of %zu registers exceeds the %u a kind has",
              NewOrder.size(), MaxRegs);
  Order &Dst = order(Kind);
  // Reordering must not change which registers are currently allocated:
  // a register handed out before the reorder stays allocated, and one
  // free before it stays free. Snapshot liveness before rewriting.
  bool Live[MaxRegs] = {};
  for (Reg R : Dst)
    Live[R.Num] = !entry(R).Free;
  // Registers dropped from the ordering stop being candidates; their class
  // is retained so hard-coded uses still save correctly.
  for (Reg R : Dst)
    entry(R).Free = false;
  Dst.N = 0;
  for (Reg R : NewOrder)
    Dst.Regs[Dst.N++] = R;
  for (Reg R : Dst)
    entry(R).Free = !Live[R.Num];
}

void RegAlloc::setKind(Reg R, RegKind K) {
  Entry &E = entry(R);
  E.Kind = K;
  if (K == RegKind::Unavailable)
    E.Free = false;
}

void RegAlloc::allCalleeSaved() {
  for (unsigned I = 0; I < MaxRegs; ++I) {
    if (Int[I].Kind == RegKind::CallerSaved)
      Int[I].Kind = RegKind::CalleeSaved;
    if (Fp[I].Kind == RegKind::CallerSaved)
      Fp[I].Kind = RegKind::CalleeSaved;
  }
}

Reg RegAlloc::scan(Reg::KindType Kind, RegKind Want) {
  for (Reg R : order(Kind)) {
    Entry &E = entry(R);
    if (E.Free && E.Kind == Want) {
      E.Free = false;
      if (Want == RegKind::CalleeSaved)
        noteCalleeSavedUse(R);
      return R;
    }
  }
  return Reg();
}

Reg RegAlloc::get(Type Ty, RegClass C, bool IsLeaf) {
  assert(isRegType(Ty) && "sub-word types have no register operations");
  Reg::KindType Kind = isFpType(Ty) ? Reg::Fp : Reg::Int;

  if (C == RegClass::Temp) {
    // Prefer cheap scratch; fall back to a callee-saved register, which
    // costs a prologue save ("callee-saved registers stand in for
    // caller-saved ones").
    if (Reg R = scan(Kind, RegKind::CallerSaved); R.isValid())
      return R;
    Reg R = scan(Kind, RegKind::CalleeSaved);
    if (!R.isValid())
      VCODE_TM_COUNT("core.regalloc.exhausted", 1);
    return R;
  }

  // RegClass::Var: persistent across calls. In a leaf procedure nothing
  // clobbers caller-saved registers, so they may stand in for callee-saved
  // ones at zero cost; prefer that.
  if (IsLeaf)
    if (Reg R = scan(Kind, RegKind::CallerSaved); R.isValid())
      return R;
  Reg R = scan(Kind, RegKind::CalleeSaved);
  if (!R.isValid())
    VCODE_TM_COUNT("core.regalloc.exhausted", 1);
  return R;
}

void RegAlloc::put(Reg R) {
  Entry &E = entry(R);
  assert(!E.Free && "double putreg");
  if (E.Kind != RegKind::Unavailable)
    E.Free = true;
}

bool RegAlloc::take(Reg R) {
  Entry &E = entry(R);
  if (!E.Free)
    return false;
  E.Free = false;
  if (E.Kind == RegKind::CalleeSaved)
    noteCalleeSavedUse(R);
  return true;
}

bool RegAlloc::isFree(Reg R) const { return entry(R).Free; }

void RegAlloc::noteCalleeSavedUse(Reg R) {
  // Unconditional: R can come straight from client code, and an out-of-range
  // shift would be UB in release builds rather than a diagnosable error.
  if (R.Num >= 32)
    fatalKind(CgErrKind::BadOperand,
              "register %u out of range: the save mask only covers 32 "
              "registers per kind",
              unsigned(R.Num));
  uint32_t Bit = 1u << R.Num;
  uint32_t &Mask = R.isInt() ? UsedCalleeInt : UsedCalleeFp;
  if (!(Mask & Bit)) {
    // First use of this callee-saved register in the current function:
    // the prologue gains one save (and the epilogue one restore).
    VCODE_TM_COUNT("core.regalloc.callee_spills", 1);
    Mask |= Bit;
  }
}
