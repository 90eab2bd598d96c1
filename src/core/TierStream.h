//===- core/TierStream.h - Tier-polymorphic emission streams ----*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapters that let one templated emitter body drive either generation
/// tier (core/Tier.h):
///
///  - DirectStream (RegT = Reg): inline-forwards every operation to the
///    VCode in-place emitters — Tier-0, byte-identical to calling VCode
///    directly.
///  - RecStream (RegT = VReg): forwards to a VRegLayer in recording mode —
///    Tier-1; finish() runs linear scan and the optimizing replay.
///
/// Clients write `template <typename S> void emitBody(S &St)` using
/// `typename S::RegT` for registers and the shared surface below; the
/// tier choice reduces to which adapter is constructed. TierNamedOps
/// expands the paper-named instruction families (Instructions.inc) over
/// the generic surface, so both adapters and VCode share one list.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_TIERSTREAM_H
#define VCODE_CORE_TIERSTREAM_H

#include "core/Tier.h"
#include "core/VCode.h"
#include "core/VRegLayer.h"

namespace vcode {

/// The paper-named instruction families (core/Instructions.inc) over a
/// stream's generic surface (CRTP: \p Derived provides binop/binopImm/
/// unop/setInt/loadImm/storeImm/branch/branchImm/ret; a call to a family
/// over a primitive the streams lack, such as cvt, does not compile).
template <typename Derived, typename R> struct TierNamedOps {
#define VC_REG R
#define VC_CALL D().
#include "core/Instructions.inc"

private:
  Derived &D() { return *static_cast<Derived *>(this); }
};

/// Tier-0: straight pass-through to the in-place VCode emitters.
struct DirectStream : TierNamedOps<DirectStream, Reg> {
  using RegT = Reg;

  explicit DirectStream(VCode &V) : V(V) {}

  Reg fromArg(Type, Reg ArgReg) { return ArgReg; }
  Reg temp(Type Ty) { return V.getreg(Ty); }
  void release(Reg Rg) { V.putreg(Rg); }
  Label genLabel() { return V.genLabel(); }
  void label(Label L) { V.label(L); }
  void jmp(Label L) { V.jmp(L); }
  void jmpr(Reg Rg) { V.jmpr(Rg); }
  template <typename BrFn, typename SlotFn>
  void scheduleDelay(BrFn Br, SlotFn Slot) {
    V.scheduleDelay(Br, Slot);
  }
  void finish() {}

  void binop(BinOp Op, Type Ty, Reg Rd, Reg A, Reg B) {
    V.binop(Op, Ty, Rd, A, B);
  }
  void binopImm(BinOp Op, Type Ty, Reg Rd, Reg A, int64_t I) {
    V.binopImm(Op, Ty, Rd, A, I);
  }
  void unop(UnOp Op, Type Ty, Reg Rd, Reg A) { V.unop(Op, Ty, Rd, A); }
  void setInt(Type Ty, Reg Rd, uint64_t Imm) { V.setInt(Ty, Rd, Imm); }
  void loadImm(Type Ty, Reg Rd, Reg Base, int64_t O) {
    V.loadImm(Ty, Rd, Base, O);
  }
  void storeImm(Type Ty, Reg Val, Reg Base, int64_t O) {
    V.storeImm(Ty, Val, Base, O);
  }
  void branch(Cond C, Type Ty, Reg A, Reg B, Label L) {
    V.branch(C, Ty, A, B, L);
  }
  void branchImm(Cond C, Type Ty, Reg A, int64_t I, Label L) {
    V.branchImm(C, Ty, A, I, L);
  }
  void ret(Type Ty, Reg Rs) { V.ret(Ty, Rs); }

  VCode &V;
};

/// Tier-1: records into a VRegLayer; finish() allocates and replays.
struct RecStream : TierNamedOps<RecStream, VReg> {
  using RegT = VReg;

  RecStream(VCode &V, VRegLayer &L) : V(V), L(L) {}

  VReg fromArg(Type Ty, Reg ArgReg) { return L.fromArg(Ty, ArgReg); }
  VReg temp(Type Ty) { return L.alloc(Ty); }
  void release(VReg) {} // vregs need no pool bookkeeping
  Label genLabel() { return V.genLabel(); }
  void label(Label Lb) { L.label(Lb); }
  void jmp(Label Lb) { L.jmp(Lb); }
  void jmpr(VReg Rg) { L.jmpReg(Rg); }
  /// The recording replay schedules delay slots itself; record in
  /// no-delay order and let the fill pass reassemble the pair.
  template <typename BrFn, typename SlotFn>
  void scheduleDelay(BrFn Br, SlotFn Slot) {
    Slot();
    Br();
  }
  void finish() { L.finish(); }

  void binop(BinOp Op, Type Ty, VReg Rd, VReg A, VReg B) {
    L.binop(Op, Ty, Rd, A, B);
  }
  void binopImm(BinOp Op, Type Ty, VReg Rd, VReg A, int64_t I) {
    L.binopImm(Op, Ty, Rd, A, I);
  }
  void unop(UnOp Op, Type Ty, VReg Rd, VReg A) { L.unop(Op, Ty, Rd, A); }
  void setInt(Type Ty, VReg Rd, uint64_t Imm) { L.setInt(Ty, Rd, Imm); }
  void loadImm(Type Ty, VReg Rd, VReg Base, int64_t O) {
    L.load(Ty, Rd, Base, O);
  }
  void storeImm(Type Ty, VReg Val, VReg Base, int64_t O) {
    L.store(Ty, Val, Base, O);
  }
  void branch(Cond C, Type Ty, VReg A, VReg B, Label Lb) {
    L.branch(C, Ty, A, B, Lb);
  }
  void branchImm(Cond C, Type Ty, VReg A, int64_t I, Label Lb) {
    L.branchImm(C, Ty, A, I, Lb);
  }
  void ret(Type Ty, VReg Rs) { L.ret(Ty, Rs); }

  VCode &V;
  VRegLayer &L;
};

} // namespace vcode

#endif // VCODE_CORE_TIERSTREAM_H
