//===- sparc/SparcTarget.h - SPARC V8 backend -------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPARC port of VCODE. Uses a flat (windowless) register convention:
/// callee-saved registers are saved explicitly in the prologue rather than
/// with save/restore, which keeps the framing machinery shared with the
/// other ports and avoids window-overflow traps (the paper notes VCODE
/// clients "can dynamically substitute calling conventions"; this is the
/// convention this port substitutes — see DESIGN.md).
///
/// The hot emitters (ins*) are non-virtual and inline in this header for
/// VCodeT<SparcTarget> clients; TargetBase<SparcTarget> supplies the
/// virtual Target facade over the same code.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SPARC_SPARCTARGET_H
#define VCODE_SPARC_SPARCTARGET_H

#include "core/EncTable.h"
#include "core/TargetBase.h"
#include "core/VCodeT.h"
#include "sparc/SparcEncoding.h"
#include "support/BitUtils.h"
#include <bit>
#include <cassert>

namespace vcode {
namespace sparc {

/// Returns the shared SPARC target description.
const TargetInfo &sparcTargetInfo();

// --- Encoding tables --------------------------------------------------------

/// Single-word integer ALU ops (Form::Alu, register or simm13 operand 2);
/// the signed / unsigned variant is picked with pick(Unsigned). Div/Mod
/// stay invalid: they need the Y-register setup sequence.
inline constexpr BinOpEncTable<OpcEnc<Opc>> SparcAluTable = [] {
  BinOpEncTable<OpcEnc<Opc>> T;
  T.set(BinOp::Add, {Opc::Add})
      .set(BinOp::Sub, {Opc::Sub})
      .set(BinOp::Mul, {Opc::Smul, Opc::Umul})
      .set(BinOp::And, {Opc::And})
      .set(BinOp::Or, {Opc::Or})
      .set(BinOp::Xor, {Opc::Xor})
      .set(BinOp::Lsh, {Opc::Sll})
      .set(BinOp::Rsh, {Opc::Sra, Opc::Srl});
  return T;
}();

/// FP arithmetic (Form::Fp3), single/double picked with pick(Dbl).
inline constexpr BinOpEncTable<OpcEnc<Opc>> SparcFpAluTable = [] {
  BinOpEncTable<OpcEnc<Opc>> T;
  T.set(BinOp::Add, {Opc::Fadds, Opc::Faddd})
      .set(BinOp::Sub, {Opc::Fsubs, Opc::Fsubd})
      .set(BinOp::Mul, {Opc::Fmuls, Opc::Fmuld})
      .set(BinOp::Div, {Opc::Fdivs, Opc::Fdivd});
  return T;
}();

/// Bicc condition codes after a subcc, signed/unsigned picked with
/// pick(Unsigned).
inline constexpr CondEncTable<OpPairEnc> SparcBiccTable = [] {
  CondEncTable<OpPairEnc> T;
  T.set(Cond::Lt, {CondL, CondCS})
      .set(Cond::Le, {CondLE, CondLEU})
      .set(Cond::Gt, {CondG, CondGU})
      .set(Cond::Ge, {CondGE, CondCC})
      .set(Cond::Eq, {CondE, CondE})
      .set(Cond::Ne, {CondNE, CondNE});
  return T;
}();

/// FBfcc condition codes after an fcmp.
inline constexpr CondEncTable<OpEnc> SparcFCondTable = [] {
  CondEncTable<OpEnc> T;
  T.set(Cond::Lt, {FCondL})
      .set(Cond::Le, {FCondLE})
      .set(Cond::Gt, {FCondG})
      .set(Cond::Ge, {FCondGE})
      .set(Cond::Eq, {FCondE})
      .set(Cond::Ne, {FCondNE});
  return T;
}();

/// Typed loads and stores. Every memory Form places rd, rs1 and operand 2
/// alike (Form::Load).
inline constexpr TypeEncTable<OpcEnc<Opc>> SparcLoadTable = [] {
  TypeEncTable<OpcEnc<Opc>> T;
  T.set(Type::C, {Opc::Ldsb})
      .set(Type::UC, {Opc::Ldub})
      .set(Type::S, {Opc::Ldsh})
      .set(Type::US, {Opc::Lduh})
      .set(Type::I, {Opc::Ld})
      .set(Type::U, {Opc::Ld})
      .set(Type::L, {Opc::Ld})
      .set(Type::UL, {Opc::Ld})
      .set(Type::P, {Opc::Ld})
      .set(Type::F, {Opc::Ldf})
      .set(Type::D, {Opc::Lddf});
  return T;
}();

inline constexpr TypeEncTable<OpcEnc<Opc>> SparcStoreTable = [] {
  TypeEncTable<OpcEnc<Opc>> T;
  T.set(Type::C, {Opc::Stb})
      .set(Type::UC, {Opc::Stb})
      .set(Type::S, {Opc::Sth})
      .set(Type::US, {Opc::Sth})
      .set(Type::I, {Opc::St})
      .set(Type::U, {Opc::St})
      .set(Type::L, {Opc::St})
      .set(Type::UL, {Opc::St})
      .set(Type::P, {Opc::St})
      .set(Type::F, {Opc::Stf})
      .set(Type::D, {Opc::Stdf});
  return T;
}();

/// SPARC V8 code generator backend.
class SparcTarget final : public TargetBase<SparcTarget> {
public:
  SparcTarget();

  const TargetInfo &info() const override { return sparcTargetInfo(); }

  // --- Statically dispatched emitters --------------------------------------

  void insBinop(VCode &VC, BinOp Op, Type Ty, Reg Rd, Reg Rs1, Reg Rs2) {
    CodeBuffer &B = VC.buf();
    if (isFpType(Ty)) {
      const OpcEnc<Opc> &E = SparcFpAluTable[Op];
      if (!E.valid())
        fatalKind(CgErrKind::BadOperand,
            "sparc: fp binop '%s' unsupported", binOpName(Op));
      B.put(encodeAs<Form::Fp3>(E.pick(Ty == Type::D), fpr(Rd), fpr(Rs1),
                                fpr(Rs2)));
      return;
    }
    bool Unsigned = !isSignedType(Ty);
    unsigned D = gpr(Rd), S = gpr(Rs1), T = gpr(Rs2);
    const OpcEnc<Opc> &E = SparcAluTable[Op];
    if (E.valid()) {
      B.put(encodeAs<Form::Alu>(E.pick(Unsigned), D, S, T));
      return;
    }
    switch (Op) {
    case BinOp::Div:
      // The 64-bit dividend lives in Y:rs1; prime Y with the sign extension
      // (or zero) first.
      if (Unsigned) {
        B.ensureWords(2);
        B.put(encode<Opc::WrY>(G0, Simm13{0}));
        B.put(encode<Opc::Udiv>(D, S, T));
      } else {
        B.ensureWords(3);
        B.put(encode<Opc::Sra>(G1, S, Simm13{31}));
        B.put(encode<Opc::WrY>(G1, G0));
        B.put(encode<Opc::Sdiv>(D, S, T));
      }
      return;
    case BinOp::Mod:
      // rem = a - (a/b)*b, computed through the assembler temporary.
      if (Unsigned) {
        B.ensureWords(4);
        B.put(encode<Opc::WrY>(G0, Simm13{0}));
        B.put(encode<Opc::Udiv>(G1, S, T));
      } else {
        B.ensureWords(5);
        B.put(encode<Opc::Sra>(G1, S, Simm13{31}));
        B.put(encode<Opc::WrY>(G1, G0));
        B.put(encode<Opc::Sdiv>(G1, S, T));
      }
      B.put(encode<Opc::Smul>(G1, G1, T));
      B.put(encode<Opc::Sub>(D, S, G1));
      return;
    default:
      break;
    }
    unreachable("bad BinOp");
  }

  void insBinopImm(VCode &VC, BinOp Op, Type Ty, Reg Rd, Reg Rs1,
                   int64_t Imm) {
    if (isFpType(Ty))
      fatalKind(CgErrKind::BadOperand,
          "sparc: immediate operands are not allowed for f/d");
    CodeBuffer &B = VC.buf();
    unsigned D = gpr(Rd), S = gpr(Rs1);
    switch (Op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::And:
    case BinOp::Or:
    case BinOp::Xor:
      if (isInt<13>(Imm)) {
        B.put(encodeAs<Form::Alu>(SparcAluTable[Op].pick(), D, S,
                                  Simm13{int32_t(Imm)}));
        return;
      }
      break;
    case BinOp::Lsh:
    case BinOp::Rsh:
      assert(Imm >= 0 && Imm < 32 && "shift amount out of range");
      B.put(encodeAs<Form::Alu>(SparcAluTable[Op].pick(!isSignedType(Ty)), D,
                                S, Simm13{int32_t(Imm)}));
      return;
    case BinOp::Div:
    case BinOp::Mod: {
      // The Y-register setup needs G1, so the divisor goes into the second
      // scratch register G5 (reserved, like G1, from allocation).
      bool Signed = isSignedType(Ty);
      if (Signed) {
        B.put(encode<Opc::Sra>(G1, S, Simm13{31}));
        B.put(encode<Opc::WrY>(G1, G0));
      } else {
        B.put(encode<Opc::WrY>(G0, Simm13{0}));
      }
      li(VC, G5, Imm);
      if (Op == BinOp::Div) {
        B.put(Signed ? encode<Opc::Sdiv>(D, S, G5)
                     : encode<Opc::Udiv>(D, S, G5));
      } else {
        B.put(Signed ? encode<Opc::Sdiv>(G1, S, G5)
                     : encode<Opc::Udiv>(G1, S, G5));
        B.put(encode<Opc::Smul>(G1, G1, G5));
        B.put(encode<Opc::Sub>(D, S, G1));
      }
      return;
    }
    default:
      break;
    }
    li(VC, G1, Imm);
    insBinop(VC, Op, Ty, Rd, Rs1, intReg(G1));
  }

  void insUnop(VCode &VC, UnOp Op, Type Ty, Reg Rd, Reg Rs) {
    CodeBuffer &B = VC.buf();
    if (isFpType(Ty)) {
      bool Dbl = Ty == Type::D;
      unsigned D = fpr(Rd), S = fpr(Rs);
      switch (Op) {
      case UnOp::Mov:
        if (Dbl)
          B.ensureWords(2);
        B.put(encode<Opc::Fmovs>(D, S));
        if (Dbl)
          B.put(encode<Opc::Fmovs>(D + 1, S + 1));
        return;
      case UnOp::Neg:
        // fnegs negates the sign of the most significant half; with our
        // little-endian pair layout that is the odd register.
        if (Dbl) {
          B.ensureWords(2);
          B.put(encode<Opc::Fmovs>(D, S));
          B.put(encode<Opc::Fnegs>(D + 1, S + 1));
        } else {
          B.put(encode<Opc::Fnegs>(D, S));
        }
        return;
      default:
        fatalKind(CgErrKind::BadOperand,
            "sparc: fp unop unsupported");
      }
    }
    unsigned D = gpr(Rd), S = gpr(Rs);
    switch (Op) {
    case UnOp::Com:
      B.put(encode<Opc::Xnor>(D, S, G0));
      return;
    case UnOp::Not:
      // rd = (rs == 0): carry of (0 - rs) is set iff rs != 0.
      B.ensureWords(3);
      B.put(encode<Opc::Subcc>(G0, G0, S));
      B.put(encode<Opc::Addx>(D, G0, Simm13{0}));
      B.put(encode<Opc::Xor>(D, D, Simm13{1}));
      return;
    case UnOp::Mov:
      B.put(encode<Opc::Or>(D, S, G0));
      return;
    case UnOp::Neg:
      B.put(encode<Opc::Sub>(D, G0, S));
      return;
    }
    unreachable("bad UnOp");
  }

  void insSetInt(VCode &VC, Type Ty, Reg Rd, uint64_t Imm) {
    (void)Ty;
    li(VC, gpr(Rd), int64_t(int32_t(uint32_t(Imm))));
  }

  void insSetFp(VCode &VC, Type Ty, Reg Rd, double Val) {
    CodeBuffer &B = VC.buf();
    if (Ty == Type::F) {
      uint32_t Bits = std::bit_cast<uint32_t>(float(Val));
      li(VC, G1, int64_t(int32_t(Bits)));
      B.put(encode<Opc::St>(G1, SP, Simm13{RedZone}));
      B.put(encode<Opc::Ldf>(fpr(Rd), SP, Simm13{RedZone}));
      return;
    }
    Label Pool = VC.constPoolLabel(std::bit_cast<uint64_t>(Val));
    B.ensureWords(3);
    addrOfLabel(VC, G1, Pool);
    B.put(encode<Opc::Lddf>(fpr(Rd), G1, Simm13{0}));
  }

  void insCvt(VCode &VC, Type From, Type To, Reg Rd, Reg Rs) {
    CodeBuffer &B = VC.buf();
    bool FromIntReg = isIntRegType(From);
    bool ToIntReg = isIntRegType(To);
    if (FromIntReg && ToIntReg) {
      if (Rd != Rs)
        B.put(encode<Opc::Or>(gpr(Rd), gpr(Rs), G0));
      return;
    }
    if (FromIntReg && isFpType(To)) {
      bool Uns = From == Type::U || From == Type::UL || From == Type::P;
      unsigned S = gpr(Rs);
      if (!Uns) {
        B.ensureWords(3);
        B.put(encode<Opc::St>(S, SP, Simm13{RedZone}));
        B.put(encode<Opc::Ldf>(FAT0, SP, Simm13{RedZone}));
        B.put(To == Type::F ? encode<Opc::Fitos>(fpr(Rd), FAT0)
                            : encode<Opc::Fitod>(fpr(Rd), FAT0));
        return;
      }
      // Unsigned: convert as signed to double, then add 2^32 when the sign
      // bit was set; narrow to single at the end if needed.
      Label Pool = VC.constPoolLabel(std::bit_cast<uint64_t>(4294967296.0));
      unsigned Acc = To == Type::D ? fpr(Rd) : FAT1;
      B.ensureWords(To == Type::D ? 10 : 11);
      B.put(encode<Opc::St>(S, SP, Simm13{RedZone}));
      B.put(encode<Opc::Ldf>(FAT0, SP, Simm13{RedZone}));
      B.put(encode<Opc::Fitod>(Acc, FAT0));
      B.put(encode<Opc::Subcc>(G0, S, Simm13{0})); // sets N from rs
      B.put(encode<Opc::Bicc>(CondGE, 6)); // skip the 5-word fix block
      B.put(Nop);
      addrOfLabel(VC, G1, Pool); // 2 words
      B.put(encode<Opc::Lddf>(FAT0, G1, Simm13{0}));
      B.put(encode<Opc::Faddd>(Acc, Acc, FAT0));
      if (To == Type::F)
        B.put(encode<Opc::Fdtos>(fpr(Rd), Acc));
      return;
    }
    if (isFpType(From) && ToIntReg) {
      B.ensureWords(3);
      B.put(From == Type::F ? encode<Opc::Fstoi>(FAT0, fpr(Rs))
                            : encode<Opc::Fdtoi>(FAT0, fpr(Rs)));
      B.put(encode<Opc::Stf>(FAT0, SP, Simm13{RedZone}));
      B.put(encode<Opc::Ld>(gpr(Rd), SP, Simm13{RedZone}));
      return;
    }
    if (From == Type::F && To == Type::D) {
      B.put(encode<Opc::Fstod>(fpr(Rd), fpr(Rs)));
      return;
    }
    if (From == Type::D && To == Type::F) {
      B.put(encode<Opc::Fdtos>(fpr(Rd), fpr(Rs)));
      return;
    }
    fatalKind(CgErrKind::BadOperand,
        "sparc: unsupported conversion %s -> %s", typeName(From),
          typeName(To));
  }

  void insLoad(VCode &VC, Type Ty, Reg Rd, Reg Base, Reg Off) {
    VC.buf().put(encodeAs<Form::Load>(loadWord(Ty),
                                      isFpType(Ty) ? fpr(Rd) : gpr(Rd),
                                      gpr(Base), gpr(Off)));
  }

  void insLoadImm(VCode &VC, Type Ty, Reg Rd, Reg Base, int64_t Off) {
    CodeBuffer &B = VC.buf();
    unsigned Rt = isFpType(Ty) ? fpr(Rd) : gpr(Rd);
    if (isInt<13>(Off)) {
      B.put(encodeAs<Form::Load>(loadWord(Ty), Rt, gpr(Base),
                                 Simm13{int32_t(Off)}));
      return;
    }
    li(VC, G1, Off);
    B.put(encodeAs<Form::Load>(loadWord(Ty), Rt, gpr(Base), G1));
  }

  void insStore(VCode &VC, Type Ty, Reg Val, Reg Base, Reg Off) {
    VC.buf().put(encodeAs<Form::Load>(storeWord(Ty),
                                      isFpType(Ty) ? fpr(Val) : gpr(Val),
                                      gpr(Base), gpr(Off)));
  }

  void insStoreImm(VCode &VC, Type Ty, Reg Val, Reg Base, int64_t Off) {
    CodeBuffer &B = VC.buf();
    unsigned Rt = isFpType(Ty) ? fpr(Val) : gpr(Val);
    if (isInt<13>(Off)) {
      B.put(encodeAs<Form::Load>(storeWord(Ty), Rt, gpr(Base),
                                 Simm13{int32_t(Off)}));
      return;
    }
    li(VC, G1, Off);
    B.put(encodeAs<Form::Load>(storeWord(Ty), Rt, gpr(Base), G1));
  }

  void insBranch(VCode &VC, Cond C, Type Ty, Reg Rs1, Reg Rs2, Label L) {
    CodeBuffer &B = VC.buf();
    if (isFpType(Ty)) {
      const OpEnc &E = SparcFCondTable[C];
      if (!E.Valid)
        unreachable("bad Cond");
      B.ensureWords(3);
      B.put(Ty == Type::D ? encode<Opc::Fcmpd>(fpr(Rs1), fpr(Rs2))
                          : encode<Opc::Fcmps>(fpr(Rs1), fpr(Rs2)));
      B.put(Nop); // V8 requires one instruction between fcmp and fbfcc
      VC.addFixup(FixupKind::Branch, L);
      B.put(encode<Opc::FBfcc>(E.Op, 0));
      delaySlot(VC);
      return;
    }
    B.put(encode<Opc::Subcc>(G0, gpr(Rs1), gpr(Rs2)));
    compareAndBranch(VC, C, !isSignedType(Ty), L);
  }

  void insBranchImm(VCode &VC, Cond C, Type Ty, Reg Rs1, int64_t Imm,
                    Label L) {
    if (isFpType(Ty))
      fatalKind(CgErrKind::BadOperand,
          "sparc: fp branches take register operands");
    CodeBuffer &B = VC.buf();
    if (isInt<13>(Imm)) {
      B.put(encode<Opc::Subcc>(G0, gpr(Rs1), Simm13{int32_t(Imm)}));
    } else {
      li(VC, G1, Imm);
      B.put(encode<Opc::Subcc>(G0, gpr(Rs1), G1));
    }
    compareAndBranch(VC, C, !isSignedType(Ty), L);
  }

  void insJump(VCode &VC, Label L) {
    VC.addFixup(FixupKind::Jump, L);
    VC.buf().put(encode<Opc::Bicc>(CondA, 0));
    delaySlot(VC);
  }

  void insJumpReg(VCode &VC, Reg R) {
    VC.buf().put(encode<Opc::Jmpl>(G0, gpr(R), Simm13{0}));
    delaySlot(VC);
  }

  void insJumpAddr(VCode &VC, SimAddr A) {
    li(VC, G1, int64_t(A));
    VC.buf().put(encode<Opc::Jmpl>(G0, G1, Simm13{0}));
    delaySlot(VC);
  }

  void insCallAddr(VCode &VC, SimAddr A) {
    CodeBuffer &B = VC.buf();
    unsigned Link = gpr(VC.cc().LinkReg);
    if (Link == O7) {
      int64_t Disp = (int64_t(A) - int64_t(B.cursorAddr())) / 4;
      B.put(encode<Opc::Call>(int32_t(Disp)));
    } else {
      li(VC, G1, int64_t(A));
      B.put(encode<Opc::Jmpl>(Link, G1, Simm13{0}));
    }
    delaySlot(VC);
  }

  void insCallLabel(VCode &VC, Label L) {
    if (gpr(VC.cc().LinkReg) != O7)
      fatal("sparc: call-to-label links through %%o7; substitute conventions "
            "must use callReg");
    VC.addFixup(FixupKind::Call, L);
    VC.buf().put(encode<Opc::Call>(0));
    delaySlot(VC);
  }

  void insLinkReturn(VCode &VC) {
    // The call wrote its own address into the link register; resume past
    // the call and its delay slot.
    VC.buf().put(encode<Opc::Jmpl>(G0, gpr(VC.cc().LinkReg), Simm13{8}));
    delaySlot(VC);
  }

  void insCallReg(VCode &VC, Reg R) {
    VC.buf().put(encode<Opc::Jmpl>(gpr(VC.cc().LinkReg), gpr(R), Simm13{0}));
    delaySlot(VC);
  }

  void insRet(VCode &VC, Type Ty, Reg Rs) {
    CodeBuffer &B = VC.buf();
    unsigned Link = gpr(VC.cc().LinkReg);
    if (Ty == Type::D) {
      // Two fmovs do not fit the delay slot; move the result first.
      unsigned Ret = fpr(VC.resultReg(Ty));
      B.ensureWords(fpr(Rs) != Ret ? 4 : 2);
      if (fpr(Rs) != Ret) {
        B.put(encode<Opc::Fmovs>(Ret, fpr(Rs)));
        B.put(encode<Opc::Fmovs>(Ret + 1, fpr(Rs) + 1));
      }
      VC.addFixup(FixupKind::EpilogueJump, VC.epilogueLabel());
      B.put(encode<Opc::Jmpl>(G0, Link, Simm13{8}));
      B.put(Nop);
      return;
    }
    B.ensureWords(2);
    VC.addFixup(FixupKind::EpilogueJump, VC.epilogueLabel());
    B.put(encode<Opc::Jmpl>(G0, Link, Simm13{8}));
    if (Ty == Type::V) {
      B.put(Nop);
    } else if (Ty == Type::F) {
      unsigned Ret = fpr(VC.resultReg(Ty));
      B.put(fpr(Rs) != Ret ? encode<Opc::Fmovs>(Ret, fpr(Rs)) : Nop);
    } else {
      unsigned Ret = gpr(VC.resultReg(Ty));
      B.put(gpr(Rs) != Ret ? encode<Opc::Or>(Ret, gpr(Rs), G0) : Nop);
    }
  }

  void insRetImm(VCode &VC, Type Ty, int64_t Imm) {
    unsigned Ret = gpr(VC.resultReg(Ty));
    int32_t V = int32_t(Imm);
    if (!isInt<13>(V)) {
      // sethi/or pair does not fit the delay slot; materialize first.
      li(VC, Ret, Imm);
      insRet(VC, Ty, VC.resultReg(Ty));
      return;
    }
    CodeBuffer &B = VC.buf();
    B.ensureWords(2);
    VC.addFixup(FixupKind::EpilogueJump, VC.epilogueLabel());
    B.put(encode<Opc::Jmpl>(G0, gpr(VC.cc().LinkReg), Simm13{8}));
    B.put(encode<Opc::Or>(Ret, G0, Simm13{V}));
  }

  void insNop(VCode &VC) { VC.buf().put(Nop); }

  // --- Cold paths (defined in SparcTarget.cpp) ------------------------------

  std::string disassemble(uint32_t Word, SimAddr Pc) const override;

  void beginFunction(VCode &VC) override;
  CodePtr endFunction(VCode &VC) override;
  void applyFixup(VCode &VC, const Fixup &F, SimAddr Target) override;

private:
  // FP scratch (register pairs f28/f29 and f30/f31), excluded from
  // allocation.
  static constexpr unsigned FAT0 = 28;
  static constexpr unsigned FAT1 = 30;

  // Scratch stack slot for int<->fp register moves (SPARC V8 has no direct
  // move): an 8-byte red zone below the stack pointer. Safe in this
  // single-threaded, signal-free simulation environment.
  static constexpr int32_t RedZone = -8;

  static unsigned gpr(Reg R) {
    assert(R.isInt() && "integer register expected");
    return R.Num;
  }
  static unsigned fpr(Reg R) {
    assert(R.isFp() && "fp register expected");
    return R.Num;
  }

  /// The fixed bits of the load or store of \p Ty.
  static uint32_t loadWord(Type Ty) {
    const OpcEnc<Opc> &E = SparcLoadTable[Ty];
    if (!E.valid())
      unreachable("bad load type");
    return E.pick();
  }
  static uint32_t storeWord(Type Ty) {
    const OpcEnc<Opc> &E = SparcStoreTable[Ty];
    if (!E.valid())
      unreachable("bad store type");
    return E.pick();
  }

  void li(VCode &VC, unsigned Rd, int64_t Imm) {
    CodeBuffer &B = VC.buf();
    int32_t V = int32_t(Imm);
    if (isInt<13>(V)) {
      B.put(encode<Opc::Or>(Rd, G0, Simm13{V}));
      return;
    }
    B.put(encode<Opc::Sethi>(Rd, uint32_t(V) >> 10));
    if (uint32_t(V) & 0x3ff)
      B.put(encode<Opc::Or>(Rd, Rd, Simm13{int32_t(uint32_t(V) & 0x3ff)}));
  }

  void addrOfLabel(VCode &VC, unsigned Rd, Label L) {
    CodeBuffer &B = VC.buf();
    VC.addFixup(FixupKind::AddrHi, L);
    B.put(encode<Opc::Sethi>(Rd, 0));
    VC.addFixup(FixupKind::AddrLo, L);
    B.put(encode<Opc::Or>(Rd, Rd, Simm13{0}));
  }

  void delaySlot(VCode &VC) {
    if (!VC.suppressDelayNop())
      VC.buf().put(Nop);
  }

  /// Emits the Bicc for \p C (after a subcc) with a Branch fixup to \p L.
  void compareAndBranch(VCode &VC, Cond C, bool Unsigned, Label L) {
    const OpPairEnc &E = SparcBiccTable[C];
    if (!E.Valid)
      unreachable("bad Cond");
    VC.addFixup(FixupKind::Branch, L);
    VC.buf().put(encode<Opc::Bicc>(E.pick(Unsigned), 0));
    delaySlot(VC);
  }

  void registerMachineInstructions();

};

} // namespace sparc

// One shared instantiation of the static-dispatch emission core for this
// backend (defined in SparcTarget.cpp).
extern template class VCodeT<sparc::SparcTarget>;

} // namespace vcode

#endif // VCODE_SPARC_SPARCTARGET_H
