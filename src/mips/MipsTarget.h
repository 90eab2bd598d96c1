//===- mips/MipsTarget.h - MIPS32 backend -----------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MIPS port of VCODE (the paper's primary platform: DECstation 3100 /
/// 5000). Transliterates the VCODE core instruction set to MIPS I/II words
/// in place, fills branch delay slots with nops unless the client schedules
/// them, implements an O32-flavoured calling convention, and performs the
/// prologue/epilogue backpatching of paper §5.2.
///
/// The hot emitters (ins*) are non-virtual and inline in this header so
/// that VCodeT<MipsTarget> clients get the paper's macro-expansion cost
/// model; the Target virtuals are supplied by TargetBase<MipsTarget> as
/// forwarders, so type-erased VCode clients emit the exact same bytes one
/// virtual call away.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_MIPS_MIPSTARGET_H
#define VCODE_MIPS_MIPSTARGET_H

#include "core/EncTable.h"
#include "core/TargetBase.h"
#include "core/VCodeT.h"
#include "mips/MipsEncoding.h"
#include "support/BitUtils.h"
#include <bit>
#include <cassert>

namespace vcode {
namespace mips {

/// Returns the shared MIPS target description.
const TargetInfo &mipsTargetInfo();

// --- Encoding tables --------------------------------------------------------

/// One-word integer ALU ops, signed or unsigned alike; all RdRsRt.
/// Shifts and Mul/Div/Mod take the switch.
inline constexpr BinOpEncTable<OpcEnc<Opc>> MipsAluTable = [] {
  BinOpEncTable<OpcEnc<Opc>> T;
  T.set(BinOp::Add, {Opc::Addu})
      .set(BinOp::Sub, {Opc::Subu})
      .set(BinOp::And, {Opc::And})
      .set(BinOp::Or, {Opc::Or})
      .set(BinOp::Xor, {Opc::Xor});
  return T;
}();

/// COP1 arithmetic for the single-word FP ops.
inline constexpr BinOpEncTable<OpcEnc<Opc>> MipsFpAluTable = [] {
  BinOpEncTable<OpcEnc<Opc>> T;
  T.set(BinOp::Add, {Opc::AddF})
      .set(BinOp::Sub, {Opc::SubF})
      .set(BinOp::Mul, {Opc::MulF})
      .set(BinOp::Div, {Opc::DivF});
  return T;
}();

/// Typed loads and stores (RtMem or FtMem).
inline constexpr TypeEncTable<OpcEnc<Opc>> MipsLoadTable = [] {
  TypeEncTable<OpcEnc<Opc>> T;
  T.set(Type::C, {Opc::Lb})
      .set(Type::UC, {Opc::Lbu})
      .set(Type::S, {Opc::Lh})
      .set(Type::US, {Opc::Lhu})
      .set(Type::I, {Opc::Lw})
      .set(Type::U, {Opc::Lw})
      .set(Type::L, {Opc::Lw})
      .set(Type::UL, {Opc::Lw})
      .set(Type::P, {Opc::Lw})
      .set(Type::F, {Opc::Lwc1})
      .set(Type::D, {Opc::Ldc1});
  return T;
}();

inline constexpr TypeEncTable<OpcEnc<Opc>> MipsStoreTable = [] {
  TypeEncTable<OpcEnc<Opc>> T;
  T.set(Type::C, {Opc::Sb})
      .set(Type::UC, {Opc::Sb})
      .set(Type::S, {Opc::Sh})
      .set(Type::US, {Opc::Sh})
      .set(Type::I, {Opc::Sw})
      .set(Type::U, {Opc::Sw})
      .set(Type::L, {Opc::Sw})
      .set(Type::UL, {Opc::Sw})
      .set(Type::P, {Opc::Sw})
      .set(Type::F, {Opc::Swc1})
      .set(Type::D, {Opc::Sdc1});
  return T;
}();

/// How an integer compare-and-branch synthesizes: either directly as
/// beq/bne on the operands, or as slt/sltu (operands possibly swapped for
/// Gt/Le) feeding bne/beq on the assembler temporary.
struct MipsCmpRow {
  bool UseSlt = false;
  bool Swap = false;
  bool BrNe = false;
  bool Valid = false;

  constexpr MipsCmpRow() = default;
  constexpr MipsCmpRow(bool UseSlt, bool Swap, bool BrNe)
      : UseSlt(UseSlt), Swap(Swap), BrNe(BrNe), Valid(true) {}
};

inline constexpr CondEncTable<MipsCmpRow> MipsIntCmpTable = [] {
  CondEncTable<MipsCmpRow> T;
  T.set(Cond::Eq, {false, false, false})
      .set(Cond::Ne, {false, false, true})
      .set(Cond::Lt, {true, false, true})
      .set(Cond::Ge, {true, false, false})
      .set(Cond::Gt, {true, true, true})
      .set(Cond::Le, {true, true, false});
  return T;
}();

/// FP compare-and-branch: c.cond.fmt, with Gt/Ge as swapped Lt/Le and Ne
/// as an inverted Eq taken with bc1f.
inline constexpr CondEncTable<OpcEnc<Opc>> MipsFpCmpTable = [] {
  CondEncTable<OpcEnc<Opc>> T;
  T.set(Cond::Lt, {Opc::CLt})
      .set(Cond::Le, {Opc::CLe})
      .set(Cond::Gt, {Opc::CLt, Opc::CLt, /*Swap=*/true})
      .set(Cond::Ge, {Opc::CLe, Opc::CLe, /*Swap=*/true})
      .set(Cond::Eq, {Opc::CEq})
      .set(Cond::Ne, {Opc::CEq, Opc::CEq, false, /*Invert=*/true});
  return T;
}();

/// MIPS32 code generator backend.
class MipsTarget final : public TargetBase<MipsTarget> {
public:
  MipsTarget();

  const TargetInfo &info() const override { return mipsTargetInfo(); }

  // --- Statically dispatched emitters (paper Table 2) ----------------------

  void insBinop(VCode &VC, BinOp Op, Type Ty, Reg Rd, Reg Rs1, Reg Rs2) {
    CodeBuffer &B = VC.buf();
    if (isFpType(Ty)) {
      const OpcEnc<Opc> &E = MipsFpAluTable[Op];
      if (!E.valid())
        fatalKind(CgErrKind::BadOperand,
            "mips: fp binop '%s' unsupported", binOpName(Op));
      B.put(encodeAs<Form::FdFsFt>(E.pick(), Ty == Type::F ? FMT_S : FMT_D,
                                   fpr(Rd), fpr(Rs1), fpr(Rs2)));
      return;
    }
    bool Unsigned = !isSignedType(Ty);
    unsigned D = gpr(Rd), S = gpr(Rs1), T = gpr(Rs2);
    const OpcEnc<Opc> &R = MipsAluTable[Op];
    if (R.valid()) {
      B.put(encodeAs<Form::RdRsRt>(R.pick(), D, S, T));
      return;
    }
    switch (Op) {
    case BinOp::Lsh:
      B.put(encode<Opc::Sllv>(D, S, T));
      return;
    case BinOp::Rsh:
      B.put(Unsigned ? encode<Opc::Srlv>(D, S, T)
                     : encode<Opc::Srav>(D, S, T));
      return;
    default:
      break;
    }
    // Mul/Div/Mod synthesize through the hi/lo registers (two words).
    B.ensureWords(2);
    switch (Op) {
    case BinOp::Mul:
      B.put(Unsigned ? encode<Opc::Multu>(S, T) : encode<Opc::Mult>(S, T));
      B.put(encode<Opc::Mflo>(D));
      return;
    case BinOp::Div:
      B.put(Unsigned ? encode<Opc::Divu>(S, T) : encode<Opc::Div>(S, T));
      B.put(encode<Opc::Mflo>(D));
      return;
    case BinOp::Mod:
      B.put(Unsigned ? encode<Opc::Divu>(S, T) : encode<Opc::Div>(S, T));
      B.put(encode<Opc::Mfhi>(D));
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
          "mips: immediate operands are not allowed for f/d (paper "
            "Table 2)");
    CodeBuffer &B = VC.buf();
    unsigned D = gpr(Rd), S = gpr(Rs1);
    switch (Op) {
    case BinOp::Add:
      if (isInt<16>(Imm)) {
        B.put(encode<Opc::Addiu>(D, S, int32_t(Imm)));
        return;
      }
      break;
    case BinOp::Sub:
      if (isInt<16>(-Imm)) {
        B.put(encode<Opc::Addiu>(D, S, int32_t(-Imm)));
        return;
      }
      break;
    case BinOp::And:
      if (isUInt<16>(uint64_t(Imm))) {
        B.put(encode<Opc::Andi>(D, S, uint32_t(Imm)));
        return;
      }
      break;
    case BinOp::Or:
      if (isUInt<16>(uint64_t(Imm))) {
        B.put(encode<Opc::Ori>(D, S, uint32_t(Imm)));
        return;
      }
      break;
    case BinOp::Xor:
      if (isUInt<16>(uint64_t(Imm))) {
        B.put(encode<Opc::Xori>(D, S, uint32_t(Imm)));
        return;
      }
      break;
    case BinOp::Lsh:
      assert(Imm >= 0 && Imm < 32 && "shift amount out of range");
      B.put(encode<Opc::Sll>(D, S, unsigned(Imm)));
      return;
    case BinOp::Rsh:
      assert(Imm >= 0 && Imm < 32 && "shift amount out of range");
      B.put(isSignedType(Ty) ? encode<Opc::Sra>(D, S, unsigned(Imm))
                             : encode<Opc::Srl>(D, S, unsigned(Imm)));
      return;
    default:
      break;
    }
    // Boundary condition (paper §1: "constants that don't fit in immediate
    // fields"): synthesize through the assembler temporary.
    li(VC, AT, Imm);
    insBinop(VC, Op, Ty, Rd, Rs1, intReg(AT));
  }

  void insUnop(VCode &VC, UnOp Op, Type Ty, Reg Rd, Reg Rs) {
    CodeBuffer &B = VC.buf();
    if (isFpType(Ty)) {
      unsigned Fmt = Ty == Type::F ? FMT_S : FMT_D;
      switch (Op) {
      case UnOp::Mov:
        B.put(encode<Opc::MovF>(Fmt, fpr(Rd), fpr(Rs)));
        return;
      case UnOp::Neg:
        B.put(encode<Opc::NegF>(Fmt, fpr(Rd), fpr(Rs)));
        return;
      default:
        fatalKind(CgErrKind::BadOperand,
            "mips: fp unop unsupported");
      }
    }
    unsigned D = gpr(Rd), S = gpr(Rs);
    switch (Op) {
    case UnOp::Com:
      B.put(encode<Opc::Nor>(D, S, ZERO));
      return;
    case UnOp::Not:
      B.put(encode<Opc::Sltiu>(D, S, 1));
      return;
    case UnOp::Mov:
      B.put(encode<Opc::Addu>(D, S, ZERO));
      return;
    case UnOp::Neg:
      B.put(encode<Opc::Subu>(D, ZERO, S));
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
      // Singles fit a GPR: materialize the bit pattern and move it over.
      uint32_t Bits = std::bit_cast<uint32_t>(float(Val));
      if (Bits == 0) {
        B.put(encode<Opc::Mtc1>(ZERO, fpr(Rd)));
        return;
      }
      li(VC, AT, int64_t(int32_t(Bits)));
      B.put(encode<Opc::Mtc1>(AT, fpr(Rd)));
      return;
    }
    // Doubles come from the per-function constant pool at the end of the
    // instruction stream (paper §5.2).
    Label Pool = VC.constPoolLabel(std::bit_cast<uint64_t>(Val));
    B.ensureWords(3);
    addrOfLabel(VC, AT, Pool);
    B.put(encode<Opc::Ldc1>(fpr(Rd), AT, 0));
  }

  void insCvt(VCode &VC, Type From, Type To, Reg Rd, Reg Rs) {
    CodeBuffer &B = VC.buf();
    // On a 32-bit machine L/UL/P collapse onto I/U (paper Table 1).
    bool FromIntReg = isIntRegType(From);
    bool ToIntReg = isIntRegType(To);
    if (FromIntReg && ToIntReg) {
      if (Rd != Rs)
        B.put(encode<Opc::Addu>(gpr(Rd), gpr(Rs), ZERO));
      return;
    }
    if (FromIntReg && isFpType(To)) {
      bool Uns = From == Type::U || From == Type::UL || From == Type::P;
      if (Uns) {
        unsignedToFp(VC, To == Type::D, Rd, Rs);
        return;
      }
      B.ensureWords(2);
      B.put(encode<Opc::Mtc1>(gpr(Rs), FAT0));
      B.put(To == Type::F ? encode<Opc::CvtS>(FMT_W, fpr(Rd), FAT0)
                          : encode<Opc::CvtD>(FMT_W, fpr(Rd), FAT0));
      return;
    }
    if (isFpType(From) && ToIntReg) {
      unsigned Fmt = From == Type::F ? FMT_S : FMT_D;
      B.ensureWords(2);
      B.put(encode<Opc::TruncW>(Fmt, FAT0, fpr(Rs)));
      B.put(encode<Opc::Mfc1>(gpr(Rd), FAT0));
      return;
    }
    if (From == Type::F && To == Type::D) {
      B.put(encode<Opc::CvtD>(FMT_S, fpr(Rd), fpr(Rs)));
      return;
    }
    if (From == Type::D && To == Type::F) {
      B.put(encode<Opc::CvtS>(FMT_D, fpr(Rd), fpr(Rs)));
      return;
    }
    fatalKind(CgErrKind::BadOperand,
        "mips: unsupported conversion %s -> %s", typeName(From),
          typeName(To));
  }

  void insLoad(VCode &VC, Type Ty, Reg Rd, Reg Base, Reg Off) {
    CodeBuffer &B = VC.buf();
    B.ensureWords(2);
    B.put(encode<Opc::Addu>(AT, gpr(Base), gpr(Off)));
    B.put(loadWord(Ty, isFpType(Ty) ? fpr(Rd) : gpr(Rd), AT, 0));
  }

  void insLoadImm(VCode &VC, Type Ty, Reg Rd, Reg Base, int64_t Off) {
    CodeBuffer &B = VC.buf();
    unsigned Rt = isFpType(Ty) ? fpr(Rd) : gpr(Rd);
    if (isInt<16>(Off)) {
      B.put(loadWord(Ty, Rt, gpr(Base), int32_t(Off)));
      return;
    }
    li(VC, AT, Off);
    B.put(encode<Opc::Addu>(AT, AT, gpr(Base)));
    B.put(loadWord(Ty, Rt, AT, 0));
  }

  void insStore(VCode &VC, Type Ty, Reg Val, Reg Base, Reg Off) {
    CodeBuffer &B = VC.buf();
    B.ensureWords(2);
    B.put(encode<Opc::Addu>(AT, gpr(Base), gpr(Off)));
    B.put(storeWord(Ty, isFpType(Ty) ? fpr(Val) : gpr(Val), AT, 0));
  }

  void insStoreImm(VCode &VC, Type Ty, Reg Val, Reg Base, int64_t Off) {
    CodeBuffer &B = VC.buf();
    unsigned Rt = isFpType(Ty) ? fpr(Val) : gpr(Val);
    if (isInt<16>(Off)) {
      B.put(storeWord(Ty, Rt, gpr(Base), int32_t(Off)));
      return;
    }
    li(VC, AT, Off);
    B.put(encode<Opc::Addu>(AT, AT, gpr(Base)));
    B.put(storeWord(Ty, Rt, AT, 0));
  }

  void insBranch(VCode &VC, Cond C, Type Ty, Reg Rs1, Reg Rs2, Label L) {
    if (isFpType(Ty)) {
      fpCompareBranch(VC, C, Ty == Type::F ? FMT_S : FMT_D, fpr(Rs1),
                      fpr(Rs2), L);
      return;
    }
    intCompareBranch(VC, C, !isSignedType(Ty), gpr(Rs1), gpr(Rs2), L);
  }

  void insBranchImm(VCode &VC, Cond C, Type Ty, Reg Rs1, int64_t Imm,
                    Label L) {
    if (isFpType(Ty))
      fatalKind(CgErrKind::BadOperand,
          "mips: fp branches take register operands");
    CodeBuffer &B = VC.buf();
    bool Unsigned = !isSignedType(Ty);
    unsigned A = gpr(Rs1);
    if (Imm == 0 && (C == Cond::Eq || C == Cond::Ne)) {
      VC.addFixup(FixupKind::Branch, L);
      B.put(C == Cond::Eq ? encode<Opc::Beq>(A, ZERO, 0)
                          : encode<Opc::Bne>(A, ZERO, 0));
      delaySlot(VC);
      return;
    }
    if (C == Cond::Lt && !Unsigned && isInt<16>(Imm)) {
      B.put(encode<Opc::Slti>(AT, A, int32_t(Imm)));
      VC.addFixup(FixupKind::Branch, L);
      B.put(encode<Opc::Bne>(AT, ZERO, 0));
      delaySlot(VC);
      return;
    }
    if (C == Cond::Ge && !Unsigned && isInt<16>(Imm)) {
      B.put(encode<Opc::Slti>(AT, A, int32_t(Imm)));
      VC.addFixup(FixupKind::Branch, L);
      B.put(encode<Opc::Beq>(AT, ZERO, 0));
      delaySlot(VC);
      return;
    }
    // General case: materialize into AT; the compare reads AT before any
    // slt writes it, so reuse is safe.
    li(VC, AT, Imm);
    intCompareBranch(VC, C, Unsigned, A, AT, L);
  }

  void insJump(VCode &VC, Label L) {
    VC.addFixup(FixupKind::Jump, L);
    VC.buf().put(encode<Opc::J>(0));
    delaySlot(VC);
  }

  void insJumpReg(VCode &VC, Reg R) {
    VC.buf().put(encode<Opc::Jr>(gpr(R)));
    delaySlot(VC);
  }

  void insJumpAddr(VCode &VC, SimAddr A) {
    VC.buf().put(encode<Opc::J>(A));
    delaySlot(VC);
  }

  void insCallAddr(VCode &VC, SimAddr A) {
    VC.buf().put(encode<Opc::Jal>(A));
    delaySlot(VC);
  }

  void insCallLabel(VCode &VC, Label L) {
    if (gpr(VC.cc().LinkReg) != RA)
      fatal("mips: jal-to-label links through ra; substitute conventions "
            "must use callReg");
    VC.addFixup(FixupKind::Call, L);
    VC.buf().put(encode<Opc::Jal>(0));
    delaySlot(VC);
  }

  void insLinkReturn(VCode &VC) {
    VC.buf().put(encode<Opc::Jr>(gpr(VC.cc().LinkReg)));
    delaySlot(VC);
  }

  void insCallReg(VCode &VC, Reg R) {
    VC.buf().put(encode<Opc::Jalr>(gpr(VC.cc().LinkReg), gpr(R)));
    delaySlot(VC);
  }

  void insRet(VCode &VC, Type Ty, Reg Rs) {
    CodeBuffer &B = VC.buf();
    // Optimistically emit a direct return with the result move in the delay
    // slot (exactly the code of the paper's plus1 example). If v_end decides
    // an epilogue is needed, the jr is rewritten into a jump to it; the
    // delay slot still executes either way.
    B.ensureWords(2);
    VC.addFixup(FixupKind::EpilogueJump, VC.epilogueLabel());
    B.put(encode<Opc::Jr>(gpr(VC.cc().LinkReg)));
    if (Ty == Type::V) {
      B.put(Nop);
    } else if (isFpType(Ty)) {
      unsigned Ret = fpr(VC.resultReg(Ty));
      if (fpr(Rs) != Ret)
        B.put(encode<Opc::MovF>(Ty == Type::F ? FMT_S : FMT_D, Ret, fpr(Rs)));
      else
        B.put(Nop);
    } else {
      unsigned Ret = gpr(VC.resultReg(Ty));
      if (gpr(Rs) != Ret)
        B.put(encode<Opc::Addu>(Ret, gpr(Rs), ZERO));
      else
        B.put(Nop);
    }
  }

  void insRetImm(VCode &VC, Type Ty, int64_t Imm) {
    unsigned Ret = gpr(VC.resultReg(Ty));
    if (!isInt<16>(Imm)) {
      // Too wide for the delay slot: materialize into the result register
      // (the ret then needs no move, so its slot stays a nop).
      insSetInt(VC, Ty, VC.resultReg(Ty), uint64_t(Imm));
      insRet(VC, Ty, VC.resultReg(Ty));
      return;
    }
    CodeBuffer &B = VC.buf();
    B.ensureWords(2);
    VC.addFixup(FixupKind::EpilogueJump, VC.epilogueLabel());
    B.put(encode<Opc::Jr>(gpr(VC.cc().LinkReg)));
    B.put(encode<Opc::Addiu>(Ret, ZERO, int32_t(Imm)));
  }

  void insNop(VCode &VC) { VC.buf().put(Nop); }

  // --- Cold paths (defined in MipsTarget.cpp) ------------------------------

  std::string disassemble(uint32_t Word, SimAddr Pc) const override;

  void beginFunction(VCode &VC) override;
  CodePtr endFunction(VCode &VC) override;
  void applyFixup(VCode &VC, const Fixup &F, SimAddr Target) override;

private:
  // Two FPU scratch registers reserved for synthesis sequences (conversions,
  // constant materialization); excluded from the allocator's candidates.
  static constexpr unsigned FAT0 = 18;
  static constexpr unsigned FAT1 = 16;

  static unsigned gpr(Reg R) {
    assert(R.isInt() && "integer register expected");
    return R.Num;
  }
  static unsigned fpr(Reg R) {
    assert(R.isFp() && "fp register expected");
    return R.Num;
  }

  /// Returns the load/store word for \p Ty.
  static uint32_t loadWord(Type Ty, unsigned Rt, unsigned Base, int32_t Off) {
    const OpcEnc<Opc> &E = MipsLoadTable[Ty];
    if (!E.valid())
      unreachable("bad load type");
    return encodeAs<Form::RtMem>(E.pick(), Rt, Base, Off);
  }
  static uint32_t storeWord(Type Ty, unsigned Rt, unsigned Base, int32_t Off) {
    const OpcEnc<Opc> &E = MipsStoreTable[Ty];
    if (!E.valid())
      unreachable("bad store type");
    return encodeAs<Form::RtMem>(E.pick(), Rt, Base, Off);
  }

  /// Loads a 32-bit constant into \p Rd (1-2 words).
  void li(VCode &VC, unsigned Rd, int64_t Imm) {
    CodeBuffer &B = VC.buf();
    int32_t V = int32_t(Imm);
    if (isInt<16>(V)) {
      B.put(encode<Opc::Addiu>(Rd, ZERO, V));
      return;
    }
    if (isUInt<16>(uint32_t(V))) {
      B.put(encode<Opc::Ori>(Rd, ZERO, uint32_t(V)));
      return;
    }
    B.put(encode<Opc::Lui>(Rd, uint32_t(V) >> 16));
    if (uint32_t(V) & 0xffff)
      B.put(encode<Opc::Ori>(Rd, Rd, uint32_t(V) & 0xffff));
  }

  /// Materializes the (post-linking) absolute address of \p L into \p Rd via
  /// a fixed lui/ori pair completed when labels resolve.
  void addrOfLabel(VCode &VC, unsigned Rd, Label L) {
    CodeBuffer &B = VC.buf();
    VC.addFixup(FixupKind::AddrHi, L);
    B.put(encode<Opc::Lui>(Rd, 0));
    VC.addFixup(FixupKind::AddrLo, L);
    B.put(encode<Opc::Ori>(Rd, Rd, 0));
  }

  /// Emits the delay-slot nop after a branch/jump unless the client is
  /// scheduling the slot (paper §5.3 v_schedule_delay).
  void delaySlot(VCode &VC) {
    if (!VC.suppressDelayNop())
      VC.buf().put(Nop);
  }

  void intCompareBranch(VCode &VC, Cond C, bool Unsigned, unsigned A,
                        unsigned B, Label L) {
    CodeBuffer &Buf = VC.buf();
    const MipsCmpRow &R = MipsIntCmpTable[C];
    if (R.UseSlt) {
      unsigned X = R.Swap ? B : A, Y = R.Swap ? A : B;
      Buf.put(Unsigned ? encode<Opc::Sltu>(AT, X, Y)
                       : encode<Opc::Slt>(AT, X, Y));
      VC.addFixup(FixupKind::Branch, L);
      Buf.put(R.BrNe ? encode<Opc::Bne>(AT, ZERO, 0)
                     : encode<Opc::Beq>(AT, ZERO, 0));
    } else {
      VC.addFixup(FixupKind::Branch, L);
      Buf.put(R.BrNe ? encode<Opc::Bne>(A, B, 0) : encode<Opc::Beq>(A, B, 0));
    }
    delaySlot(VC);
  }

  void fpCompareBranch(VCode &VC, Cond C, unsigned Fmt, unsigned A, unsigned B,
                       Label L) {
    CodeBuffer &Buf = VC.buf();
    const OpcEnc<Opc> &R = MipsFpCmpTable[C];
    unsigned X = R.Swap ? B : A, Y = R.Swap ? A : B;
    Buf.put(encodeAs<Form::FsFt>(R.pick(), Fmt, X, Y));
    VC.addFixup(FixupKind::Branch, L);
    Buf.put(R.Invert ? encode<Opc::Bc1f>(0) : encode<Opc::Bc1t>(0));
    delaySlot(VC);
  }

  void unsignedToFp(VCode &VC, bool ToDouble, Reg Rd, Reg Rs);
  void registerMachineInstructions();

};

} // namespace mips

// One shared instantiation of the static-dispatch emission core for this
// backend (defined in MipsTarget.cpp).
extern template class VCodeT<mips::MipsTarget>;

} // namespace vcode

#endif // VCODE_MIPS_MIPSTARGET_H
