//===- alpha/AlphaTarget.cpp - Alpha backend ---------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The hot emitters live inline in AlphaTarget.h; this file holds the cold
// paths: target description, function framing, fixups, disassembly, the
// division helper routines, and the machine-level extension instructions.
//
//===----------------------------------------------------------------------===//

#include "alpha/AlphaTarget.h"
#include "support/Telemetry.h"
#include "alpha/AlphaDecode.h"

using namespace vcode;
using namespace vcode::alpha;

const TargetInfo &vcode::alpha::alphaTargetInfo() {
  static const TargetInfo TI = [] {
    TargetInfo T;
    T.Name = "alpha";
    T.WordBytes = 8;
    T.HasBranchDelaySlot = false;
    T.LoadDelaySlots = 0;
    T.Zero = intReg(ZERO);
    T.At = intReg(AT);
    T.Sp = intReg(SP);
    T.Ra = intReg(RA);
    T.IntTemps = {intReg(T0), intReg(T1), intReg(T2), intReg(T3), intReg(T4),
                  intReg(T5), intReg(T6), intReg(T7), intReg(T8), intReg(T9),
                  intReg(A5), intReg(A4), intReg(A3), intReg(A2), intReg(A1),
                  intReg(A0)};
    T.IntSaves = {intReg(S0), intReg(S1), intReg(S2), intReg(S3),
                  intReg(S4), intReg(S5), intReg(FP)};
    T.FpTemps = {fpReg(1),  fpReg(10), fpReg(11), fpReg(12), fpReg(13),
                 fpReg(14), fpReg(15), fpReg(22), fpReg(23), fpReg(24),
                 fpReg(25), fpReg(26), fpReg(29), fpReg(30), fpReg(21),
                 fpReg(20), fpReg(19), fpReg(18), fpReg(17), fpReg(16)};
    T.FpSaves = {fpReg(2), fpReg(3), fpReg(4), fpReg(5),
                 fpReg(6), fpReg(7), fpReg(8), fpReg(9)};
    T.DefaultCC.IntArgRegs = {intReg(A0), intReg(A1), intReg(A2),
                              intReg(A3), intReg(A4), intReg(A5)};
    T.DefaultCC.FpArgRegs = {fpReg(16), fpReg(17), fpReg(18),
                             fpReg(19), fpReg(20), fpReg(21)};
    T.DefaultCC.IntRet = intReg(V0);
    T.DefaultCC.FpRet = fpReg(0);
    T.DefaultCC.LinkReg = intReg(RA);
    T.DefaultCC.MinOutArgBytes = 0;
    T.OutArgReserveBytes = 64;
    return T;
  }();
  return TI;
}

AlphaTarget::AlphaTarget() { registerMachineInstructions(); }

// --- Division (no hardware divide on the 21064) ------------------------------

void AlphaTarget::divCall(VCode &VC, Type Ty, Reg Rd, Reg Rs1, Reg Rs2,
                          bool Rem) {
  if (!divHelpersInstalled())
    fatal("alpha: integer division requires AlphaTarget::installDivHelpers() "
          "(the 21064 has no divide instruction; paper §5.2)");
  CodeBuffer &B = VC.buf();
  bool Signed = isSignedType(Ty);
  // Marshal operands under the helper convention. 32-bit unsigned operands
  // must be zero-extended for the 64-bit helper; everything else is already
  // canonical.
  if (Ty == Type::U) {
    B.put(encode<Opc::Zapnot>(AT3, gpr(Rs1), Lit{0x0f}));
    B.put(encode<Opc::Zapnot>(AT2, gpr(Rs2), Lit{0x0f}));
  } else {
    B.put(encode<Opc::Bis>(AT3, gpr(Rs1), gpr(Rs1)));
    B.put(encode<Opc::Bis>(AT2, gpr(Rs2), gpr(Rs2)));
  }
  li(VC, T12, int64_t(DivHelper[(Signed ? 2 : 0) + (Rem ? 1 : 0)]));
  // Link in AT: leaf callers keep their own ra intact.
  B.put(encode<Opc::Jsr>(AT, T12));
  if (is32(Ty))
    B.put(encode<Opc::Addl>(gpr(Rd), T12, Lit{0})); // re-canonicalize
  else
    B.put(encode<Opc::Bis>(gpr(Rd), T12, T12));
}

// --- Function framing ----------------------------------------------------------------

std::string AlphaTarget::disassemble(uint32_t Word, SimAddr Pc) const {
  return alpha::disassemble(Word, Pc);
}

void AlphaTarget::beginFunction(VCode &VC) {
  // Reserve instruction-stream space for the worst-case prologue
  // (paper §5.2): frame allocation, link save, every callee-saved register,
  // and one copy per stack-passed argument. v_end writes the real prologue
  // into the tail of this region and the entry point skips the rest.
  uint32_t ReservedWords = uint32_t(2 + 32 + 32 + VC.prologueArgCopies().size());
  VC.setReservedPrologueWords(ReservedWords);
  VC.buf().fill(Nop, ReservedWords);
}

CodePtr AlphaTarget::endFunction(VCode &VC) {
  VCODE_TM_COUNT("alpha.functions", 1);
  const TargetInfo &TI = info();
  CodeBuffer &B = VC.buf();
  uint32_t F = VC.frameBytes();
  if (!isInt<15>(int64_t(F)))
    fatalKind(CgErrKind::OutOfRange,
        "alpha: frame of %u bytes exceeds the displacement range", F);

  uint32_t IntMask = VC.regAlloc().usedCalleeSavedMask(Reg::Int);
  uint32_t FpMask = VC.regAlloc().usedCalleeSavedMask(Reg::Fp);
  unsigned Link = gpr(VC.cc().LinkReg);

  PrologueWords Pro;
  if (F) {
    Pro.push_back(encode<Opc::Lda>(SP, SP, -int32_t(F)));
    if (!VC.isLeaf())
      Pro.push_back(encode<Opc::Stq>(Link, SP, int32_t(TI.linkSaveSlot())));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        Pro.push_back(encode<Opc::Stq>(N, SP, int32_t(TI.intSaveSlot(N))));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        Pro.push_back(encode<Opc::Stt>(N, SP, int32_t(TI.fpSaveSlot(N))));
  }
  for (const PrologueArgCopy &Copy : VC.prologueArgCopies()) {
    int64_t Off = int64_t(F) + Copy.IncomingOff;
    if (!isInt<15>(Off))
      fatalKind(CgErrKind::OutOfRange,
          "alpha: incoming stack argument offset out of range");
    switch (Copy.Ty) {
    case Type::F:
      Pro.push_back(encode<Opc::Lds>(fpr(Copy.Dst), SP, int32_t(Off)));
      break;
    case Type::D:
      Pro.push_back(encode<Opc::Ldt>(fpr(Copy.Dst), SP, int32_t(Off)));
      break;
    case Type::I:
    case Type::U:
      Pro.push_back(encode<Opc::Ldl>(gpr(Copy.Dst), SP, int32_t(Off)));
      break;
    default:
      Pro.push_back(encode<Opc::Ldq>(gpr(Copy.Dst), SP, int32_t(Off)));
      break;
    }
  }

  uint32_t ReservedWords = VC.reservedPrologueWords();
  if (Pro.size() > ReservedWords)
    fatalKind(CgErrKind::Internal,
        "alpha: prologue of %zu words exceeds the %u reserved", Pro.size(),
          ReservedWords);
  uint32_t Start = ReservedWords - uint32_t(Pro.size());
  for (size_t I = 0; I < Pro.size(); ++I)
    B.patch(uint32_t(Start + I), Pro[I]);

  if (F) {
    VC.label(VC.epilogueLabel());
    if (!VC.isLeaf())
      B.put(encode<Opc::Ldq>(Link, SP, int32_t(TI.linkSaveSlot())));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        B.put(encode<Opc::Ldq>(N, SP, int32_t(TI.intSaveSlot(N))));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        B.put(encode<Opc::Ldt>(N, SP, int32_t(TI.fpSaveSlot(N))));
    B.put(encode<Opc::Lda>(SP, SP, int32_t(F)));
    B.put(encode<Opc::Ret>(ZERO, Link));
  }

  CodePtr P;
  P.Entry = B.addrOfWord(Start);
  return P;
}

void AlphaTarget::applyFixup(VCode &VC, const Fixup &F, SimAddr Target) {
  CodeBuffer &B = VC.buf();
  auto Disp = [&]() {
    return (int64_t(Target) - int64_t(B.addrOfWord(F.WordIdx) + 4)) / 4;
  };
  switch (F.Kind) {
  case FixupKind::Call:
  case FixupKind::Branch:
  case FixupKind::Jump: {
    int64_t D = Disp();
    if (!isInt<21>(D))
      fatalKind(CgErrKind::OutOfRange,
          "alpha: branch displacement %lld out of range", (long long)D);
    B.patchOr(F.WordIdx, uint32_t(D) & 0x1fffff);
    return;
  }
  case FixupKind::EpilogueJump:
    if (Target != 0) {
      int64_t D = Disp();
      if (!isInt<21>(D))
        fatalKind(CgErrKind::OutOfRange,
            "alpha: epilogue displacement out of range");
      B.patch(F.WordIdx, encode<Opc::Br>(ZERO, int32_t(D)));
    }
    return;
  case FixupKind::AddrHi: {
    int64_t Lo = int64_t(int16_t(Target & 0xffff));
    int64_t Hi = (int64_t(Target) - Lo) >> 16;
    B.patchOr(F.WordIdx, uint32_t(Hi) & 0xffff);
    return;
  }
  case FixupKind::AddrLo:
    B.patchOr(F.WordIdx, uint32_t(Target) & 0xffff);
    return;
  }
  unreachable("bad FixupKind");
}

// --- Division helpers (generated with VCODE itself) ----------------------------------

CodePtr AlphaTarget::generateDivHelper(CodeMem Mem, bool Signed,
                                       bool WantRem) {
  VCode V(*this);

  // The substituted convention of paper §5.2: arguments in t10/t11, result
  // in t12, link in at — so callers (even leaf procedures) lose nothing.
  CallConv CC;
  CC.IntArgRegs = {intReg(T10), intReg(T11)};
  CC.IntRet = intReg(T12);
  CC.FpRet = fpReg(0);
  CC.LinkReg = intReg(AT);
  V.setCallConv(CC);

  Reg Arg[2];
  V.lambda("%U%U", Arg, LeafHint, Mem);
  // "Routines that emulate common machine instructions frequently obey
  // different calling conventions in that they save all caller-saved
  // registers": interrupt-handler register mode (§5.3).
  V.allRegsCalleeSaved();

  Reg A = V.getreg(Type::UL, RegClass::Var);
  Reg Bv = V.getreg(Type::UL, RegClass::Var);
  Reg Q = V.getreg(Type::UL, RegClass::Var);
  Reg R = V.getreg(Type::UL, RegClass::Var);
  Reg Cnt = V.getreg(Type::UL, RegClass::Var);
  Reg T = V.getreg(Type::UL, RegClass::Var);
  Reg NegQ, SignA;
  // The link arrived in AT, which doubles as the assembler temporary the
  // compare-and-branch sequences below scribble on: park it in a saved
  // register and restore it just before returning.
  Reg LinkSave = V.getreg(Type::UL, RegClass::Var);
  V.movul(LinkSave, V.atReg());
  V.movul(A, Arg[0]);
  V.movul(Bv, Arg[1]);

  if (Signed) {
    NegQ = V.getreg(Type::UL, RegClass::Var);
    SignA = V.getreg(Type::UL, RegClass::Var);
    V.setul(NegQ, 0);
    V.setul(SignA, 0);
    Label APos = V.genLabel();
    V.bgeli(A, 0, APos);
    V.negl(A, A);
    V.setul(NegQ, 1);
    V.setul(SignA, 1);
    V.label(APos);
    Label BPos = V.genLabel();
    V.bgeli(Bv, 0, BPos);
    V.negl(Bv, Bv);
    V.xoruli(NegQ, NegQ, 1);
    V.label(BPos);
  }

  // Restoring long division, one bit per iteration.
  V.setul(Q, 0);
  V.setul(R, 0);
  V.setul(Cnt, 64);
  Label Loop = V.genLabel(), Skip = V.genLabel();
  V.label(Loop);
  V.lshuli(R, R, 1);
  V.rshuli(T, A, 63);
  V.orul(R, R, T);
  V.lshuli(A, A, 1);
  V.lshuli(Q, Q, 1);
  V.bltul(R, Bv, Skip);
  V.subul(R, R, Bv);
  V.oruli(Q, Q, 1);
  V.label(Skip);
  V.subuli(Cnt, Cnt, 1);
  V.bneuli(Cnt, 0, Loop);

  Reg Res = WantRem ? R : Q;
  if (Signed) {
    // Quotient sign: XOR of operand signs; remainder sign: the dividend's.
    Label Done = V.genLabel();
    V.bequli(WantRem ? SignA : NegQ, 0, Done);
    V.negl(Res, Res);
    V.label(Done);
  }
  V.movul(V.atReg(), LinkSave);
  V.retul(Res);
  return V.end();
}

void AlphaTarget::installDivHelpers(CodeMem Region) {
  size_t Quarter = (Region.Size / 4) & ~size_t(7);
  if (Quarter < 1024)
    fatal("alpha: installDivHelpers needs at least 4KB of code memory");
  for (unsigned Signed = 0; Signed < 2; ++Signed)
    for (unsigned Rem = 0; Rem < 2; ++Rem) {
      unsigned Idx = Signed * 2 + Rem;
      CodeMem M;
      M.Host = Region.Host + Idx * Quarter;
      M.Guest = Region.Guest + Idx * Quarter;
      M.Size = Quarter;
      CodePtr P = generateDivHelper(M, Signed != 0, Rem != 0);
      DivHelper[Idx] = P.Entry;
    }
}

// --- Extension machine instructions ----------------------------------------------

void AlphaTarget::registerMachineInstructions() {
  auto Fp2 = [](bool Dbl) {
    return [Dbl](VCode &VC, const Operand *Ops, unsigned N) {
      if (N != 2 || Ops[0].Kind != Operand::RegOp ||
          Ops[1].Kind != Operand::RegOp)
        fatalKind(CgErrKind::BadOperand,
            "alpha fp machine instruction expects (rd, rs)");
      VC.buf().put(Dbl ? encode<Opc::Sqrtt>(Ops[0].R.Num, Ops[1].R.Num)
                       : encode<Opc::Sqrts>(Ops[0].R.Num, Ops[1].R.Num));
    };
  };
  defineInstruction("fsqrts", Fp2(false));
  defineInstruction("fsqrtd", Fp2(true));
  defineInstruction("alpha.ornot",
                    [](VCode &VC, const Operand *Ops, unsigned N) {
                      if (N != 3)
                        fatalKind(CgErrKind::BadOperand,
                            "alpha.ornot expects (rd, rs1, rs2)");
                      VC.buf().put(encode<Opc::Ornot>(
                          Ops[0].R.Num, Ops[1].R.Num, Ops[2].R.Num));
                    });
}

// The shared static-dispatch instantiation declared in AlphaTarget.h.
template class vcode::VCodeT<AlphaTarget>;
