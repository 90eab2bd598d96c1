//===- sparc/SparcTarget.cpp - SPARC V8 backend -----------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The hot emitters live inline in SparcTarget.h; this file holds the cold
// paths: target description, function framing, fixups, disassembly, and the
// machine-level extension instructions.
//
//===----------------------------------------------------------------------===//

#include "sparc/SparcTarget.h"
#include "support/Telemetry.h"
#include "sparc/SparcDecode.h"

using namespace vcode;
using namespace vcode::sparc;

const TargetInfo &vcode::sparc::sparcTargetInfo() {
  static const TargetInfo TI = [] {
    TargetInfo T;
    T.Name = "sparc";
    T.WordBytes = 4;
    T.HasBranchDelaySlot = true;
    T.LoadDelaySlots = 0;
    T.Zero = intReg(G0);
    T.At = intReg(G1);
    T.Sp = intReg(SP);
    T.Ra = intReg(O7);
    T.IntTemps = {intReg(G2), intReg(G3), intReg(G4), intReg(L0), intReg(L1),
                  intReg(L2), intReg(L3), intReg(O5), intReg(O4), intReg(O3),
                  intReg(O2), intReg(O1), intReg(O0)};
    T.IntSaves = {intReg(L4), intReg(L5), intReg(L6), intReg(L7), intReg(I0),
                  intReg(I1), intReg(I2), intReg(I3), intReg(I4), intReg(I5)};
    T.FpTemps = {fpReg(8),  fpReg(10), fpReg(12), fpReg(14), fpReg(16),
                 fpReg(18), fpReg(2),  fpReg(6),  fpReg(4)};
    T.FpSaves = {fpReg(20), fpReg(22), fpReg(24), fpReg(26)};
    T.DefaultCC.IntArgRegs = {intReg(O0), intReg(O1), intReg(O2),
                              intReg(O3), intReg(O4), intReg(O5)};
    T.DefaultCC.FpArgRegs = {fpReg(4), fpReg(6)};
    T.DefaultCC.IntRet = intReg(O0);
    T.DefaultCC.FpRet = fpReg(0);
    T.DefaultCC.LinkReg = intReg(O7);
    T.DefaultCC.MinOutArgBytes = 0;
    T.OutArgReserveBytes = 32;
    return T;
  }();
  return TI;
}

SparcTarget::SparcTarget() { registerMachineInstructions(); }

// --- Function framing -----------------------------------------------------------------

std::string SparcTarget::disassemble(uint32_t Word, SimAddr Pc) const {
  return sparc::disassemble(Word, Pc);
}

void SparcTarget::beginFunction(VCode &VC) {
  // Reserve instruction-stream space for the worst-case prologue
  // (paper §5.2): frame allocation, link save, every callee-saved register,
  // and one copy per stack-passed argument. v_end writes the real prologue
  // into the tail of this region and the entry point skips the rest.
  uint32_t ReservedWords = uint32_t(2 + 32 + 32 + VC.prologueArgCopies().size());
  VC.setReservedPrologueWords(ReservedWords);
  VC.buf().fill(Nop, ReservedWords);
}

CodePtr SparcTarget::endFunction(VCode &VC) {
  VCODE_TM_COUNT("sparc.functions", 1);
  const TargetInfo &TI = info();
  CodeBuffer &B = VC.buf();
  uint32_t F = VC.frameBytes();
  if (!isInt<13>(int64_t(F)))
    fatalKind(CgErrKind::OutOfRange,
        "sparc: frame of %u bytes exceeds the simm13 range", F);

  uint32_t IntMask = VC.regAlloc().usedCalleeSavedMask(Reg::Int);
  uint32_t FpMask = VC.regAlloc().usedCalleeSavedMask(Reg::Fp);
  unsigned Link = gpr(VC.cc().LinkReg);

  PrologueWords Pro;
  if (F) {
    Pro.push_back(encode<Opc::Add>(SP, SP, Simm13{-int32_t(F)}));
    if (!VC.isLeaf())
      Pro.push_back(
          encode<Opc::St>(Link, SP, Simm13{int32_t(TI.linkSaveSlot())}));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        Pro.push_back(
            encode<Opc::St>(N, SP, Simm13{int32_t(TI.intSaveSlot(N))}));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        Pro.push_back(
            encode<Opc::Stdf>(N, SP, Simm13{int32_t(TI.fpSaveSlot(N))}));
  }
  for (const PrologueArgCopy &Copy : VC.prologueArgCopies()) {
    int64_t Off = int64_t(F) + Copy.IncomingOff;
    if (!isInt<13>(Off))
      fatalKind(CgErrKind::OutOfRange,
          "sparc: incoming stack argument offset %lld out of range",
            (long long)Off);
    unsigned Rt = isFpType(Copy.Ty) ? fpr(Copy.Dst) : gpr(Copy.Dst);
    Pro.push_back(encodeAs<Form::Load>(loadWord(Copy.Ty), Rt, SP,
                                      Simm13{int32_t(Off)}));
  }

  uint32_t ReservedWords = VC.reservedPrologueWords();
  if (Pro.size() > ReservedWords)
    fatalKind(CgErrKind::Internal,
        "sparc: prologue of %zu words exceeds the %u reserved", Pro.size(),
          ReservedWords);
  uint32_t Start = ReservedWords - uint32_t(Pro.size());
  for (size_t I = 0; I < Pro.size(); ++I)
    B.patch(uint32_t(Start + I), Pro[I]);

  if (F) {
    VC.label(VC.epilogueLabel());
    if (!VC.isLeaf())
      B.put(encode<Opc::Ld>(Link, SP, Simm13{int32_t(TI.linkSaveSlot())}));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        B.put(encode<Opc::Ld>(N, SP, Simm13{int32_t(TI.intSaveSlot(N))}));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        B.put(encode<Opc::Lddf>(N, SP, Simm13{int32_t(TI.fpSaveSlot(N))}));
    B.put(encode<Opc::Jmpl>(G0, Link, Simm13{8}));
    B.put(encode<Opc::Add>(SP, SP, Simm13{int32_t(F)}));
  }

  CodePtr P;
  P.Entry = B.addrOfWord(Start);
  return P;
}

void SparcTarget::applyFixup(VCode &VC, const Fixup &F, SimAddr Target) {
  CodeBuffer &B = VC.buf();
  // SPARC pc-relative displacements count from the branch itself.
  auto Disp = [&]() {
    return (int64_t(Target) - int64_t(B.addrOfWord(F.WordIdx))) / 4;
  };
  switch (F.Kind) {
  case FixupKind::Call: {
    int64_t D = Disp();
    B.patch(F.WordIdx, encode<Opc::Call>(int32_t(D)));
    return;
  }
  case FixupKind::Branch:
  case FixupKind::Jump: {
    int64_t D = Disp();
    if (!isInt<22>(D))
      fatalKind(CgErrKind::OutOfRange,
          "sparc: branch displacement %lld out of range", (long long)D);
    B.patchOr(F.WordIdx, uint32_t(D) & 0x3fffff);
    return;
  }
  case FixupKind::EpilogueJump:
    if (Target != 0) {
      int64_t D = Disp();
      if (!isInt<22>(D))
        fatalKind(CgErrKind::OutOfRange,
            "sparc: epilogue displacement out of range");
      B.patch(F.WordIdx, encode<Opc::Bicc>(CondA, int32_t(D)));
    }
    return;
  case FixupKind::AddrHi:
    B.patchOr(F.WordIdx, uint32_t(Target >> 10) & 0x3fffff);
    return;
  case FixupKind::AddrLo:
    B.patchOr(F.WordIdx, uint32_t(Target) & 0x3ff);
    return;
  }
  unreachable("bad FixupKind");
}

// --- Extension machine instructions ------------------------------------------------

void SparcTarget::registerMachineInstructions() {
  auto Fp2 = [](uint32_t Fixed) {
    return [Fixed](VCode &VC, const Operand *Ops, unsigned N) {
      if (N != 2 || Ops[0].Kind != Operand::RegOp ||
          Ops[1].Kind != Operand::RegOp)
        fatalKind(CgErrKind::BadOperand,
            "sparc fp machine instruction expects (rd, rs)");
      VC.buf().put(encodeAs<Form::Fp2>(Fixed, Ops[0].R.Num, Ops[1].R.Num));
    };
  };
  defineInstruction("fsqrts", Fp2(fixedBits(Opc::Fsqrts)));
  defineInstruction("fsqrtd", Fp2(fixedBits(Opc::Fsqrtd)));
  defineInstruction("sparc.xnor",
                    [](VCode &VC, const Operand *Ops, unsigned N) {
                      if (N != 3)
                        fatalKind(CgErrKind::BadOperand,
                            "sparc.xnor expects (rd, rs1, rs2)");
                      VC.buf().put(encode<Opc::Xnor>(
                          Ops[0].R.Num, Ops[1].R.Num, Ops[2].R.Num));
                    });
}

// The shared static-dispatch instantiation declared in SparcTarget.h.
template class vcode::VCodeT<SparcTarget>;
