//===- mips/MipsTarget.cpp - MIPS32 backend --------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The hot emitters live inline in MipsTarget.h; this file holds the cold
// paths: target description, function framing, fixups, disassembly, and the
// machine-level extension instructions.
//
//===----------------------------------------------------------------------===//

#include "mips/MipsTarget.h"
#include "support/Telemetry.h"
#include "mips/MipsDecode.h"

using namespace vcode;
using namespace vcode::mips;

const TargetInfo &vcode::mips::mipsTargetInfo() {
  static const TargetInfo TI = [] {
    TargetInfo T;
    T.Name = "mips";
    T.WordBytes = 4;
    T.HasBranchDelaySlot = true;
    T.LoadDelaySlots = 1;
    T.Zero = intReg(ZERO);
    T.At = intReg(AT);
    T.Sp = intReg(SP);
    T.Ra = intReg(RA);
    T.IntTemps = {intReg(T0), intReg(T1), intReg(T2), intReg(T3), intReg(T4),
                  intReg(T5), intReg(T6), intReg(T7), intReg(T8), intReg(T9),
                  intReg(V1), intReg(A3), intReg(A2), intReg(A1), intReg(A0)};
    T.IntSaves = {intReg(S0), intReg(S1), intReg(S2), intReg(S3), intReg(S4),
                  intReg(S5), intReg(S6), intReg(S7), intReg(S8)};
    T.FpTemps = {fpReg(4), fpReg(6), fpReg(8), fpReg(10), fpReg(2),
                 fpReg(14), fpReg(12)};
    T.FpSaves = {fpReg(20), fpReg(22), fpReg(24), fpReg(26), fpReg(28),
                 fpReg(30)};
    T.DefaultCC.IntArgRegs = {intReg(A0), intReg(A1), intReg(A2), intReg(A3)};
    T.DefaultCC.FpArgRegs = {fpReg(12), fpReg(14)};
    T.DefaultCC.IntRet = intReg(V0);
    T.DefaultCC.FpRet = fpReg(0);
    T.DefaultCC.LinkReg = intReg(RA);
    T.DefaultCC.MinOutArgBytes = 16;
    T.OutArgReserveBytes = 32;
    return T;
  }();
  return TI;
}

MipsTarget::MipsTarget() { registerMachineInstructions(); }

void MipsTarget::unsignedToFp(VCode &VC, bool ToDouble, Reg Rd, Reg Rs) {
  CodeBuffer &B = VC.buf();
  unsigned S = gpr(Rs);
  // Convert as signed, then add 2^32 if the sign bit was set. The fix block
  // has a fixed length, so the branch displacement is known at emission.
  Label Pool = VC.constPoolLabel(std::bit_cast<uint64_t>(4294967296.0));
  unsigned Acc = ToDouble ? fpr(Rd) : FAT1;
  B.ensureWords(ToDouble ? 8 : 9);
  B.put(encode<Opc::Mtc1>(S, FAT0));
  B.put(encode<Opc::CvtD>(FMT_W, Acc, FAT0));
  B.put(encode<Opc::Bgez>(S, 5)); // skip the 5-word fix block
  B.put(Nop);
  addrOfLabel(VC, AT, Pool); // 2 words
  B.put(encode<Opc::Ldc1>(FAT0, AT, 0));
  B.put(encode<Opc::AddF>(FMT_D, Acc, Acc, FAT0));
  if (!ToDouble)
    B.put(encode<Opc::CvtS>(FMT_D, fpr(Rd), Acc));
}

// --- Function framing -------------------------------------------------------

std::string MipsTarget::disassemble(uint32_t Word, SimAddr Pc) const {
  return mips::disassemble(Word, Pc);
}

void MipsTarget::beginFunction(VCode &VC) {
  // Reserve instruction-stream space for the worst-case prologue
  // (paper §5.2): frame allocation, ra save, every callee-saved register,
  // and one copy per stack-passed argument. v_end writes the real prologue
  // into the tail of this region and the entry point skips the rest.
  uint32_t ReservedWords = uint32_t(2 + 32 + 32 + VC.prologueArgCopies().size());
  VC.setReservedPrologueWords(ReservedWords);
  VC.buf().fill(Nop, ReservedWords);
}

CodePtr MipsTarget::endFunction(VCode &VC) {
  VCODE_TM_COUNT("mips.functions", 1);
  const TargetInfo &TI = info();
  CodeBuffer &B = VC.buf();
  uint32_t F = VC.frameBytes();
  if (!isInt<16>(int64_t(F)))
    fatalKind(CgErrKind::OutOfRange,
        "mips: frame of %u bytes exceeds the 32KB immediate range", F);

  uint32_t IntMask = VC.regAlloc().usedCalleeSavedMask(Reg::Int);
  uint32_t FpMask = VC.regAlloc().usedCalleeSavedMask(Reg::Fp);

  // Build the prologue.
  PrologueWords Pro;
  if (F) {
    Pro.push_back(encode<Opc::Addiu>(SP, SP, -int32_t(F)));
    if (!VC.isLeaf())
      Pro.push_back(encode<Opc::Sw>(gpr(VC.cc().LinkReg), SP,
                                    int32_t(TI.linkSaveSlot())));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        Pro.push_back(encode<Opc::Sw>(N, SP, int32_t(TI.intSaveSlot(N))));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        Pro.push_back(encode<Opc::Sdc1>(N, SP, int32_t(TI.fpSaveSlot(N))));
  }
  for (const PrologueArgCopy &Copy : VC.prologueArgCopies()) {
    int64_t Off = int64_t(F) + Copy.IncomingOff;
    if (!isInt<16>(Off))
      fatalKind(CgErrKind::OutOfRange,
          "mips: incoming stack argument offset %lld out of range",
            (long long)Off);
    unsigned Rt = isFpType(Copy.Ty) ? fpr(Copy.Dst) : gpr(Copy.Dst);
    Pro.push_back(loadWord(Copy.Ty, Rt, SP, int32_t(Off)));
  }

  uint32_t ReservedWords = VC.reservedPrologueWords();
  if (Pro.size() > ReservedWords)
    fatalKind(CgErrKind::Internal,
        "mips: prologue of %zu words exceeds the %u reserved", Pro.size(),
          ReservedWords);
  uint32_t Start = ReservedWords - uint32_t(Pro.size());
  for (size_t I = 0; I < Pro.size(); ++I)
    B.patch(uint32_t(Start + I), Pro[I]);

  // Epilogue: restore registers and return. The frame release rides the
  // return's delay slot.
  if (F) {
    VC.label(VC.epilogueLabel());
    if (!VC.isLeaf())
      B.put(encode<Opc::Lw>(gpr(VC.cc().LinkReg), SP,
                             int32_t(TI.linkSaveSlot())));
    for (unsigned N = 0; N < 32; ++N)
      if (IntMask & (1u << N))
        B.put(encode<Opc::Lw>(N, SP, int32_t(TI.intSaveSlot(N))));
    for (unsigned N = 0; N < 32; ++N)
      if (FpMask & (1u << N))
        B.put(encode<Opc::Ldc1>(N, SP, int32_t(TI.fpSaveSlot(N))));
    B.put(encode<Opc::Jr>(gpr(VC.cc().LinkReg)));
    B.put(encode<Opc::Addiu>(SP, SP, int32_t(F)));
  }

  CodePtr P;
  P.Entry = B.addrOfWord(Start);
  return P;
}

void MipsTarget::applyFixup(VCode &VC, const Fixup &F, SimAddr Target) {
  CodeBuffer &B = VC.buf();
  switch (F.Kind) {
  case FixupKind::Branch: {
    int64_t Disp =
        (int64_t(Target) - int64_t(B.addrOfWord(F.WordIdx) + 4)) / 4;
    if (!isInt<16>(Disp))
      fatalKind(CgErrKind::OutOfRange,
          "mips: branch displacement %lld out of range", (long long)Disp);
    B.patchOr(F.WordIdx, uint32_t(Disp) & 0xffff);
    return;
  }
  case FixupKind::Jump:
    B.patch(F.WordIdx, encode<Opc::J>(Target));
    return;
  case FixupKind::Call:
    B.patch(F.WordIdx, encode<Opc::Jal>(Target));
    return;
  case FixupKind::EpilogueJump:
    // Target==0: no epilogue; the optimistic `jr ra` already in place is
    // the final instruction (paper §5.2's eliminated epilogue jump).
    if (Target != 0)
      B.patch(F.WordIdx, encode<Opc::J>(Target));
    return;
  case FixupKind::AddrHi:
    B.patchOr(F.WordIdx, uint32_t(Target >> 16) & 0xffff);
    return;
  case FixupKind::AddrLo:
    B.patchOr(F.WordIdx, uint32_t(Target) & 0xffff);
    return;
  }
  unreachable("bad FixupKind");
}

// --- Extension machine instructions (paper §5.4) ----------------------------

void MipsTarget::registerMachineInstructions() {
  auto Fp2 = [](uint32_t Fixed, unsigned Fmt) {
    return [Fixed, Fmt](VCode &VC, const Operand *Ops, unsigned N) {
      if (N != 2 || Ops[0].Kind != Operand::RegOp ||
          Ops[1].Kind != Operand::RegOp)
        fatalKind(CgErrKind::BadOperand,
            "mips fp machine instruction expects (rd, rs)");
      VC.buf().put(
          encodeAs<Form::FdFs>(Fixed, Fmt, Ops[0].R.Num, Ops[1].R.Num));
    };
  };
  // The paper's worked example: (sqrt (rd, rs) (f fsqrts) (d fsqrtd)).
  defineInstruction("fsqrts", Fp2(fixedBits(Opc::SqrtF), FMT_S));
  defineInstruction("fsqrtd", Fp2(fixedBits(Opc::SqrtF), FMT_D));
  defineInstruction("fabss", Fp2(fixedBits(Opc::AbsF), FMT_S));
  defineInstruction("fabsd", Fp2(fixedBits(Opc::AbsF), FMT_D));
  // An integer example for the spec tests: nor.
  defineInstruction("mips.nor", [](VCode &VC, const Operand *Ops, unsigned N) {
    if (N != 3)
      fatalKind(CgErrKind::BadOperand,
          "mips.nor expects (rd, rs1, rs2)");
    VC.buf().put(
        encode<Opc::Nor>(Ops[0].R.Num, Ops[1].R.Num, Ops[2].R.Num));
  });
}

// The shared static-dispatch instantiation declared in MipsTarget.h.
template class vcode::VCodeT<MipsTarget>;
