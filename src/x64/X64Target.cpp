//===- x64/X64Target.cpp - x86-64 host backend ------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The hot emitters live inline in X64Target.h; this file holds the cold
// paths: target description, function framing, fixups, disassembly, and the
// machine-level extension instructions.
//
//===----------------------------------------------------------------------===//

#include "x64/X64Target.h"
#include "profile/Disasm.h"
#include "support/Telemetry.h"
#include "x64/X64Disasm.h"
#include <cstdio>
#include <vector>

using namespace vcode;
using namespace vcode::x64;

const TargetInfo &vcode::x64::x64TargetInfo() {
  static const TargetInfo TI = [] {
    TargetInfo T;
    T.Name = "x64";
    T.WordBytes = 8;
    T.HasBranchDelaySlot = false;
    T.LoadDelaySlots = 0;
    T.CodeUnitBytes = 1; // variable-length instructions: emit bytes
    T.Zero = intReg(R11); // synthesized: prologue zeroes it, calls re-zero
    T.At = intReg(R10);
    T.Sp = intReg(RSP);
    // x86 has no link register: call pushes the return address. R11 stands
    // in so the Reg is valid; no instruction ever reads it as a link.
    T.Ra = intReg(R11);
    T.IntTemps = {intReg(RAX), intReg(R9),  intReg(R8),  intReg(RCX),
                  intReg(RDX), intReg(RSI), intReg(RDI)};
    T.IntSaves = {intReg(RBX), intReg(R12), intReg(R13),
                  intReg(R14), intReg(R15), intReg(RBP)};
    // Non-argument XMM registers first; xmm14/15 are backend scratch. The
    // SysV ABI has no callee-saved XMM registers.
    T.FpTemps = {fpReg(8), fpReg(9), fpReg(10), fpReg(11), fpReg(12),
                 fpReg(13), fpReg(7), fpReg(6), fpReg(5),  fpReg(4),
                 fpReg(3),  fpReg(2), fpReg(1), fpReg(0)};
    T.FpSaves = {};
    T.DefaultCC.IntArgRegs = {intReg(RDI), intReg(RSI), intReg(RDX),
                              intReg(RCX), intReg(R8),  intReg(R9)};
    T.DefaultCC.FpArgRegs = {fpReg(0), fpReg(1), fpReg(2), fpReg(3),
                             fpReg(4), fpReg(5), fpReg(6), fpReg(7)};
    T.DefaultCC.IntRet = intReg(RAX);
    T.DefaultCC.FpRet = fpReg(0);
    T.DefaultCC.LinkReg = intReg(R11);
    T.DefaultCC.MinOutArgBytes = 0;
    T.OutArgReserveBytes = 32;
    return T;
  }();
  return TI;
}

X64Target::X64Target() {
  registerMachineInstructions();
  // Pair the byte-level encoder with its decoder for --dump-code (and
  // force X64Disasm.o into any link that uses this backend).
  profile::registerDisassembler("x64", &x64::decodeOne);
}

void X64Target::unsignedToFp(VCode &VC, bool ToDouble, Reg Rd, Reg Rs) {
  // cvtsi2ss/sd is a signed convert; a UL/P source with the top bit set
  // needs the classic fix: halve with round-to-odd, convert, double. The
  // common (top bit clear) case branches straight to the signed convert.
  CodeBuffer &B = VC.buf();
  Asm A(B);
  unsigned S = gpr(Rs), D = fpr(Rd);
  uint8_t Pfx = ToDouble ? 0xF2 : 0xF3;
  Label Big = VC.genLabel(), End = VC.genLabel();
  A.rr(true, 0x85, S, S); // test rs, rs
  VC.addFixup(FixupKind::Branch, Big);
  A.jcc32(CC_S);
  A.sse(Pfx, true, 0x2A, D, S); // cvtsi2ss/sd rd, rs
  VC.addFixup(FixupKind::Jump, End);
  A.jmp32();
  VC.label(Big);
  A.push(S); // [rsp] = rs; also scratch for the sticky bit
  A.movRR(AT, S);
  A.shiftRI(true, 5, AT, 1); // shr r10, 1
  B.put8(0x48);              // and qword [rsp], 1
  B.put8(0x83);
  B.put8(0x24);
  B.put8(0x24);
  B.put8(0x01);
  A.rm(true, 0x0B, AT, RSP, 0); // or r10, [rsp]
  A.sse(Pfx, true, 0x2A, D, AT);
  A.sse(Pfx, false, 0x58, D, D); // addss/sd rd, rd: undo the halving
  A.pop(AT);
  VC.label(End);
}

// --- Function framing -------------------------------------------------------

std::string X64Target::disassemble(uint32_t Word, SimAddr Pc) const {
  // Variable-length instructions do not disassemble one unit at a time;
  // show the raw byte (the unit) at this address.
  (void)Pc;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), ".byte 0x%02x", unsigned(Word & 0xff));
  return Buf;
}

void X64Target::beginFunction(VCode &VC) {
  // Reserve instruction-stream bytes for the worst-case prologue
  // (paper §5.2): zero-register setup (3), frame allocation (7), every
  // callee-saved register (6 x 8), and one typed load per stack-passed
  // argument (9 each). v_end writes the real prologue into the tail of
  // this region and the entry point skips the rest.
  uint32_t ReservedBytes =
      uint32_t(16 + 16 * 8 + 9 * VC.prologueArgCopies().size());
  VC.setReservedPrologueWords(ReservedBytes);
  VC.buf().fill(0x90, ReservedBytes);
}

CodePtr X64Target::endFunction(VCode &VC) {
  VCODE_TM_COUNT("x64.functions", 1);
  const TargetInfo &TI = info();
  CodeBuffer &B = VC.buf();
  uint32_t F = VC.frameBytes();
  if (F > 0x7fffffffu)
    fatalKind(CgErrKind::OutOfRange,
              "x64: frame of %u bytes exceeds the rel32 immediate range", F);
  uint32_t IntMask = VC.regAlloc().usedCalleeSavedMask(Reg::Int);

  // Assemble the prologue into scratch storage (instructions are variable
  // length, so it cannot be built as words), then right-align it in the
  // reserved region.
  // Every copy loads into a register of its own, so there are at most
  // as many as registers of both kinds.
  const size_t Copies = VC.prologueArgCopies().size();
  uint8_t Tmp[256 + 9 * 2 * RegAlloc::MaxRegs];
  if (Copies > 2 * RegAlloc::MaxRegs)
    fatalKind(CgErrKind::Internal, "x64: %zu prologue argument copies",
              Copies);
  CodeBuffer PB;
  CodeMem PM;
  PM.Host = Tmp;
  PM.Guest = 0;
  PM.Size = 256 + 9 * Copies;
  PB.reset(PM, 1);
  Asm P(PB);
  P.zeroR11(); // establish the synthesized zero register
  if (F) {
    P.aluRI(true, 5, RSP, F); // sub rsp, F
    for (unsigned N = 0; N < 16; ++N)
      if (IntMask & (1u << N))
        P.rm(true, 0x89, N, RSP, int32_t(TI.intSaveSlot(N)));
  }
  for (const PrologueArgCopy &Copy : VC.prologueArgCopies()) {
    // +8: the return address sits between the caller's out-arg area and
    // this frame.
    int64_t Off = int64_t(F) + 8 + Copy.IncomingOff;
    if (!isInt<32>(Off))
      fatalKind(CgErrKind::OutOfRange,
                "x64: incoming stack argument offset %lld out of range",
                (long long)Off);
    loadDisp(P, Copy.Ty, Copy.Dst, RSP, int32_t(Off));
  }
  size_t ProLen = PB.usedBytes();
  uint32_t Reserved = VC.reservedPrologueWords();
  if (ProLen > Reserved)
    fatalKind(CgErrKind::Internal,
              "x64: prologue of %zu bytes exceeds the %u reserved", ProLen,
              Reserved);
  uint32_t Start = Reserved - uint32_t(ProLen);
  for (size_t I = 0; I < ProLen; ++I)
    B.patch(uint32_t(Start + I), Tmp[I]);

  // Epilogue: restore registers, release the frame, return.
  if (F) {
    VC.label(VC.epilogueLabel());
    Asm E(B);
    for (unsigned N = 0; N < 16; ++N)
      if (IntMask & (1u << N))
        E.rm(true, 0x8B, N, RSP, int32_t(TI.intSaveSlot(N)));
    E.aluRI(true, 0, RSP, F); // add rsp, F
    E.ret();
  }

  CodePtr Ptr;
  Ptr.Entry = B.addrOfWord(Start);
  return Ptr;
}

void X64Target::applyFixup(VCode &VC, const Fixup &F, SimAddr Target) {
  CodeBuffer &B = VC.buf();
  // All patch sites are rel32 fields: FieldOff bytes into an instruction
  // of Len bytes, relative to the end of that instruction.
  auto PatchRel32 = [&](uint32_t FieldOff, unsigned Len) {
    int64_t Rel = int64_t(Target) - int64_t(B.addrOfWord(F.WordIdx) + Len);
    if (!isInt<32>(Rel))
      fatalKind(CgErrKind::OutOfRange,
                "x64: branch displacement %lld out of range", (long long)Rel);
    B.patch32(F.WordIdx + FieldOff, uint32_t(Rel));
  };
  switch (F.Kind) {
  case FixupKind::Branch: // 0F 8x rel32
    PatchRel32(2, 6);
    return;
  case FixupKind::Jump: // E9 rel32
  case FixupKind::Call: // E8 rel32
    PatchRel32(1, 5);
    return;
  case FixupKind::EpilogueJump:
    // Target==0: no epilogue; rewrite the optimistic 5-byte jump into a
    // plain return (paper §5.2's eliminated epilogue jump).
    if (Target == 0) {
      B.patch(F.WordIdx, 0xC3);
      for (uint32_t I = 1; I < 5; ++I)
        B.patch(F.WordIdx + I, 0x90);
      return;
    }
    PatchRel32(1, 5);
    return;
  case FixupKind::AddrHi:
  case FixupKind::AddrLo:
    fatalKind(CgErrKind::Internal,
              "x64: absolute-address fixups are unused on this port");
  }
  unreachable("bad FixupKind");
}

// --- Extension machine instructions (paper §5.4) ----------------------------

void X64Target::registerMachineInstructions() {
  auto Sqrt = [](uint8_t Prefix) {
    return [Prefix](VCode &VC, const Operand *Ops, unsigned N) {
      if (N != 2 || Ops[0].Kind != Operand::RegOp ||
          Ops[1].Kind != Operand::RegOp)
        fatalKind(CgErrKind::BadOperand,
                  "x64 fp machine instruction expects (rd, rs)");
      Asm A(VC.buf());
      A.sse(Prefix, false, 0x51, Ops[0].R.Num, Ops[1].R.Num); // sqrtss/sd
    };
  };
  // The paper's worked example: (sqrt (rd, rs) (f fsqrts) (d fsqrtd)).
  defineInstruction("fsqrts", Sqrt(0xF3));
  defineInstruction("fsqrtd", Sqrt(0xF2));
  // A CISC-only example for the spec tests: byte swap.
  defineInstruction("x64.bswap",
                    [](VCode &VC, const Operand *Ops, unsigned N) {
                      if (N != 1 || Ops[0].Kind != Operand::RegOp)
                        fatalKind(CgErrKind::BadOperand,
                                  "x64.bswap expects (rd)");
                      unsigned R = Ops[0].R.Num;
                      Asm A(VC.buf());
                      A.rex(true, 0, 0, R);
                      VC.buf().put8(0x0F);
                      VC.buf().put8(uint8_t(0xC8 | (R & 7)));
                    });
}

// The shared static-dispatch instantiation declared in X64Target.h.
template class vcode::VCodeT<X64Target>;
