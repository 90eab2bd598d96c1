//===- tests/DisasmTest.cpp - Disassembler tests ------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §6.2 debugger support: every word a backend emits must disassemble
// to something symbolic (no .word fallbacks) for representative functions,
// and known instructions must print their documented mnemonics. The MIPS
// and SPARC decode tables are also checked against llvm-mc, an independent
// decoder; Alpha has no LLVM target and is checked only against itself.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "alpha/AlphaEncoding.h"
#include "alpha/AlphaTarget.h"
#include "mips/MipsTarget.h"
#include "sparc/SparcTarget.h"
#include "core/Debug.h"
#include "mips/MipsEncoding.h"
#include "sparc/SparcEncoding.h"
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <utility>

using namespace vcode;
using namespace vcode::test;

namespace {

class DisasmTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

TEST(DisasmKnownWords, Mips) {
  mips::MipsTarget T;
  EXPECT_EQ(T.disassemble(mips::addu(mips::V0, mips::A0, mips::ZERO), 0),
            "addu    v0, a0, zero");
  EXPECT_EQ(T.disassemble(mips::addiu(mips::A0, mips::A0, 1), 0),
            "addiu   a0, a0, 1");
  EXPECT_EQ(T.disassemble(mips::jr(mips::RA), 0), "jr      ra");
  EXPECT_EQ(T.disassemble(mips::lw(mips::T0, mips::SP, -8), 0),
            "lw      t0, -8(sp)");
  EXPECT_EQ(T.disassemble(0, 0), "nop");
  // Branch targets print absolute: beq at pc 0x1000 with disp +3 words.
  EXPECT_EQ(T.disassemble(mips::beq(mips::T0, mips::T1, 3), 0x1000),
            "beq     t0, t1, 0x1010");
  // Words the interpreter executes but the backend never emits.
  EXPECT_EQ(T.disassemble(mips::blez(mips::T0, -1), 0x1000),
            "blez    t0, 0x1000");
  EXPECT_EQ(T.disassemble(mips::bgtz(mips::A0, 2), 0x1000),
            "bgtz    a0, 0x100c");
  EXPECT_EQ(T.disassemble(mips::iType(0x08, mips::A0, mips::V0, -5), 0),
            "addi    v0, a0, -5");
  EXPECT_EQ(T.disassemble(mips::rType(0x20, mips::A0, mips::A1, mips::V0), 0),
            "add     v0, a0, a1");
  EXPECT_EQ(T.disassemble(mips::rType(0x22, mips::A0, mips::A1, mips::V0), 0),
            "sub     v0, a0, a1");
  EXPECT_EQ(T.disassemble(mips::rType(0x11, mips::T2, 0, 0), 0),
            "mthi    t2");
  EXPECT_EQ(T.disassemble(mips::rType(0x13, mips::T3, 0, 0), 0),
            "mtlo    t3");
  // Only words the interpreter rejects print as data.
  EXPECT_EQ(T.disassemble(0xfc000000u, 0), ".word   0xfc000000");
}

/// Every instruction the decoder knows -- which is every instruction the
/// interpreter executes -- disassembles symbolically.
TEST(DisasmKnownWords, MipsEveryOpcIsSymbolic) {
  mips::MipsTarget T;
  for (unsigned I = 1; I < mips::NumOpcs; ++I) {
    uint32_t W = mipsRepresentativeWord(mips::Opc(I));
    std::string Text = T.disassemble(W, 0x1000);
    EXPECT_EQ(Text.find(".word"), std::string::npos)
        << mips::info(mips::Opc(I)).Mnemonic << ": " << Text;
  }
}

/// First whitespace-delimited token of \p S ("" when none).
std::string firstToken(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  return S.substr(B, S.find_first_of(" \t\n", B) - B);
}

/// Mnemonic llvm-mc prints for word \p W under \p Flags (triple and CPU),
/// fed in the target's byte order, or "" when it rejects the encoding.
std::string llvmMcMnemonic(uint32_t W, const char *Flags, bool BigEndian) {
  unsigned B[4] = {W & 0xff, (W >> 8) & 0xff, (W >> 16) & 0xff, W >> 24};
  if (BigEndian) {
    std::swap(B[0], B[3]);
    std::swap(B[1], B[2]);
  }
  char Cmd[192];
  std::snprintf(Cmd, sizeof(Cmd),
                "echo '0x%02x 0x%02x 0x%02x 0x%02x' | llvm-mc --disassemble "
                "%s 2>/dev/null",
                B[0], B[1], B[2], B[3], Flags);
  FILE *P = popen(Cmd, "r");
  if (!P)
    return "";
  std::string Mn;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), P)) {
    std::string Tok = firstToken(Line);
    if (!Tok.empty() && Tok[0] != '.') // skip ".text"
      Mn = Tok;
  }
  pclose(P);
  return Mn;
}

/// llvm-mc's little-endian MIPS decoder at ISA level \p Cpu.
std::string mipsLlvmMc(uint32_t W, const char *Cpu) {
  std::string Flags = std::string("-triple=mipsel -mcpu=") + Cpu;
  return llvmMcMnemonic(W, Flags.c_str(), /*BigEndian=*/false);
}

bool haveLlvmMc() {
  return std::system("command -v llvm-mc >/dev/null 2>&1") == 0;
}

/// An independent oracle for the decode table: llvm-mc's MIPS disassembler
/// must name the same instruction (first token; operand syntax differs)
/// for the representative word of every Opc. Skips when llvm-mc is not
/// installed.
TEST(DisasmOracle, MipsMnemonicsMatchLlvmMc) {
  if (!haveLlvmMc())
    GTEST_SKIP() << "llvm-mc not installed";
  mips::MipsTarget T;
  // MIPS II instructions the backend emits: llvm-mc rejects them under
  // -mcpu=mips1, so they are checked at mips2.
  auto IsMips2 = [](mips::Opc Op) {
    return Op == mips::Opc::SqrtF || Op == mips::Opc::TruncW ||
           Op == mips::Opc::Ldc1 || Op == mips::Opc::Sdc1;
  };
  for (unsigned I = 1; I < mips::NumOpcs; ++I) {
    mips::Opc Op = mips::Opc(I);
    uint32_t W = mipsRepresentativeWord(Op);
    EXPECT_EQ(firstToken(T.disassemble(W, 0x1000)),
              mipsLlvmMc(W, IsMips2(Op) ? "mips2" : "mips1"))
        << "0x" << std::hex << W;
  }
  // Documented aliases: the all-zero word (sll zero, zero, 0) is nop in
  // both.
  EXPECT_EQ(firstToken(T.disassemble(0, 0)), "nop");
  EXPECT_EQ(mipsLlvmMc(0, "mips1"), "nop");
  // Interpreter quirk: every REGIMM rt other than 0 executes (and prints)
  // as bgez. The architecture defines rt = 16/17 as bltzal/bgezal, which
  // the backend never emits, and leaves the rest unassigned.
  uint32_t Bltzal = mips::bgez(mips::A0, 2) ^ (1u << 16) ^ (16u << 16);
  EXPECT_EQ(firstToken(T.disassemble(Bltzal, 0)), "bgez");
  EXPECT_EQ(mipsLlvmMc(Bltzal, "mips1"), "bltzal");
  uint32_t Rt2 = mips::bgez(mips::A0, 2) ^ (1u << 16) ^ (2u << 16);
  EXPECT_EQ(firstToken(T.disassemble(Rt2, 0)), "bgez");
  EXPECT_EQ(mipsLlvmMc(Rt2, "mips1"), "");
}

TEST(DisasmKnownWords, Sparc) {
  sparc::SparcTarget T;
  EXPECT_EQ(T.disassemble(sparc::add(sparc::O0, sparc::O1, sparc::O2), 0),
            "add     %o1, %o2, %o0");
  EXPECT_EQ(T.disassemble(sparc::ori(sparc::G2, sparc::G0, 42), 0),
            "or      %g0, 42, %g2");
  EXPECT_EQ(T.disassemble(sparc::sethi(sparc::G1, 0x3ff), 0),
            "sethi   %hi(0xffc00), %g1");
  EXPECT_EQ(T.disassemble(sparc::nop(), 0), "nop");
  EXPECT_EQ(T.disassemble(sparc::bicc(sparc::CondNE, 4), 0x2000),
            "bne   0x2010");
  EXPECT_EQ(T.disassemble(sparc::memri(sparc::LD, sparc::L0, sparc::SP, 64),
                          0),
            "ld      [%sp + 64], %l0");
  // wr prints both operands: the interpreter writes rs1 ^ operand 2 to %y.
  EXPECT_EQ(T.disassemble(sparc::wry(sparc::G1), 0), "wr      %g1, %g0, %y");
  EXPECT_EQ(T.disassemble(sparc::wryi(sparc::G1, -3), 0),
            "wr      %g1, -3, %y");
  // The interpreter rejects annulled branches, so they print as data.
  EXPECT_EQ(T.disassemble(sparc::bicc(sparc::CondNE, 4, /*Annul=*/true),
                          0x2000),
            ".word   0x32800004");
  EXPECT_EQ(T.disassemble(sparc::fbfcc(sparc::FCondE, 4) | (1u << 29), 0),
            ".word   0x33800004");
}

/// Every instruction the SPARC decoder knows -- which is every instruction
/// the interpreter executes -- disassembles symbolically.
TEST(DisasmKnownWords, SparcEveryOpcIsSymbolic) {
  sparc::SparcTarget T;
  for (unsigned I = 1; I < sparc::NumOpcs; ++I) {
    uint32_t W = sparcRepresentativeWord(sparc::Opc(I));
    std::string Text = T.disassemble(W, 0x1000);
    EXPECT_EQ(Text.find(".word"), std::string::npos)
        << sparc::info(sparc::Opc(I)).Mnemonic << ": " << Text;
  }
}

/// The SPARC decode table against llvm-mc's SPARC V8 decoder: the same
/// instruction (first token) for the representative word of every Opc.
/// Skips when llvm-mc is not installed.
TEST(DisasmOracle, SparcMnemonicsMatchLlvmMc) {
  if (!haveLlvmMc())
    GTEST_SKIP() << "llvm-mc not installed";
  sparc::SparcTarget T;
  auto Llvm = [](uint32_t W) {
    return llvmMcMnemonic(W, "-triple=sparc", /*BigEndian=*/true);
  };
  // Documented spellings: llvm-mc names FP loads and stores by the
  // integer mnemonic and tells them apart by the register operand.
  auto Expected = [](sparc::Opc Op, const std::string &Ours) {
    switch (Op) {
    case sparc::Opc::Ldf:
      return std::string("ld");
    case sparc::Opc::Lddf:
      return std::string("ldd");
    case sparc::Opc::Stf:
      return std::string("st");
    case sparc::Opc::Stdf:
      return std::string("std");
    default:
      return Ours;
    }
  };
  for (unsigned I = 1; I < sparc::NumOpcs; ++I) {
    sparc::Opc Op = sparc::Opc(I);
    uint32_t W = sparcRepresentativeWord(Op);
    EXPECT_EQ(Expected(Op, firstToken(T.disassemble(W, 0x1000))), Llvm(W))
        << sparc::info(Op).Mnemonic << " 0x" << std::hex << W;
  }
  // Both decoders read every Bicc/FBfcc condition the same way.
  for (uint32_t Cond = 0; Cond < 16; ++Cond)
    for (uint32_t W : {sparc::bicc(Cond, 2), sparc::fbfcc(Cond, 2)})
      EXPECT_EQ(firstToken(T.disassemble(W, 0)), Llvm(W))
          << "0x" << std::hex << W;
  // Aliases: nop is sethi 0, %g0 in both, and llvm-mc spells the annulled
  // branch our table rejects "bne,a".
  EXPECT_EQ(firstToken(T.disassemble(sparc::nop(), 0)), "nop");
  EXPECT_EQ(Llvm(sparc::nop()), "nop");
  EXPECT_EQ(Llvm(sparc::bicc(sparc::CondNE, 2, /*Annul=*/true)), "bne,a");
}

TEST(DisasmKnownWords, Alpha) {
  alpha::AlphaTarget T;
  EXPECT_EQ(T.disassemble(alpha::addq(alpha::V0, alpha::A0, alpha::A1), 0),
            "addq    a0, a1, v0");
  EXPECT_EQ(T.disassemble(alpha::addli(alpha::T0, alpha::T1, 7), 0),
            "addl    t1, #7, t0");
  EXPECT_EQ(T.disassemble(alpha::lda(alpha::SP, alpha::SP, -64), 0),
            "lda     sp, -64(sp)");
  EXPECT_EQ(T.disassemble(alpha::ret(alpha::ZERO, alpha::RA), 0),
            "ret     zero, (ra)");
  EXPECT_EQ(T.disassemble(alpha::nop(), 0), "nop");
  EXPECT_EQ(T.disassemble(alpha::beq(alpha::T0, 2), 0x4000),
            "beq     t0, 0x400c");
}

/// Every instruction the Alpha decoder knows -- which is every instruction
/// the interpreter executes -- disassembles symbolically. There is no
/// independent Alpha decoder to check the table against.
TEST(DisasmKnownWords, AlphaEveryOpcIsSymbolic) {
  alpha::AlphaTarget T;
  for (unsigned I = 1; I < alpha::NumOpcs; ++I) {
    uint32_t W = alphaRepresentativeWord(alpha::Opc(I));
    std::string Text = T.disassemble(W, 0x1000);
    EXPECT_EQ(Text.find(".word"), std::string::npos)
        << alpha::info(alpha::Opc(I)).Mnemonic << ": " << Text;
  }
}

/// Every word emitted for a representative kitchen-sink function must
/// disassemble symbolically — the disassembler covers the backend.
TEST_P(DisasmTest, FullCoverageOfEmittedCode) {
  VCode V(*B.Tgt);
  Reg Arg[3];
  CodeMem CM = B.Mem->allocCode(1 << 16);
  V.lambda("%i%p%d", Arg, NonLeafHint, CM);
  Reg T = V.getreg(Type::I, RegClass::Var);
  Reg U = V.getreg(Type::U);
  Reg D = V.getreg(Type::D);
  Reg F = V.getreg(Type::F);
  Local L = V.localVar(Type::I);
  V.seti(T, 123456789);
  V.storeLocal(Type::I, T, L);
  V.addii(T, T, 1);
  V.subi(T, T, Arg[0]);
  V.mulii(T, T, 3);
  V.divii(T, T, 7);
  V.modii(T, T, 5);
  V.andii(T, T, 0xff);
  V.orii(T, T, 0x100);
  V.xorii(T, T, 0x55);
  V.lshii(T, T, 2);
  V.rshii(T, T, 1);
  V.comi(U, T);
  V.noti(U, U);
  V.negi(U, U);
  V.setd(D, 3.25);
  V.addd(D, D, Arg[2]);
  V.cvd2f(F, D);
  V.cvf2d(D, F);
  V.cvi2d(D, T);
  V.cvd2i(T, D);
  V.ldci(U, Arg[1], 1);
  V.stci(U, Arg[1], 2);
  V.ldusi(U, Arg[1], 4);
  V.stsi(U, Arg[1], 6);
  V.ldui(U, Arg[1], 8);
  V.stui(U, Arg[1], 12);
  V.lddi(D, Arg[1], 16);
  V.stdi(D, Arg[1], 24);
  Label L1 = V.genLabel(), L2 = V.genLabel();
  V.bltii(T, 100, L1);
  V.bged(D, Arg[2], L1);
  V.label(L1);
  V.jmp(L2);
  V.label(L2);
  V.callBegin("%i");
  V.callArg(T);
  V.callAddr(0x10000100);
  V.reti(T);
  CodePtr Fn = V.end();

  // SizeBytes counts from the region base; the entry skips the unused
  // prologue reserve. Stop before the constant pool (raw data need not
  // decode).
  size_t CodeBytes = size_t(CM.Guest + Fn.SizeBytes - Fn.Entry) - 16;
  std::string Listing = disassembleRange(
      *B.Tgt, B.Mem->hostPtr(Fn.Entry, CodeBytes), Fn.Entry, CodeBytes);
  EXPECT_EQ(Listing.find(".word"), std::string::npos)
      << GetParam() << " has undecoded instructions:\n"
      << Listing;
  EXPECT_NE(Listing.find('\n'), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DisasmTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
