//===- tests/DisasmTest.cpp - Disassembler tests ------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §6.2 debugger support: every word a backend emits must disassemble
// to something symbolic (no .word fallbacks) for representative functions,
// and known instructions must print their documented mnemonics. The MIPS
// and SPARC decode tables, which the encoders are built from too, are also
// checked against llvm-mc, an independent decoder, operands included;
// LLVM 14 has no Alpha target, so Alpha is checked only against itself.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "alpha/AlphaTarget.h"
#include "core/Debug.h"
#include "mips/MipsTarget.h"
#include "sparc/SparcTarget.h"
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace vcode;
using namespace vcode::test;

namespace {

class DisasmTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

TEST(DisasmKnownWords, Mips) {
  using namespace mips;
  MipsTarget T;
  EXPECT_EQ(T.disassemble(encode<Opc::Addu>(V0, A0, ZERO), 0),
            "addu    v0, a0, zero");
  EXPECT_EQ(T.disassemble(encode<Opc::Addiu>(A0, A0, 1), 0),
            "addiu   a0, a0, 1");
  EXPECT_EQ(T.disassemble(encode<Opc::Jr>(RA), 0), "jr      ra");
  EXPECT_EQ(T.disassemble(encode<Opc::Lw>(T0, SP, -8), 0),
            "lw      t0, -8(sp)");
  EXPECT_EQ(T.disassemble(0, 0), "nop");
  // Branch targets print absolute: beq at pc 0x1000 with disp +3 words.
  EXPECT_EQ(T.disassemble(encode<Opc::Beq>(T0, T1, 3), 0x1000),
            "beq     t0, t1, 0x1010");
  // Words the interpreter executes but the backend never emits.
  EXPECT_EQ(T.disassemble(encode<Opc::Blez>(T0, -1), 0x1000),
            "blez    t0, 0x1000");
  EXPECT_EQ(T.disassemble(encode<Opc::Bgtz>(A0, 2), 0x1000),
            "bgtz    a0, 0x100c");
  EXPECT_EQ(T.disassemble(encode<Opc::Addi>(V0, A0, -5), 0),
            "addi    v0, a0, -5");
  EXPECT_EQ(T.disassemble(encode<Opc::Add>(V0, A0, A1), 0),
            "add     v0, a0, a1");
  EXPECT_EQ(T.disassemble(encode<Opc::Sub>(V0, A0, A1), 0),
            "sub     v0, a0, a1");
  EXPECT_EQ(T.disassemble(encode<Opc::Mthi>(T2), 0), "mthi    t2");
  EXPECT_EQ(T.disassemble(encode<Opc::Mtlo>(T3), 0), "mtlo    t3");
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

bool haveLlvmMc() {
  return std::system("command -v llvm-mc >/dev/null 2>&1") == 0;
}

/// What llvm-mc prints for each of \p Words under \p Flags (triple and
/// CPU), fed in the target's byte order, or "" where it rejects the
/// encoding. One process reads them all; every word is followed by the
/// nop \p Sep, so a rejected word (llvm-mc skips it with a warning) is a
/// separator with no text before it.
std::vector<std::string> llvmMcBatch(const std::vector<uint32_t> &Words,
                                     uint32_t Sep, const char *Flags,
                                     bool BigEndian) {
  std::string Cmd = "printf '";
  auto Add = [&](uint32_t W) {
    if (BigEndian)
      W = __builtin_bswap32(W);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%02x 0x%02x 0x%02x 0x%02x\\n",
                  W & 0xff, (W >> 8) & 0xff, (W >> 16) & 0xff, W >> 24);
    Cmd += Buf;
  };
  for (uint32_t W : Words) {
    Add(W);
    Add(Sep);
  }
  Cmd += std::string("' | llvm-mc --disassemble ") + Flags + " 2>/dev/null";
  std::vector<std::string> Lines;
  if (FILE *P = popen(Cmd.c_str(), "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), P)) {
      std::string L = Line;
      size_t B = L.find_first_not_of(" \t"), E = L.find_last_not_of(" \t\n");
      if (B != std::string::npos && L[B] != '.') // skip ".text"
        Lines.push_back(L.substr(B, E + 1 - B));
    }
    pclose(P);
  }
  std::vector<std::string> Out;
  size_t K = 0;
  for (size_t I = 0; I < Words.size(); ++I) {
    Out.push_back(K < Lines.size() && Lines[K] != "nop" ? Lines[K++] : "");
    if (K < Lines.size() && Lines[K] == "nop")
      ++K;
  }
  return Out;
}

/// \p Text as tokens both printers agree on: the mnemonic, then each
/// operand with registers as "r<N>"/"f<N>" through \p RegNum (N for an
/// integer register, -2 - N for an FPR, -1 for anything else) and numbers
/// in decimal. Separators (",()[]+" and blanks) drop out.
std::vector<std::string> normalize(const std::string &Text,
                                   int (*RegNum)(const std::string &)) {
  std::vector<std::string> Toks;
  std::string Cur;
  auto Flush = [&] {
    if (Cur.empty())
      return;
    int R = Toks.empty() ? -1 : RegNum(Cur);
    char *End = nullptr;
    long long N = std::strtoll(Cur.c_str(), &End, 0);
    if (R >= 0)
      Cur = "r" + std::to_string(R);
    else if (R < -1)
      Cur = "f" + std::to_string(-R - 2);
    else if (!Toks.empty() && End && *End == '\0')
      Cur = std::to_string(N);
    Toks.push_back(Cur);
    Cur.clear();
  };
  for (char C : Text) {
    if (std::strchr(" \t,()[]+", C))
      Flush();
    else
      Cur += C;
  }
  Flush();
  return Toks;
}

std::string join(const std::vector<std::string> &Toks) {
  std::string S;
  for (const std::string &T : Toks)
    S += (S.empty() ? "" : " ") + T;
  return S;
}

/// MIPS register number of \p Tok in either printer's spelling ("a0",
/// "$4", "$a0", "$f4", "f4"): N for a GPR, -2 - N for an FPR, -1 else.
int mipsRegNum(const std::string &Tok) {
  static const char *Names[32] = {
      "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2",
      "t3",   "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5",
      "s6",   "s7", "t8", "t9", "k0", "k1", "gp", "sp", "s8", "ra"};
  std::string T = Tok[0] == '$' ? Tok.substr(1) : Tok;
  if (T.size() > 1 && T[0] == 'f' && std::isdigit((unsigned char)T[1]))
    return -2 - std::atoi(T.c_str() + 1);
  if (Tok[0] == '$' && std::isdigit((unsigned char)T[0]))
    return std::atoi(T.c_str());
  if (T == "fp")
    return 30;
  for (int N = 0; N < 32; ++N)
    if (T == Names[N])
      return N;
  return -1;
}

/// An independent oracle for the decode table: llvm-mc's MIPS disassembler
/// must print the same instruction with the same operands for the
/// representative word of every Opc. Both print at address 0, where our
/// absolute branch and jump targets equal llvm-mc's offsets. Checked at
/// MIPS II, the level of the newest instructions the backend emits
/// (ldc1, sdc1, sqrt, trunc.w). Skips when llvm-mc is not installed.
TEST(DisasmOracle, MipsMnemonicsMatchLlvmMc) {
  if (!haveLlvmMc())
    GTEST_SKIP() << "llvm-mc not installed";
  mips::MipsTarget T;
  // Interpreter quirk: every REGIMM rt other than 0 executes (and prints)
  // as bgez. The architecture defines rt = 16 as bltzal, which the
  // backend never emits, and leaves rt = 4 unassigned.
  const uint32_t Bgez = encode<mips::Opc::Bgez>(mips::A0, 2);
  const uint32_t Bltzal = Bgez ^ (1u << 16) ^ (16u << 16);
  const uint32_t Rt4 = Bgez ^ (1u << 16) ^ (4u << 16);
  std::vector<uint32_t> Words;
  for (unsigned I = 1; I < mips::NumOpcs; ++I)
    Words.push_back(mipsRepresentativeWord(mips::Opc(I)));
  Words.insert(Words.end(), {Bltzal, Rt4});
  std::vector<std::string> Llvm =
      llvmMcBatch(Words, mips::Nop, "-triple=mipsel -mcpu=mips2", false);
  for (unsigned I = 1; I < mips::NumOpcs; ++I) {
    mips::Opc Op = mips::Opc(I);
    std::vector<std::string> Theirs = normalize(Llvm[I - 1], mipsRegNum);
    // Documented spelling: llvm-mc prints div/divu in the assembler's
    // three-operand form, with zero as the destination.
    if ((Op == mips::Opc::Div || Op == mips::Opc::Divu) &&
        Theirs.size() == 4 && Theirs[1] == "r0")
      Theirs.erase(Theirs.begin() + 1);
    EXPECT_EQ(join(normalize(T.disassemble(Words[I - 1], 0), mipsRegNum)),
              join(Theirs))
        << mips::info(Op).Mnemonic << " 0x" << std::hex << Words[I - 1];
  }
  EXPECT_EQ(T.disassemble(Bltzal, 0), "bgez    a0, 0xc");
  EXPECT_EQ(join(normalize(Llvm[mips::NumOpcs - 1], mipsRegNum)),
            "bltzal r4 12");
  EXPECT_EQ(T.disassemble(Rt4, 0), "bgez    a0, 0xc");
  EXPECT_EQ(Llvm[mips::NumOpcs], "");
  // Documented alias: the all-zero word (sll zero, zero, 0) is nop in
  // both; it is also the batch separator.
  EXPECT_EQ(T.disassemble(mips::Nop, 0), "nop");
}

TEST(DisasmKnownWords, Sparc) {
  using namespace sparc;
  SparcTarget T;
  EXPECT_EQ(T.disassemble(encode<Opc::Add>(O0, O1, O2), 0),
            "add     %o1, %o2, %o0");
  EXPECT_EQ(T.disassemble(encode<Opc::Or>(G2, G0, Simm13{42}), 0),
            "or      %g0, 42, %g2");
  EXPECT_EQ(T.disassemble(encode<Opc::Sethi>(G1, 0x3ff), 0),
            "sethi   %hi(0xffc00), %g1");
  EXPECT_EQ(T.disassemble(Nop, 0), "nop");
  EXPECT_EQ(T.disassemble(encode<Opc::Bicc>(CondNE, 4), 0x2000),
            "bne   0x2010");
  EXPECT_EQ(T.disassemble(encode<Opc::Ld>(L0, SP, Simm13{64}), 0),
            "ld      [%sp + 64], %l0");
  // wr prints both operands: the interpreter writes rs1 ^ operand 2 to %y.
  EXPECT_EQ(T.disassemble(encode<Opc::WrY>(G1, G0), 0),
            "wr      %g1, %g0, %y");
  EXPECT_EQ(T.disassemble(encode<Opc::WrY>(G1, Simm13{-3}), 0),
            "wr      %g1, -3, %y");
  // The interpreter rejects annulled branches (bit 29), so they print as
  // data.
  EXPECT_EQ(T.disassemble(encode<Opc::Bicc>(CondNE, 4) | (1u << 29), 0x2000),
            ".word   0x32800004");
  EXPECT_EQ(T.disassemble(encode<Opc::FBfcc>(FCondE, 4) | (1u << 29), 0),
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

/// SPARC register number of \p Tok ("%o2", "%sp", "%f10"): N for an
/// integer register, -2 - N for an FPR, -1 else.
int sparcRegNum(const std::string &Tok) {
  if (Tok == "%sp")
    return 14;
  if (Tok == "%fp")
    return 30;
  if (Tok.size() < 3 || Tok[0] != '%' || !std::isdigit((unsigned char)Tok[2]))
    return -1;
  int N = std::atoi(Tok.c_str() + 2);
  switch (Tok[1]) {
  case 'g':
    return N;
  case 'o':
    return 8 + N;
  case 'l':
    return 16 + N;
  case 'i':
    return 24 + N;
  case 'f':
    return -2 - N;
  }
  return -1;
}

/// The SPARC decode table against llvm-mc's SPARC V8 decoder: the same
/// instruction with the same operands for the representative word of
/// every Opc, all in one llvm-mc process. Skips when llvm-mc is not
/// installed.
TEST(DisasmOracle, SparcMnemonicsMatchLlvmMc) {
  if (!haveLlvmMc())
    GTEST_SKIP() << "llvm-mc not installed";
  using namespace sparc;
  SparcTarget T;
  std::vector<uint32_t> Words;
  for (unsigned I = 1; I < NumOpcs; ++I)
    Words.push_back(sparcRepresentativeWord(Opc(I)));
  // Both decoders read every Bicc/FBfcc condition the same way.
  for (unsigned Cond = 0; Cond < 16; ++Cond)
    Words.insert(Words.end(), {encode<Opc::Bicc>(Cond, 2),
                               encode<Opc::FBfcc>(Cond, 2)});
  const uint32_t Annulled = encode<Opc::Bicc>(CondNE, 2) | (1u << 29);
  Words.push_back(Annulled);
  std::vector<std::string> Llvm = llvmMcBatch(Words, Nop, "-triple=sparc",
                                              /*BigEndian=*/true);
  for (size_t I = 0; I + 1 < Words.size(); ++I) {
    Opc Op = decode(Words[I]).Op;
    std::vector<std::string> Ours = normalize(T.disassemble(Words[I], 0),
                                              sparcRegNum);
    std::vector<std::string> Theirs = normalize(Llvm[I], sparcRegNum);
    // Documented spellings. llvm-mc names FP loads and stores by the
    // integer mnemonic and tells them apart by the register operand; it
    // prints sethi's raw imm22 where ours prints %hi(address), and a
    // Bicc/FBfcc target as its word displacement where ours prints the
    // address (both at pc 0).
    switch (Op) {
    case Opc::Ldf:
    case Opc::Lddf:
    case Opc::Stf:
    case Opc::Stdf:
      Ours[0] = Ours[0].substr(0, Ours[0].size() - 1);
      break;
    case Opc::Sethi:
      if (Ours.size() == 4 && Ours[1] == "%hi")
        Ours = {Ours[0], std::to_string(std::stoll(Ours[2]) >> 10), Ours[3]};
      break;
    case Opc::Bicc:
    case Opc::FBfcc:
      if (Theirs.size() == 2)
        Theirs[1] = std::to_string(std::stoll(Theirs[1]) * 4);
      break;
    default:
      break;
    }
    EXPECT_EQ(join(Ours), join(Theirs))
        << info(Op).Mnemonic << " 0x" << std::hex << Words[I];
  }
  // Aliases: nop is sethi 0, %g0 in both (and the batch separator), and
  // llvm-mc spells the annulled branch our table rejects "bne,a".
  EXPECT_EQ(T.disassemble(Nop, 0), "nop");
  EXPECT_EQ(T.disassemble(Annulled, 0), ".word   0x32800002");
  EXPECT_EQ(Llvm.back(), "bne,a\t2");
}

TEST(DisasmKnownWords, Alpha) {
  using namespace alpha;
  AlphaTarget T;
  EXPECT_EQ(T.disassemble(encode<Opc::Addq>(V0, A0, A1), 0),
            "addq    a0, a1, v0");
  EXPECT_EQ(T.disassemble(encode<Opc::Addl>(T0, T1, Lit{7}), 0),
            "addl    t1, #7, t0");
  EXPECT_EQ(T.disassemble(encode<Opc::Lda>(SP, SP, -64), 0),
            "lda     sp, -64(sp)");
  EXPECT_EQ(T.disassemble(encode<Opc::Ret>(ZERO, RA), 0),
            "ret     zero, (ra)");
  EXPECT_EQ(T.disassemble(Nop, 0), "nop");
  EXPECT_EQ(T.disassemble(encode<Opc::Beq>(T0, 2), 0x4000),
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
