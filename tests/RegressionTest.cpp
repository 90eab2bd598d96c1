//===- tests/RegressionTest.cpp - Auto-generated instruction tests --------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper (§3.3): "VCODE includes a script to automatically generate
// regression tests for errors in instruction mappings and calling
// conventions." This file is that generator: for every (operation, type)
// composition of the core instruction set it dynamically generates a
// function, executes it on the ISA simulator, and compares the result
// against host-side reference semantics. The suite is parameterized over
// every ported target.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class RegressionTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    B = makeSubstrate(GetParam());
    WB = B.Tgt->info().WordBytes;
  }

  /// Reclaims code memory between generated functions.
  CodeMem code() { return B.Mem->allocCode(8192); }

  Substrate B;
  unsigned WB = 4;
};

const Type IntRegTypes[] = {Type::I, Type::U, Type::L, Type::UL};
const Type AllRegTypes[] = {Type::I, Type::U, Type::L,
                            Type::UL, Type::F, Type::D};
const BinOp AllBinOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                           BinOp::Mod, BinOp::And, BinOp::Or,  BinOp::Xor,
                           BinOp::Lsh, BinOp::Rsh};
const Cond AllConds[] = {Cond::Lt, Cond::Le, Cond::Gt,
                         Cond::Ge, Cond::Eq, Cond::Ne};

bool binOpValidFor(BinOp Op, Type Ty) {
  if (isFpType(Ty))
    return Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::Mul ||
           Op == BinOp::Div;
  return true;
}

bool unOpValidFor(UnOp Op, Type Ty) {
  if (isFpType(Ty))
    return Op == UnOp::Mov || Op == UnOp::Neg;
  if (Op == UnOp::Neg)
    return isSignedType(Ty);
  return true;
}

/// Skips operand pairs whose reference behaviour is undefined or
/// implementation-defined (divide by zero; INT_MIN / -1; out-of-range
/// shifts are pre-masked by the value generator).
bool operandsDefined(BinOp Op, Type Ty, uint64_t A, uint64_t B, unsigned WB) {
  if (Op != BinOp::Div && Op != BinOp::Mod)
    return true;
  if (isFpType(Ty))
    return true; // IEEE division is fully defined (inf/nan compare bitwise)
  unsigned Bits = typeBits(Ty, WB);
  uint64_t Mask = Bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
  if ((B & Mask) == 0)
    return false;
  if (isSignedType(Ty)) {
    uint64_t Min = uint64_t(1) << (Bits - 1);
    if ((A & Mask) == Min && (B & Mask) == Mask)
      return false;
  }
  return true;
}

std::string typeStr(Type Ty) { return std::string("%") + typeName(Ty); }

} // namespace

// --- Binary operations -------------------------------------------------------

TEST_P(RegressionTest, BinopRegisterForms) {
  VCODE_SEED_TRACE();
  for (Type Ty : AllRegTypes) {
    for (BinOp Op : AllBinOps) {
      if (!binOpValidFor(Op, Ty))
        continue;
      VCode V(*B.Tgt);
      Reg Arg[2];
      std::string Sig = typeStr(Ty) + typeStr(Ty);
      V.lambda(Sig.c_str(), Arg, LeafHint, code());
      Reg Rd = V.getreg(Ty);
      ASSERT_TRUE(Rd.isValid());
      V.binop(Op, Ty, Rd, Arg[0], Arg[1]);
      V.ret(Ty, Rd);
      CodePtr Fn = V.end();

      std::vector<uint64_t> As = operandValues(Ty, WB, 10, testSeed(1));
      std::vector<uint64_t> Bs = operandValues(Ty, WB, 10, testSeed(2));
      // Keep shift amounts in range.
      if (Op == BinOp::Lsh || Op == BinOp::Rsh)
        for (uint64_t &X : Bs)
          X &= typeBits(Ty, WB) - 1;
      for (uint64_t A : As)
        for (uint64_t Bv : Bs) {
          if (!operandsDefined(Op, Ty, A, Bv, WB))
            continue;
          uint64_t Want = refBinop(Op, Ty, A, Bv, WB);
          TypedValue Got = B.Cpu->call(
              Fn.Entry, {TypedValue{Ty, A}, TypedValue{Ty, Bv}}, Ty);
          ASSERT_EQ(canonicalize(Ty, Got.Bits, WB), Want)
              << GetParam() << ": " << binOpName(Op) << typeName(Ty) << "("
              << std::hex << A << ", " << Bv << ")";
        }
    }
  }
}

TEST_P(RegressionTest, BinopImmediateForms) {
  VCODE_SEED_TRACE();
  for (Type Ty : IntRegTypes) {
    for (BinOp Op : AllBinOps) {
      std::vector<uint64_t> Imms = operandValues(Ty, WB, 8, testSeed(3));
      if (Op == BinOp::Lsh || Op == BinOp::Rsh)
        for (uint64_t &X : Imms)
          X &= typeBits(Ty, WB) - 1;
      for (uint64_t Imm : Imms) {
        if (!operandsDefined(Op, Ty, 1, Imm, WB))
          continue;
        VCode V(*B.Tgt);
        Reg Arg[1];
        V.lambda(typeStr(Ty).c_str(), Arg, LeafHint, code());
        Reg Rd = V.getreg(Ty);
        V.binopImm(Op, Ty, Rd, Arg[0], int64_t(Imm));
        V.ret(Ty, Rd);
        CodePtr Fn = V.end();

        for (uint64_t A : operandValues(Ty, WB, 6, testSeed(4))) {
          if (!operandsDefined(Op, Ty, A, Imm, WB))
            continue;
          uint64_t Want = refBinop(Op, Ty, A, Imm, WB);
          TypedValue Got = B.Cpu->call(Fn.Entry, {TypedValue{Ty, A}}, Ty);
          ASSERT_EQ(canonicalize(Ty, Got.Bits, WB), Want)
              << GetParam() << ": " << binOpName(Op) << typeName(Ty)
              << "i(a, " << std::hex << Imm << ") a=" << A;
        }
      }
    }
  }
}

// --- Unary operations --------------------------------------------------------

TEST_P(RegressionTest, UnaryOps) {
  VCODE_SEED_TRACE();
  const UnOp Ops[] = {UnOp::Com, UnOp::Not, UnOp::Mov, UnOp::Neg};
  for (Type Ty : AllRegTypes) {
    for (UnOp Op : Ops) {
      if (!unOpValidFor(Op, Ty))
        continue;
      VCode V(*B.Tgt);
      Reg Arg[1];
      V.lambda(typeStr(Ty).c_str(), Arg, LeafHint, code());
      Reg Rd = V.getreg(Ty);
      V.unop(Op, Ty, Rd, Arg[0]);
      V.ret(Ty, Rd);
      CodePtr Fn = V.end();

      for (uint64_t A : operandValues(Ty, WB, 12, testSeed(5))) {
        uint64_t Want = refUnop(Op, Ty, A, WB);
        TypedValue Got = B.Cpu->call(Fn.Entry, {TypedValue{Ty, A}}, Ty);
        ASSERT_EQ(canonicalize(Ty, Got.Bits, WB), Want)
            << GetParam() << ": unop " << int(Op) << " " << typeName(Ty)
            << "(" << std::hex << A << ")";
      }
    }
  }
}

// --- set (load constant) -----------------------------------------------------

TEST_P(RegressionTest, SetConstants) {
  VCODE_SEED_TRACE();
  for (Type Ty : IntRegTypes) {
    for (uint64_t C : operandValues(Ty, WB, 12, testSeed(6))) {
      VCode V(*B.Tgt);
      V.lambda("%v", nullptr, LeafHint, code());
      Reg Rd = V.getreg(Ty);
      V.setInt(Ty, Rd, C);
      V.ret(Ty, Rd);
      CodePtr Fn = V.end();
      TypedValue Got = B.Cpu->call(Fn.Entry, {}, Ty);
      EXPECT_EQ(canonicalize(Ty, Got.Bits, WB), canonicalize(Ty, C, WB))
          << GetParam() << ": set" << typeName(Ty) << " " << std::hex << C;
    }
  }
  // FP constants (paper §5.2: pool at the end of the instruction stream).
  for (double C : {0.0, 1.0, -1.5, 3.14159265358979, 1e30, -2.5e-9}) {
    VCode V(*B.Tgt);
    V.lambda("%v", nullptr, LeafHint, code());
    Reg Rd = V.getreg(Type::D);
    V.setd(Rd, C);
    V.retd(Rd);
    CodePtr Fn = V.end();
    EXPECT_EQ(B.Cpu->call(Fn.Entry, {}, Type::D).asDouble(), C);
  }
  for (float C : {0.0f, 1.0f, -1.5f, 2.71828f}) {
    VCode V(*B.Tgt);
    V.lambda("%v", nullptr, LeafHint, code());
    Reg Rd = V.getreg(Type::F);
    V.setf(Rd, C);
    V.retf(Rd);
    CodePtr Fn = V.end();
    EXPECT_EQ(B.Cpu->call(Fn.Entry, {}, Type::F).asFloat(), C);
  }
}

// --- Conversions -------------------------------------------------------------

TEST_P(RegressionTest, Conversions) {
  VCODE_SEED_TRACE();
  struct Pair {
    Type From, To;
  };
  const Pair Pairs[] = {
      {Type::I, Type::U},  {Type::I, Type::L},  {Type::I, Type::UL},
      {Type::U, Type::I},  {Type::U, Type::L},  {Type::U, Type::UL},
      {Type::L, Type::I},  {Type::UL, Type::I}, {Type::I, Type::F},
      {Type::I, Type::D},  {Type::U, Type::D},  {Type::F, Type::I},
      {Type::D, Type::I},  {Type::F, Type::D},  {Type::D, Type::F},
      {Type::L, Type::D},
  };
  for (const Pair &P : Pairs) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda(typeStr(P.From).c_str(), Arg, LeafHint, code());
    Reg Rd = V.getreg(P.To);
    V.cvt(P.From, P.To, Rd, Arg[0]);
    V.ret(P.To, Rd);
    CodePtr Fn = V.end();

    for (uint64_t A : operandValues(P.From, WB, 12, testSeed(7))) {
      if (isFpType(P.From) && !isFpType(P.To)) {
        // FP -> int is defined only when the truncated value fits.
        double D = P.From == Type::F
                       ? double(TypedValue{Type::F, A}.asFloat())
                       : TypedValue{Type::D, A}.asDouble();
        if (!(D > -2147483000.0 && D < 2147483000.0))
          continue;
      }
      uint64_t Want = refCvt(P.From, P.To, A, WB);
      TypedValue Got = B.Cpu->call(Fn.Entry, {TypedValue{P.From, A}}, P.To);
      ASSERT_EQ(canonicalize(P.To, Got.Bits, WB), Want)
          << GetParam() << ": cv" << typeName(P.From) << "2"
          << typeName(P.To) << "(" << std::hex << A << ")";
    }
  }
}

// --- Branches ----------------------------------------------------------------

TEST_P(RegressionTest, BranchRegisterForms) {
  VCODE_SEED_TRACE();
  for (Type Ty : AllRegTypes) {
    for (Cond C : AllConds) {
      VCode V(*B.Tgt);
      Reg Arg[2];
      std::string Sig = typeStr(Ty) + typeStr(Ty);
      V.lambda(Sig.c_str(), Arg, LeafHint, code());
      Reg Rd = V.getreg(Type::I);
      Label Taken = V.genLabel();
      V.branch(C, Ty, Arg[0], Arg[1], Taken);
      V.seti(Rd, 0);
      V.reti(Rd);
      V.label(Taken);
      V.seti(Rd, 1);
      V.reti(Rd);
      CodePtr Fn = V.end();

      for (uint64_t A : operandValues(Ty, WB, 8, testSeed(8)))
        for (uint64_t Bv : operandValues(Ty, WB, 8, testSeed(9))) {
          bool Want = refCond(C, Ty, A, Bv, WB);
          int32_t Got =
              B.Cpu->call(Fn.Entry, {TypedValue{Ty, A}, TypedValue{Ty, Bv}},
                          Type::I)
                  .asInt32();
          ASSERT_EQ(Got, Want ? 1 : 0)
              << GetParam() << ": b?" << int(C) << typeName(Ty) << "("
              << std::hex << A << ", " << Bv << ")";
        }
    }
  }
}

TEST_P(RegressionTest, BranchImmediateForms) {
  VCODE_SEED_TRACE();
  for (Type Ty : IntRegTypes) {
    for (Cond C : AllConds) {
      for (uint64_t Imm : operandValues(Ty, WB, 6, testSeed(10))) {
        VCode V(*B.Tgt);
        Reg Arg[1];
        V.lambda(typeStr(Ty).c_str(), Arg, LeafHint, code());
        Reg Rd = V.getreg(Type::I);
        Label Taken = V.genLabel();
        V.branchImm(C, Ty, Arg[0], int64_t(Imm), Taken);
        V.seti(Rd, 0);
        V.reti(Rd);
        V.label(Taken);
        V.seti(Rd, 1);
        V.reti(Rd);
        CodePtr Fn = V.end();

        for (uint64_t A : operandValues(Ty, WB, 6, testSeed(11))) {
          bool Want = refCond(C, Ty, A, Imm, WB);
          int32_t Got =
              B.Cpu->call(Fn.Entry, {TypedValue{Ty, A}}, Type::I).asInt32();
          ASSERT_EQ(Got, Want ? 1 : 0)
              << GetParam() << ": b?" << int(C) << typeName(Ty) << "i("
              << std::hex << A << ", " << Imm << ")";
        }
      }
    }
  }
}

// --- Memory operations ---------------------------------------------------------

TEST_P(RegressionTest, LoadsAllTypes) {
  VCODE_SEED_TRACE();
  const Type MemTypes[] = {Type::C, Type::UC, Type::S, Type::US, Type::I,
                           Type::U, Type::L,  Type::UL, Type::P, Type::F,
                           Type::D};
  for (Type Ty : MemTypes) {
    Type RegTy = isSmallIntType(Ty)
                     ? (isSignedType(Ty) ? Type::I : Type::U)
                     : Ty;
    for (bool ImmForm : {true, false}) {
      VCode V(*B.Tgt);
      Reg Arg[1];
      V.lambda("%p", Arg, LeafHint, code());
      Reg Rd = V.getreg(RegTy);
      if (ImmForm) {
        V.loadImm(Ty, Rd, Arg[0], 8);
      } else {
        Reg Off = V.getreg(Type::I);
        V.seti(Off, 8);
        V.load(Ty, Rd, Arg[0], Off);
      }
      V.ret(RegTy, Rd);
      CodePtr Fn = V.end();

      SimAddr Buf = B.Mem->alloc(64);
      for (uint64_t Raw : operandValues(RegTy, WB, 8, testSeed(12))) {
        unsigned Size = typeSize(Ty, WB);
        for (unsigned I = 0; I < Size; ++I)
          B.Mem->write<uint8_t>(Buf + 8 + I, uint8_t(Raw >> (8 * I)));
        uint64_t Want;
        if (Ty == Type::F)
          Want = Raw & 0xffffffffu;
        else if (Ty == Type::D)
          Want = Raw;
        else
          Want = canonicalize(Ty, Raw, WB);
        TypedValue Got =
            B.Cpu->call(Fn.Entry, {TypedValue::fromPtr(Buf)}, RegTy);
        ASSERT_EQ(canonicalize(RegTy, Got.Bits, WB),
                  canonicalize(RegTy, Want, WB))
            << GetParam() << ": ld" << typeName(Ty)
            << (ImmForm ? "i" : "") << " raw=" << std::hex << Raw;
      }
    }
  }
}

TEST_P(RegressionTest, StoresAllTypes) {
  VCODE_SEED_TRACE();
  const Type MemTypes[] = {Type::C, Type::UC, Type::S, Type::US, Type::I,
                           Type::U, Type::L,  Type::UL, Type::P, Type::F,
                           Type::D};
  for (Type Ty : MemTypes) {
    Type RegTy = isSmallIntType(Ty)
                     ? (isSignedType(Ty) ? Type::I : Type::U)
                     : Ty;
    for (bool ImmForm : {true, false}) {
      VCode V(*B.Tgt);
      Reg Arg[2];
      std::string Sig = std::string("%p") + typeStr(RegTy);
      V.lambda(Sig.c_str(), Arg, LeafHint, code());
      if (ImmForm) {
        V.storeImm(Ty, Arg[1], Arg[0], 16);
      } else {
        Reg Off = V.getreg(Type::I);
        V.seti(Off, 16);
        V.store(Ty, Arg[1], Arg[0], Off);
      }
      V.retv();
      CodePtr Fn = V.end();

      SimAddr Buf = B.Mem->alloc(64);
      for (uint64_t Raw : operandValues(RegTy, WB, 6, testSeed(13))) {
        unsigned Size = typeSize(Ty, WB);
        for (unsigned I = 0; I < 32; ++I)
          B.Mem->write<uint8_t>(Buf + I, 0xcc);
        B.Cpu->call(Fn.Entry,
                    {TypedValue::fromPtr(Buf), TypedValue{RegTy, Raw}},
                    Type::V);
        uint64_t Stored = 0;
        for (unsigned I = 0; I < Size; ++I)
          Stored |= uint64_t(B.Mem->read<uint8_t>(Buf + 16 + I)) << (8 * I);
        uint64_t Want = Raw & (Size >= 8 ? ~uint64_t(0)
                                         : ((uint64_t(1) << (8 * Size)) - 1));
        ASSERT_EQ(Stored, Want) << GetParam() << ": st" << typeName(Ty)
                                << (ImmForm ? "i" : "");
        // Neighbours untouched.
        EXPECT_EQ(B.Mem->read<uint8_t>(Buf + 15), 0xcc);
        EXPECT_EQ(B.Mem->read<uint8_t>(Buf + 16 + Size), 0xcc);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, RegressionTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });
