//===- tests/ExtensionTest.cpp - Extension layer tests ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Tests for paper §5.4: the concise specification language, client-defined
// instructions (including the paper's exact sqrt example), extensions
// couched in terms of the VCODE core (present on every machine), the
// strength reducer, and the unlimited-virtual-register layer.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Extension.h"
#include "core/StrengthReduce.h"
#include "core/VRegLayer.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class ExtensionTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    B = makeSubstrate(GetParam());
    WB = B.Tgt->info().WordBytes;
  }
  CodeMem code(size_t Bytes = 8192) { return B.Mem->allocCode(Bytes); }
  Substrate B;
  unsigned WB = 4;
};

// --- Spec parser ------------------------------------------------------------

TEST(SpecParser, ParsesPaperExample) {
  std::string Err;
  auto Specs = parseSpecs("(sqrt (rd, rs) (f fsqrts) (d fsqrtd))", &Err);
  ASSERT_EQ(Specs.size(), 1u) << Err;
  EXPECT_EQ(Specs[0].Name, "sqrt");
  ASSERT_EQ(Specs[0].Params.size(), 2u);
  EXPECT_EQ(Specs[0].Params[0], "rd");
  EXPECT_EQ(Specs[0].Params[1], "rs");
  ASSERT_EQ(Specs[0].Mappings.size(), 2u);
  EXPECT_EQ(Specs[0].Mappings[0].Types, std::vector<std::string>{"f"});
  EXPECT_EQ(Specs[0].Mappings[0].MachInsn, "fsqrts");
  EXPECT_EQ(Specs[0].Mappings[1].MachInsn, "fsqrtd");
}

TEST(SpecParser, ParsesTypeListAndImmediateForm) {
  std::string Err;
  auto Specs =
      parseSpecs("(frob (rd, rs) (i u frobr frobi) (d dfrob))", &Err);
  ASSERT_EQ(Specs.size(), 1u) << Err;
  std::vector<std::string> Want = {"i", "u"};
  EXPECT_EQ(Specs[0].Mappings[0].Types, Want);
  EXPECT_EQ(Specs[0].Mappings[0].MachInsn, "frobr");
  EXPECT_EQ(Specs[0].Mappings[0].MachImmInsn, "frobi");
  EXPECT_EQ(Specs[0].Mappings[1].MachImmInsn, "");
}

TEST(SpecParser, ParsesMultipleSpecs) {
  std::string Err;
  auto Specs = parseSpecs("(a (rd) (i x)) (b (rd rs) (d y))", &Err);
  ASSERT_EQ(Specs.size(), 2u) << Err;
  EXPECT_EQ(Specs[0].Name, "a");
  EXPECT_EQ(Specs[1].Name, "b");
}

TEST(SpecParser, ReportsSyntaxErrors) {
  std::string Err;
  EXPECT_TRUE(parseSpecs("(sqrt", &Err).empty());
  EXPECT_FALSE(Err.empty());
  Err.clear();
  EXPECT_TRUE(parseSpecs("sqrt (rd)", &Err).empty());
  EXPECT_FALSE(Err.empty());
  Err.clear();
  EXPECT_TRUE(parseSpecs("(sqrt (rd rs) ())", &Err).empty());
  EXPECT_FALSE(Err.empty());
}

TEST(SpecParser, GeneratesCppWrappers) {
  std::string Err;
  auto Specs = parseSpecs(
      "(sqrt (rd, rs) (f fsqrts) (d fsqrtd)) (addk (rd, rs, imm) (i addki))",
      &Err);
  ASSERT_EQ(Specs.size(), 2u) << Err;
  std::string Hdr = generateCppExtensionHeader(Specs);
  EXPECT_NE(Hdr.find("inline void v_sqrtf(vcode::VCode &V, vcode::Reg rd, "
                     "vcode::Reg rs)"),
            std::string::npos);
  EXPECT_NE(Hdr.find("inline void v_sqrtd"), std::string::npos);
  EXPECT_NE(Hdr.find("\"fsqrtd\", Ops, 2"), std::string::npos);
  // The "imm" parameter becomes an integer operand.
  EXPECT_NE(Hdr.find("inline void v_addki(vcode::VCode &V, vcode::Reg rd, "
                     "vcode::Reg rs, int64_t imm)"),
            std::string::npos);
  EXPECT_NE(Hdr.find("vcode::opImm(imm)"), std::string::npos);
}

// --- The paper's sqrt example, end to end on every target -------------------

TEST_P(ExtensionTest, SqrtSpecWorks) {
  // "(sqrt (rd, rs) (f fsqrts) (d fsqrtd))" generates v_sqrtf/v_sqrtd.
  auto Defined =
      defineFromSpec(*B.Tgt, "(sqrt (rd, rs) (f fsqrts) (d fsqrtd))");
  ASSERT_EQ(Defined.size(), 2u);
  EXPECT_EQ(Defined[0], "sqrtf");
  EXPECT_EQ(Defined[1], "sqrtd");

  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%d", Arg, LeafHint, code());
  Reg Rd = V.getreg(Type::D);
  V.ext("sqrtd", {opReg(Rd), opReg(Arg[0])});
  V.retd(Rd);
  CodePtr Fn = V.end();

  EXPECT_DOUBLE_EQ(
      B.Cpu->call(Fn.Entry, {TypedValue::fromDouble(1764.0)}, Type::D)
          .asDouble(),
      42.0);
}

TEST_P(ExtensionTest, UnknownMachineInstructionIsFatal) {
  EXPECT_DEATH(defineFromSpec(*B.Tgt, "(zap (rd, rs) (i no.such.insn))"),
               "not provided");
}

TEST_P(ExtensionTest, PortableExtensionCouchedInCore) {
  // An extension written in terms of the VCODE core works on every machine
  // without per-target code: average of two integers.
  B.Tgt->defineInstruction(
      "avgi", [](VCode &VC, const Operand *Ops, unsigned N) {
        if (N != 3)
          fatal("avgi expects (rd, a, b)");
        VC.binop(BinOp::Add, Type::I, Ops[0].R, Ops[1].R, Ops[2].R);
        VC.binopImm(BinOp::Rsh, Type::I, Ops[0].R, Ops[0].R, 1);
      });

  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, code());
  Reg Rd = V.getreg(Type::I);
  V.ext("avgi", {opReg(Rd), opReg(Arg[0]), opReg(Arg[1])});
  V.reti(Rd);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry,
                        {TypedValue::fromInt(10), TypedValue::fromInt(74)})
                .asInt32(),
            42);
}

TEST_P(ExtensionTest, ExtensionOverride) {
  // Default definitions "can be overridden and implemented instead in
  // terms of the resources provided by the actual hardware" (paper §3.1).
  B.Tgt->defineInstruction("fortytwo",
                           [](VCode &VC, const Operand *Ops, unsigned N) {
                             if (N != 1)
                               fatal("fortytwo expects (rd)");
                             VC.setInt(Type::I, Ops[0].R, 41); // "default"
                           });
  B.Tgt->defineInstruction("fortytwo",
                           [](VCode &VC, const Operand *Ops, unsigned N) {
                             if (N != 1)
                               fatal("fortytwo expects (rd)");
                             VC.setInt(Type::I, Ops[0].R, 42); // "override"
                           });
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Reg Rd = V.getreg(Type::I);
  V.ext("fortytwo", {opReg(Rd)});
  V.reti(Rd);
  CodePtr Fn = V.end();
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {}).asInt32(), 42);
}

// --- Interned extension ids (the no-string-lookup hot path) -----------------

TEST_P(ExtensionTest, InternedIdEmission) {
  // defineInstruction returns the interned id; emission through it needs no
  // string lookup and computes the same thing as the string facade.
  ExtId Id = B.Tgt->defineInstruction(
      "triplei", [](VCode &VC, const Operand *Ops, unsigned N) {
        if (N != 2)
          fatal("triplei expects (rd, rs)");
        VC.binop(BinOp::Add, Type::I, Ops[0].R, Ops[1].R, Ops[1].R);
        VC.binop(BinOp::Add, Type::I, Ops[0].R, Ops[0].R, Ops[1].R);
      });
  ASSERT_TRUE(Id.isValid());
  EXPECT_EQ(B.Tgt->findInstruction("triplei").Idx, Id.Idx);
  EXPECT_STREQ(B.Tgt->instructionName(Id), "triplei");
  EXPECT_FALSE(B.Tgt->findInstruction("no.such.insn").isValid());

  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Reg Rd = V.getreg(Type::I);
  V.ext(Id, {opReg(Rd), opReg(Arg[0])});
  V.reti(Rd);
  CodePtr Fn = V.end();
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(14)}).asInt32(), 42);
}

TEST_P(ExtensionTest, InternedIdObservesOverride) {
  // Redefinition replaces the body in place and keeps the id, so ids
  // captured before an override emit the overridden instruction.
  ExtId Id = B.Tgt->defineInstruction(
      "answer", [](VCode &VC, const Operand *Ops, unsigned N) {
        if (N != 1)
          fatal("answer expects (rd)");
        VC.setInt(Type::I, Ops[0].R, 41); // "default"
      });
  ExtId Id2 = B.Tgt->defineInstruction(
      "answer", [](VCode &VC, const Operand *Ops, unsigned N) {
        if (N != 1)
          fatal("answer expects (rd)");
        VC.setInt(Type::I, Ops[0].R, 42); // "override"
      });
  EXPECT_EQ(Id2.Idx, Id.Idx);

  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Reg Rd = V.getreg(Type::I);
  V.ext(Id, {opReg(Rd)}); // id captured before the override
  V.reti(Rd);
  CodePtr Fn = V.end();
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {}).asInt32(), 42);
}

TEST_P(ExtensionTest, UnknownInternedIdIsFatal) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  EXPECT_DEATH(V.ext(ExtId(), {}), "unknown extension instruction id");
  EXPECT_DEATH(V.ext(ExtId{0x12345}, {}), "unknown extension instruction id");
}

// --- Strength reducer ----------------------------------------------------------

TEST_P(ExtensionTest, StrengthReducedMultiplyMatchesHardware) {
  registerStrengthReduce(*B.Tgt);
  const int64_t Ks[] = {0, 1,  2,  3,  4,  5,   7,   8,  10,
                        15, 16, 24, 100, 255, 256, -1, -6, -65535};
  for (int64_t K : Ks) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, code());
    Reg Rd = V.getreg(Type::I);
    V.ext("mulki", {opReg(Rd), opReg(Arg[0]), opImm(K)});
    V.reti(Rd);
    CodePtr Fn = V.end();

    for (int32_t X : {0, 1, -1, 7, -13, 100000, -99999}) {
      int32_t Want = int32_t(uint32_t(X) * uint32_t(K));
      EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(X)}).asInt32(),
                Want)
          << "K=" << K << " X=" << X;
    }
  }
}

TEST_P(ExtensionTest, StrengthReducedDivide) {
  registerStrengthReduce(*B.Tgt);
  for (int64_t K : {1, 2, 4, 8, 64, 1024}) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, code());
    Reg Rd = V.getreg(Type::I);
    V.ext("divki", {opReg(Rd), opReg(Arg[0]), opImm(K)});
    V.reti(Rd);
    CodePtr Fn = V.end();

    for (int32_t X : {0, 1, -1, 17, -17, 1000, -1000, 2147480000}) {
      int32_t Want = X / int32_t(K);
      EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(X)}).asInt32(),
                Want)
          << "K=" << K << " X=" << X;
    }
  }
}

// --- Unlimited virtual registers (paper §6.2) -----------------------------------

TEST_P(ExtensionTest, VRegLayerComputesWithManyVirtuals) {
  // Use far more virtual registers than the machine has physical ones.
  constexpr int NumV = 100;
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code(1 << 16));
  VRegLayer VL(V);
  std::vector<VReg> Vs;
  for (int I = 0; I < NumV; ++I)
    Vs.push_back(VL.alloc(Type::I));
  VL.fromPhys(Vs[0], Arg[0]);
  for (int I = 1; I < NumV; ++I)
    VL.binopImm(BinOp::Add, Type::I, Vs[I], Vs[I - 1], I);
  // Sum every vreg into vs[0].
  for (int I = 1; I < NumV; ++I)
    VL.binop(BinOp::Add, Type::I, Vs[0], Vs[0], Vs[I]);
  VL.ret(Type::I, Vs[0]);
  CodePtr Fn = V.end();

  // vs[i] = x + T(i) where T(i) = i(i+1)/2; total = sum_{i=0..99} vs[i].
  int64_t X = 5, Want = 0;
  for (int I = 0; I < NumV; ++I)
    Want += X + I * (I + 1) / 2;
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(int32_t(X))}).asInt32(),
            int32_t(Want));
}

TEST_P(ExtensionTest, VRegLayerBranches) {
  // max(a, b) through virtual registers.
  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, code());
  VRegLayer VL(V);
  VReg A = VL.alloc(Type::I), Bv = VL.alloc(Type::I);
  VL.fromPhys(A, Arg[0]);
  VL.fromPhys(Bv, Arg[1]);
  Label TakeA = V.genLabel();
  VL.branch(Cond::Ge, Type::I, A, Bv, TakeA);
  VL.ret(Type::I, Bv);
  V.label(TakeA);
  VL.ret(Type::I, A);
  CodePtr Fn = V.end();

  auto Max = [&](int32_t X, int32_t Y) {
    return B.Cpu
        ->call(Fn.Entry, {TypedValue::fromInt(X), TypedValue::fromInt(Y)})
        .asInt32();
  };
  EXPECT_EQ(Max(3, 9), 9);
  EXPECT_EQ(Max(9, 3), 9);
  EXPECT_EQ(Max(-5, -2), -2);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, ExtensionTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
