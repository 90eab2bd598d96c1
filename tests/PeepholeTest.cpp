//===- tests/PeepholeTest.cpp - Peephole optimizer tests ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §6.2 future-work peephole layer: every rewrite must preserve
// semantics (checked by executing optimized vs unoptimized code on the
// simulator) and must actually shrink the recognized patterns.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Peephole.h"
#include "support/Rng.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class PeepholeTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

TEST_P(PeepholeTest, SetBinopFoldsToImmediate) {
  // t = 5; d = s + t (t == d): one immediate add.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(8192));
  Peephole P(V);
  Reg T = V.getreg(Type::I);
  P.setInt(Type::I, T, 5);
  P.binop(BinOp::Add, Type::I, T, Arg[0], T);
  P.ret(Type::I, T);
  CodePtr Fn = V.end();
  EXPECT_GE(P.saved(), 1u);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(37)}).asInt32(), 42);
}

TEST_P(PeepholeTest, AlgebraicSimplifications) {
  struct Case {
    BinOp Op;
    int64_t Imm;
    int32_t In, Want;
  } Cases[] = {
      {BinOp::Add, 0, 7, 7},     {BinOp::Sub, 0, -3, -3},
      {BinOp::Mul, 0, 99, 0},    {BinOp::Mul, 1, 41, 41},
      {BinOp::Mul, 8, 5, 40},    {BinOp::Mul, -4, 6, -24},
      {BinOp::Or, 0, 12, 12},    {BinOp::Xor, 0, 9, 9},
      {BinOp::Lsh, 0, 3, 3},
  };
  for (const Case &C : Cases) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(8192));
    Peephole P(V);
    Reg T = V.getreg(Type::I);
    P.binopImm(C.Op, Type::I, T, Arg[0], C.Imm);
    P.ret(Type::I, T);
    CodePtr Fn = V.end();
    EXPECT_GE(P.saved(), 1u) << binOpName(C.Op) << " " << C.Imm;
    EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(C.In)}).asInt32(),
              C.Want)
        << binOpName(C.Op) << " " << C.Imm;
  }
}

TEST_P(PeepholeTest, DeadSetAndSelfMoveDropped) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(8192));
  Peephole P(V);
  Reg T = V.getreg(Type::I);
  P.setInt(Type::I, T, 111); // dead: overwritten by the next set
  P.setInt(Type::I, T, 42);
  P.unop(UnOp::Mov, Type::I, T, T); // self move
  P.ret(Type::I, T);
  CodePtr Fn = V.end();
  EXPECT_GE(P.saved(), 2u);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(0)}).asInt32(), 42);
}

TEST_P(PeepholeTest, StoreToLoadForwarding) {
  // p[0] = x; y = p[0]  ->  the load disappears, the store stays.
  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%p%i", Arg, LeafHint, B.Mem->allocCode(8192));
  Peephole P(V);
  Reg T = V.getreg(Type::I);
  P.storeImm(Type::I, Arg[1], Arg[0], 0);
  P.loadImm(Type::I, T, Arg[0], 0);
  P.binopImm(BinOp::Add, Type::I, T, T, 1);
  P.ret(Type::I, T);
  CodePtr Fn = V.end();
  EXPECT_GE(P.saved(), 1u);

  SimAddr Buf = B.Mem->alloc(16, 8);
  EXPECT_EQ(B.Cpu
                ->call(Fn.Entry,
                       {TypedValue::fromPtr(Buf), TypedValue::fromInt(41)})
                .asInt32(),
            42);
  EXPECT_EQ(B.Mem->read<int32_t>(Buf), 41) << "store must still happen";
}

TEST_P(PeepholeTest, WindowFlushesAtBarriers) {
  // A branch between the store and load kills the forwarding window.
  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%p%i", Arg, LeafHint, B.Mem->allocCode(8192));
  Peephole P(V);
  Reg T = V.getreg(Type::I);
  Label L = V.genLabel();
  P.storeImm(Type::I, Arg[1], Arg[0], 0);
  P.branchImm(Cond::Ge, Type::I, Arg[1], 0, L);
  P.label(L);
  P.loadImm(Type::I, T, Arg[0], 0);
  P.ret(Type::I, T);
  CodePtr Fn = V.end();
  EXPECT_EQ(P.saved(), 0u);

  SimAddr Buf = B.Mem->alloc(16, 8);
  EXPECT_EQ(B.Cpu
                ->call(Fn.Entry,
                       {TypedValue::fromPtr(Buf), TypedValue::fromInt(7)})
                .asInt32(),
            7);
}

TEST_P(PeepholeTest, RandomizedEquivalence) {
  // Random sequences through the peephole layer and directly must agree.
  Rng R(1234);
  for (int Trial = 0; Trial < 30; ++Trial) {
    struct Step {
      int Kind;
      BinOp Op;
      int64_t Imm;
    };
    std::vector<Step> Prog;
    for (int I = 0; I < 20; ++I) {
      Step S;
      S.Kind = int(R.below(3));
      const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Or,
                           BinOp::Xor};
      S.Op = Ops[R.below(5)];
      S.Imm = int64_t(R.range(-4, 8));
      Prog.push_back(S);
    }

    auto Build = [&](bool Optimized) {
      VCode V(*B.Tgt);
      Reg Arg[1];
      V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(1 << 14));
      Peephole P(V);
      Reg T = V.getreg(Type::I);
      Reg U = V.getreg(Type::I);
      if (Optimized) {
        P.setInt(Type::I, U, 1);
        P.binop(BinOp::Add, Type::I, U, Arg[0], U);
        for (const Step &S : Prog) {
          if (S.Kind == 0)
            P.binopImm(S.Op, Type::I, U, U, S.Imm);
          else if (S.Kind == 1) {
            P.setInt(Type::I, T, uint64_t(S.Imm));
            P.binop(S.Op, Type::I, T, U, T);
            P.unop(UnOp::Mov, Type::I, U, T);
          } else {
            P.unop(UnOp::Mov, Type::I, U, U);
          }
        }
        P.ret(Type::I, U);
      } else {
        V.seti(U, 1);
        V.addi(U, Arg[0], U);
        for (const Step &S : Prog) {
          if (S.Kind == 0)
            V.binopImm(S.Op, Type::I, U, U, S.Imm);
          else if (S.Kind == 1) {
            V.setInt(Type::I, T, uint64_t(S.Imm));
            V.binop(S.Op, Type::I, T, U, T);
            V.movi(U, T);
          } else {
            V.movi(U, U);
          }
        }
        V.reti(U);
      }
      return V.end();
    };

    CodePtr Opt = Build(true);
    CodePtr Plain = Build(false);
    for (int32_t X : {0, 1, -7, 1000}) {
      int32_t A = B.Cpu->call(Opt.Entry, {TypedValue::fromInt(X)}).asInt32();
      int32_t Bv =
          B.Cpu->call(Plain.Entry, {TypedValue::fromInt(X)}).asInt32();
      ASSERT_EQ(A, Bv) << GetParam() << " trial " << Trial << " x=" << X;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, PeepholeTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
