//===- tests/DcgTest.cpp - DCG baseline tests ---------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The DCG baseline must generate correct code (it shares the VCODE
// backends) and must be substantially slower to *generate* code than
// VCODE proper — the property the bench_dcg_compare harness measures; a
// coarse version is asserted here so regressions are caught by ctest.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dcg/Dcg.h"
#include <algorithm>
#include <chrono>
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class DcgTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

TEST_P(DcgTest, ExpressionTreeCompiles) {
  // f(a, b) = (a + b) * 3 - (a - 7)
  dcg::Dcg D(*B.Tgt);
  D.beginFunction("%i%i", /*IsLeaf=*/true, B.Mem->allocCode(8192));
  dcg::Node *T = D.binop(
      BinOp::Sub, Type::I,
      D.binop(BinOp::Mul, Type::I,
              D.binop(BinOp::Add, Type::I, D.arg(0), D.arg(1)),
              D.cnst(Type::I, 3)),
      D.binop(BinOp::Sub, Type::I, D.arg(0), D.cnst(Type::I, 7)));
  D.stmtRet(Type::I, T);
  CodePtr Fn = D.endFunction();

  auto Ref = [](int32_t A, int32_t Bv) { return (A + Bv) * 3 - (A - 7); };
  for (auto [A, Bv] : {std::pair{1, 2}, {0, 0}, {-5, 9}, {1000, -1}})
    EXPECT_EQ(B.Cpu->call(Fn.Entry,
                          {TypedValue::fromInt(A), TypedValue::fromInt(Bv)})
                  .asInt32(),
              Ref(A, Bv));
}

TEST_P(DcgTest, LoadsStoresAndBranches) {
  // f(p) = { if (p[0] > p[1]) p[2] = p[0]; else p[2] = p[1]; return p[2]; }
  dcg::Dcg D(*B.Tgt);
  D.beginFunction("%p", true, B.Mem->allocCode(8192));
  Label LElse = D.genLabel(), LEnd = D.genLabel();
  D.stmtBranch(Cond::Le, Type::I, D.load(Type::I, D.arg(0, Type::P)),
               D.load(Type::I,
                      D.binop(BinOp::Add, Type::P, D.arg(0, Type::P),
                              D.cnst(Type::I, 4))),
               LElse);
  D.stmtStore(Type::I,
              D.binop(BinOp::Add, Type::P, D.arg(0, Type::P),
                      D.cnst(Type::I, 8)),
              D.load(Type::I, D.arg(0, Type::P)));
  D.stmtJump(LEnd);
  D.bindLabel(LElse);
  D.stmtStore(Type::I,
              D.binop(BinOp::Add, Type::P, D.arg(0, Type::P),
                      D.cnst(Type::I, 8)),
              D.load(Type::I,
                     D.binop(BinOp::Add, Type::P, D.arg(0, Type::P),
                             D.cnst(Type::I, 4))));
  D.bindLabel(LEnd);
  D.stmtRet(Type::I,
            D.load(Type::I, D.binop(BinOp::Add, Type::P, D.arg(0, Type::P),
                                    D.cnst(Type::I, 8))));
  CodePtr Fn = D.endFunction();

  SimAddr Buf = B.Mem->alloc(16, 8);
  auto Run = [&](int32_t X, int32_t Y) {
    B.Mem->write<int32_t>(Buf, X);
    B.Mem->write<int32_t>(Buf + 4, Y);
    return B.Cpu->call(Fn.Entry, {TypedValue::fromPtr(Buf)}).asInt32();
  };
  EXPECT_EQ(Run(3, 9), 9);
  EXPECT_EQ(Run(9, 3), 9);
  EXPECT_EQ(Run(-1, -2), -1);
}

TEST_P(DcgTest, VcodeGeneratesFasterThanDcg) {
  // Generate the same 600-instruction function both ways, many times;
  // VCODE must win by a wide margin (paper: ~35x on the DEC hardware).
  // The function is sized so fixed per-function costs both paths share —
  // prologue/epilogue, arena bookkeeping, CodeMap publication in v_end —
  // amortize out and the ratio measures per-instruction generation.
  // The two sides alternate over several rounds and each keeps its
  // fastest round, so a preemption under a parallel test run inflates one
  // round rather than deciding the ratio.
  auto Mark = B.Mem->mark();
  const int Rounds = 5, Reps = 100, Ops = 600;

  using Clock = std::chrono::steady_clock;
  auto NsPerInsn = [&](Clock::time_point Start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - Start)
               .count() /
           (double(Reps) * Ops);
  };
  double VcodeNs = 1e300, DcgNs = 1e300;
  for (int Round = 0; Round < Rounds; ++Round) {
    auto Start = Clock::now();
    for (int R = 0; R < Reps; ++R) {
      B.Mem->release(Mark);
      VCode V(*B.Tgt);
      Reg Arg[1];
      V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(1 << 14));
      Reg T = V.getreg(Type::I);
      V.movi(T, Arg[0]);
      for (int I = 0; I < Ops; ++I)
        V.addii(T, T, 1);
      V.reti(T);
      (void)V.end();
    }
    VcodeNs = std::min(VcodeNs, NsPerInsn(Start));

    Start = Clock::now();
    for (int R = 0; R < Reps; ++R) {
      B.Mem->release(Mark);
      dcg::Dcg D(*B.Tgt);
      D.beginFunction("%i", true, B.Mem->allocCode(1 << 14));
      dcg::Node *T = D.arg(0);
      for (int I = 0; I < Ops; ++I)
        T = D.binop(BinOp::Add, Type::I, T, D.cnst(Type::I, 1));
      D.stmtRet(Type::I, T);
      (void)D.endFunction();
    }
    DcgNs = std::min(DcgNs, NsPerInsn(Start));
  }

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer instrumentation distorts the relative costs; only require
  // the direction to hold.
  EXPECT_GT(DcgNs / VcodeNs, 1.0)
      << "vcode " << VcodeNs << " ns/insn vs dcg " << DcgNs << " ns/insn";
#else
  EXPECT_GT(DcgNs / VcodeNs, 3.0)
      << "vcode " << VcodeNs << " ns/insn vs dcg " << DcgNs << " ns/insn";
#endif
}

TEST_P(DcgTest, MemoryFootprintContrast) {
  // Paper §3: VCODE's state is O(labels + unresolved jumps); an IR system
  // is O(instructions). Generate 3000 straight-line instructions each way
  // and compare the book-keeping.
  const int Ops = 3000;
  {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(1 << 16));
    Reg R = V.getreg(Type::I);
    V.movi(R, Arg[0]);
    for (int I = 0; I < Ops; ++I)
      V.addii(R, R, 1);
    EXPECT_LE(V.pendingFixups(), 4u)
        << "vcode book-keeping must not grow with instruction count";
    EXPECT_LE(V.labelCount(), 4u);
    V.reti(R);
    (void)V.end();
  }
  {
    dcg::Dcg D(*B.Tgt);
    D.beginFunction("%i", true, B.Mem->allocCode(1 << 16));
    dcg::Node *T = D.arg(0);
    for (int I = 0; I < Ops; ++I)
      T = D.binop(BinOp::Add, Type::I, T, D.cnst(Type::I, 1));
    D.stmtRet(Type::I, T);
    EXPECT_GE(D.irNodes(), size_t(2 * Ops))
        << "the IR baseline allocates per-instruction state";
    (void)D.endFunction();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DcgTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
