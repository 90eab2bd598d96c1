//===- tests/TccTest.cpp - tcc-lite compiler tests ----------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §4.1 claim under test: a compiler front-end targeting VCODE runs
// unchanged on every ported machine ("tcc uses the same VCODE generation
// backend on the two architectures it supports").
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "tcc/Tcc.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;

namespace {

class TccTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    B = makeSubstrate(GetParam());
    T = std::make_unique<tcc::Tcc>(*B.Tgt, *B.Mem);
  }
  int32_t run(const std::string &Name, std::vector<int32_t> Args) {
    return T->run(*B.Cpu, Name, Args);
  }
  Substrate B;
  std::unique_ptr<tcc::Tcc> T;
};

TEST_P(TccTest, SimpleExpression) {
  T->compile("f(x) { return 2 * x + 1; }");
  EXPECT_EQ(run("f", {20}), 41);
  EXPECT_EQ(run("f", {-3}), -5);
}

TEST_P(TccTest, VariablesAndAssignment) {
  T->compile(R"(
    poly(x) {
      var a = x * x;
      var b = a * x;
      a = a * 3;
      return b - a + 2 * x - 7;
    })");
  auto Ref = [](int32_t X) { return X * X * X - 3 * X * X + 2 * X - 7; };
  for (int32_t X : {0, 1, -1, 5, -9, 100})
    EXPECT_EQ(run("poly", {X}), Ref(X)) << "x=" << X;
}

TEST_P(TccTest, IfElseChains) {
  T->compile(R"(
    sign(x) {
      if (x > 0) { return 1; }
      else if (x < 0) { return 0 - 1; }
      return 0;
    })");
  EXPECT_EQ(run("sign", {42}), 1);
  EXPECT_EQ(run("sign", {-42}), -1);
  EXPECT_EQ(run("sign", {0}), 0);
}

TEST_P(TccTest, WhileLoopGcd) {
  T->compile(R"(
    gcd(a, b) {
      while (b != 0) {
        var t = b;
        b = a % b;
        a = t;
      }
      return a;
    })");
  EXPECT_EQ(run("gcd", {48, 36}), 12);
  EXPECT_EQ(run("gcd", {17, 5}), 1);
  EXPECT_EQ(run("gcd", {0, 9}), 9);
}

TEST_P(TccTest, RecursionFactorial) {
  T->compile("fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }");
  EXPECT_EQ(run("fact", {0}), 1);
  EXPECT_EQ(run("fact", {5}), 120);
  EXPECT_EQ(run("fact", {10}), 3628800);
}

TEST_P(TccTest, MutualRecursionAndForwardReference) {
  // is_even references is_odd before it exists.
  T->compile("is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }");
  T->compile("is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }");
  EXPECT_EQ(run("is_even", {10}), 1);
  EXPECT_EQ(run("is_even", {7}), 0);
  EXPECT_EQ(run("is_odd", {7}), 1);
}

TEST_P(TccTest, CallsBetweenCompiledFunctions) {
  T->compile("sq(x) { return x * x; }");
  T->compile("sumsq(a, b) { return sq(a) + sq(b); }");
  EXPECT_EQ(run("sumsq", {3, 4}), 25);
}

TEST_P(TccTest, LogicalOperatorsShortCircuit) {
  // Division by zero on the right of && must not execute when the left is
  // false (short circuit); our sim defines x/0 == 0, so instead probe with
  // a side effect through recursion depth: use a plain truth table.
  T->compile("land(a, b) { return a && b; }");
  T->compile("lor(a, b) { return a || b; }");
  T->compile("lnot(a) { return !a; }");
  EXPECT_EQ(run("land", {2, 3}), 1);
  EXPECT_EQ(run("land", {0, 3}), 0);
  EXPECT_EQ(run("land", {2, 0}), 0);
  EXPECT_EQ(run("lor", {0, 0}), 0);
  EXPECT_EQ(run("lor", {0, 9}), 1);
  EXPECT_EQ(run("lor", {9, 0}), 1);
  EXPECT_EQ(run("lnot", {0}), 1);
  EXPECT_EQ(run("lnot", {5}), 0);
}

TEST_P(TccTest, FibonacciIterative) {
  T->compile(R"(
    fib(n) {
      var a = 0;
      var b = 1;
      while (n > 0) {
        var t = a + b;
        a = b;
        b = t;
        n = n - 1;
      }
      return a;
    })");
  EXPECT_EQ(run("fib", {0}), 0);
  EXPECT_EQ(run("fib", {1}), 1);
  EXPECT_EQ(run("fib", {10}), 55);
  EXPECT_EQ(run("fib", {30}), 832040);
}

TEST_P(TccTest, CollatzStepCount) {
  T->compile(R"(
    collatz(n) {
      var steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; }
        else { n = 3 * n + 1; }
        steps = steps + 1;
      }
      return steps;
    })");
  EXPECT_EQ(run("collatz", {1}), 0);
  EXPECT_EQ(run("collatz", {6}), 8);
  EXPECT_EQ(run("collatz", {27}), 111);
}

TEST_P(TccTest, OptimizedCodeAgreesAndIsFaster) {
  // The peephole layer (paper §6.2) must preserve results and reduce
  // simulated cycles on tcc's naive constant-heavy output.
  const char *Src = R"(
    poly(x) {
      var a = x * 2 + 3;
      var b = a * 4 - x;
      var c = b + 0;
      return c * 1 + a;
    })";
  tcc::Tcc Plain(*B.Tgt, *B.Mem);
  Plain.setTier(Tier::Tier0); // keep the baseline naive under VCODE_TIER=1
  Plain.compile(Src);
  tcc::Tcc Opt(*B.Tgt, *B.Mem);
  Opt.setTier(Tier::Tier1);
  Opt.compile(Src);

  uint64_t PlainCycles = 0, OptCycles = 0;
  for (int32_t X : {0, 1, -5, 1000}) {
    int32_t A = Plain.run(*B.Cpu, "poly", {X});
    PlainCycles = B.Cpu->lastStats().Cycles;
    int32_t Bv = Opt.run(*B.Cpu, "poly", {X});
    OptCycles = B.Cpu->lastStats().Cycles;
    ASSERT_EQ(A, Bv) << "x=" << X;
  }
  EXPECT_LT(OptCycles, PlainCycles);
}

TEST_P(TccTest, OptimizedRecursionStillWorks) {
  T->setTier(Tier::Tier1);
  T->compile(
      "fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }");
  EXPECT_EQ(run("fact", {10}), 3628800);
}

TEST_P(TccTest, SyntaxErrorsAreReportedWithLine) {
  EXPECT_DEATH(T->compile("f(x) { return x + ; }"), "line 1");
  EXPECT_DEATH(T->compile("f(x) { return x }"), "line");
  EXPECT_DEATH(T->compile("f(x) { y = 1; }"), "undefined variable");
}

TEST_P(TccTest, ArityMismatchIsFatal) {
  T->compile("f(x, y) { return x + y; }");
  EXPECT_DEATH(run("f", {1}), "takes 2 arguments");
}

INSTANTIATE_TEST_SUITE_P(AllTargets, TccTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
