//===- tests/FeatureTest.cpp - VCODE mechanism tests -----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Target-parameterized tests for the mechanisms that distinguish VCODE from
// a plain assembler: dynamically constructed calls with runtime signatures
// (§2), calling conventions and stack arguments (§3.2), leaf/non-leaf
// framing and callee-save backpatching (§5.2), locals, register classes and
// priority orderings (§3.2/§5.3), labels/backward branches, and the
// floating-point constant pool.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class FeatureTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    B = makeSubstrate(GetParam());
    WB = B.Tgt->info().WordBytes;
  }
  CodeMem code(size_t Bytes = 8192) { return B.Mem->allocCode(Bytes); }

  /// Builds `int add2(int a, int b) { return a + b; }`.
  CodePtr buildAdd2() {
    VCode V(*B.Tgt);
    Reg Arg[2];
    V.lambda("%i%i", Arg, LeafHint, code());
    Reg Rd = V.getreg(Type::I);
    V.addi(Rd, Arg[0], Arg[1]);
    V.reti(Rd);
    return V.end();
  }

  Substrate B;
  unsigned WB = 4;
};

// --- Dynamically constructed calls (paper §2: "clients can use VCODE to
// dynamically generate functions (and function calls) that take an
// arbitrary number and type of arguments") ---------------------------------

TEST_P(FeatureTest, GeneratedCodeCallsGeneratedCode) {
  CodePtr Callee = buildAdd2();

  // caller(x) = add2(x, 100) + 1  -- non-leaf: ra must survive the call.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg X = V.getreg(Type::I, RegClass::Var); // must survive the call
  ASSERT_TRUE(X.isValid());
  V.movi(X, Arg[0]);
  V.callBegin("%i%i");
  V.callArg(X);
  Reg Hundred = V.getreg(Type::I);
  V.seti(Hundred, 100);
  V.callArg(Hundred);
  V.callAddr(Callee.Entry);
  Reg Res = V.retvalReg(Type::I);
  Reg Out = V.getreg(Type::I);
  V.addii(Out, Res, 1);
  // X must still be live after the call (it is callee-saved).
  V.addi(Out, Out, X);
  V.reti(Out);
  CodePtr Caller = V.end();

  // caller(5) = add2(5,100) + 1 + 5 = 111
  EXPECT_EQ(B.Cpu->call(Caller.Entry, {TypedValue::fromInt(5)}).asInt32(),
            111);
}

TEST_P(FeatureTest, CallThroughRegister) {
  CodePtr Callee = buildAdd2();

  // caller(fnptr, a, b) = fnptr(a, b) * 2
  VCode V(*B.Tgt);
  Reg Arg[3];
  V.lambda("%p%i%i", Arg, NonLeafHint, code());
  Reg Fn = V.getreg(Type::P, RegClass::Var);
  Reg A = V.getreg(Type::I, RegClass::Var);
  Reg Bv = V.getreg(Type::I, RegClass::Var);
  V.movp(Fn, Arg[0]);
  V.movi(A, Arg[1]);
  V.movi(Bv, Arg[2]);
  V.callBegin("%i%i");
  V.callArg(A);
  V.callArg(Bv);
  V.callReg(Fn);
  Reg Out = V.getreg(Type::I);
  V.mulii(Out, V.retvalReg(Type::I), 2);
  V.reti(Out);
  CodePtr Caller = V.end();

  EXPECT_EQ(B.Cpu->call(Caller.Entry,
                        {TypedValue::fromPtr(Callee.Entry),
                         TypedValue::fromInt(20), TypedValue::fromInt(1)})
                .asInt32(),
            42);
}

TEST_P(FeatureTest, CallFromLeafIsAnError) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  EXPECT_DEATH(V.callBegin("%i"), "V_LEAF");
}

// --- Calling conventions: many arguments, including stack-passed ones -------

TEST_P(FeatureTest, ManyIntArguments) {
  // f(a0..a7) = sum of 8 ints; several land on the stack on every target.
  VCode V(*B.Tgt);
  Reg Arg[8];
  V.lambda("%i%i%i%i%i%i%i%i", Arg, LeafHint, code());
  Reg Sum = V.getreg(Type::I);
  ASSERT_TRUE(Sum.isValid());
  V.movi(Sum, Arg[0]);
  for (int I = 1; I < 8; ++I)
    V.addi(Sum, Sum, Arg[I]);
  V.reti(Sum);
  CodePtr Fn = V.end();

  std::vector<TypedValue> Args;
  int32_t Want = 0;
  for (int I = 0; I < 8; ++I) {
    Args.push_back(TypedValue::fromInt((I + 1) * (I + 1)));
    Want += (I + 1) * (I + 1);
  }
  EXPECT_EQ(B.Cpu->call(Fn.Entry, Args).asInt32(), Want);
}

TEST_P(FeatureTest, MixedIntAndFpArguments) {
  // f(i, d, i, d) = i1 + i2 + int(d1 * d2)
  VCode V(*B.Tgt);
  Reg Arg[4];
  V.lambda("%i%d%i%d", Arg, LeafHint, code());
  Reg Prod = V.getreg(Type::D);
  V.muld(Prod, Arg[1], Arg[3]);
  Reg PI = V.getreg(Type::I);
  V.cvd2i(PI, Prod);
  Reg Sum = V.getreg(Type::I);
  V.addi(Sum, Arg[0], Arg[2]);
  V.addi(Sum, Sum, PI);
  V.reti(Sum);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry,
                        {TypedValue::fromInt(10), TypedValue::fromDouble(2.5),
                         TypedValue::fromInt(20), TypedValue::fromDouble(4.0)})
                .asInt32(),
            10 + 20 + 10);
}

TEST_P(FeatureTest, StackArgumentsRoundTrip) {
  // More FP args than FP arg registers: the tail arrives on the stack and
  // the prologue copies it up (paper §3.2 step 2).
  VCode V(*B.Tgt);
  Reg Arg[8];
  V.lambda("%d%d%d%d%d%d%d%d", Arg, LeafHint, code());
  Reg Sum = V.getreg(Type::D);
  ASSERT_TRUE(Sum.isValid());
  V.movd(Sum, Arg[0]);
  for (int I = 1; I < 8; ++I)
    V.addd(Sum, Sum, Arg[I]);
  V.retd(Sum);
  CodePtr Fn = V.end();

  std::vector<TypedValue> Args;
  double Want = 0;
  for (int I = 0; I < 8; ++I) {
    Args.push_back(TypedValue::fromDouble(I + 0.25));
    Want += I + 0.25;
  }
  EXPECT_EQ(B.Cpu->call(Fn.Entry, Args, Type::D).asDouble(), Want);
}

// --- Locals (paper v_local) ---------------------------------------------------

TEST_P(FeatureTest, LocalsSpillAndReload) {
  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, code());
  Local LA = V.localVar(Type::I);
  Local LB = V.localVar(Type::D);
  Local LC = V.localVar(Type::I);
  V.storeLocal(Type::I, Arg[0], LA);
  V.storeLocal(Type::I, Arg[1], LC);
  Reg T = V.getreg(Type::I);
  Reg Dv = V.getreg(Type::D);
  V.setd(Dv, 3.0);
  V.storeLocal(Type::D, Dv, LB);
  V.loadLocal(Type::I, T, LA);
  Reg U = V.getreg(Type::I);
  V.loadLocal(Type::I, U, LC);
  V.addi(T, T, U);
  V.loadLocal(Type::D, Dv, LB);
  Reg DI = V.getreg(Type::I);
  V.cvd2i(DI, Dv);
  V.addi(T, T, DI);
  V.reti(T);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry,
                        {TypedValue::fromInt(4), TypedValue::fromInt(8)})
                .asInt32(),
            15);
}

TEST_P(FeatureTest, LocalAddressEscapes) {
  // Store through the address of a local, then read the local back.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Local L = V.localVar(Type::I);
  Reg P = V.getreg(Type::P);
  V.localAddr(P, L);
  V.stii(Arg[0], P, 0);
  Reg T = V.getreg(Type::I);
  V.loadLocal(Type::I, T, L);
  V.addii(T, T, 5);
  V.reti(T);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(37)}).asInt32(), 42);
}

// --- Register machinery ---------------------------------------------------------

TEST_P(FeatureTest, RegisterExhaustionReturnsInvalid) {
  // "Once the machine's registers are exhausted, the register allocator
  // returns an error code" (paper §3.2).
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code(1 << 16));
  unsigned Got = 0;
  for (;;) {
    Reg R = V.getreg(Type::I);
    if (!R.isValid())
      break;
    ++Got;
    ASSERT_LT(Got, 64u) << "allocator never exhausted";
  }
  EXPECT_GE(Got, 10u);
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, PutregRecycles) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Reg A = V.getreg(Type::I);
  V.putreg(A);
  Reg Bv = V.getreg(Type::I);
  EXPECT_EQ(A, Bv) << "priority ordering should hand back the same register";
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, CalleeSavedRegistersSurviveCalls) {
  CodePtr Clobber = [&] {
    // A function that dirties every caller-saved register it can get.
    VCode V(*B.Tgt);
    V.lambda("%v", nullptr, LeafHint, code());
    for (;;) {
      Reg R = V.getreg(Type::I, RegClass::Temp);
      if (!R.isValid() ||
          V.regAlloc().usedCalleeSavedMask(Reg::Int)) // stop before spills
        break;
      V.seti(R, -1);
    }
    V.retv();
    return V.end();
  }();

  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg X = V.getreg(Type::I, RegClass::Var);
  ASSERT_TRUE(X.isValid());
  V.mulii(X, Arg[0], 3);
  V.callBegin("%v");
  V.callAddr(Clobber.Entry);
  V.reti(X);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(14)}).asInt32(), 42);
}

TEST_P(FeatureTest, HardCodedRegisterNames) {
  // Paper §5.3: "VCODE provides architecture-independent names for
  // temporary (T0, T1, ...) and callee-saved registers (S0, S1, ...)".
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Reg T0 = V.tmp(0), T1 = V.tmp(1);
  V.movi(T0, Arg[0]);
  V.seti(T1, 2);
  V.muli(T0, T0, T1);
  V.reti(T0);
  CodePtr Fn = V.end();
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(21)}).asInt32(), 42);
}

TEST_P(FeatureTest, HardCodedSavedRegisterGetsSaved) {
  // sav() notes the callee-saved use; the caller's S0 value must survive.
  CodePtr Callee = [&] {
    VCode V(*B.Tgt);
    V.lambda("%v", nullptr, LeafHint, code());
    Reg S0 = V.sav(0);
    V.seti(S0, 12345); // would clobber the caller's S0 without a save
    V.retv();
    return V.end();
  }();

  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg X = V.sav(0);
  V.movi(X, Arg[0]);
  V.callBegin("%v");
  V.callAddr(Callee.Entry);
  V.reti(X);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(7)}).asInt32(), 7);
}

TEST_P(FeatureTest, RegisterAssertionFires) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  EXPECT_DEATH((void)V.tmp(200), "register assertion");
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, PriorityOrderingIsRespected) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  // Declare a custom ordering: second default temp first.
  const TargetInfo &TI = B.Tgt->info();
  std::vector<Reg> Order = {TI.IntTemps[1], TI.IntTemps[0]};
  V.setRegPriority(Reg::Int, Order);
  EXPECT_EQ(V.getreg(Type::I), TI.IntTemps[1]);
  EXPECT_EQ(V.getreg(Type::I), TI.IntTemps[0]);
  EXPECT_FALSE(V.getreg(Type::I).isValid());
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, UnavailableRegisterIsNeverAllocated) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Reg First = B.Tgt->info().IntTemps[0];
  V.setRegKind(First, RegKind::Unavailable);
  for (int I = 0; I < 40; ++I) {
    Reg R = V.getreg(Type::I);
    if (!R.isValid())
      break;
    EXPECT_NE(R, First);
  }
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, InterruptHandlerModeSavesEverything) {
  // Paper §5.3: "in an interrupt handler all registers are live.
  // Therefore, for correctness, VCODE must treat all registers as
  // callee-saved." The handler must preserve even scratch registers.
  CodePtr Handler = [&] {
    VCode V(*B.Tgt);
    V.lambda("%v", nullptr, LeafHint, code());
    V.allRegsCalleeSaved();
    for (int I = 0; I < 4; ++I) {
      Reg R = V.getreg(Type::I);
      EXPECT_TRUE(R.isValid());
      V.seti(R, -1);
    }
    V.retv();
    return V.end();
  }();
  if (::testing::Test::HasFatalFailure())
    return;

  // Caller keeps live values in hard-coded caller-saved temps across the
  // "interrupt" — only legal because of the handler's register mode.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg T0 = V.tmp(0), T1 = V.tmp(1), T2 = V.tmp(2), T3 = V.tmp(3);
  V.movi(T0, Arg[0]);
  V.addii(T1, Arg[0], 1);
  V.addii(T2, Arg[0], 2);
  V.addii(T3, Arg[0], 3);
  V.callBegin("%v");
  V.callAddr(Handler.Entry);
  V.addi(T0, T0, T1);
  V.addi(T0, T0, T2);
  V.addi(T0, T0, T3);
  V.reti(T0);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(10)}).asInt32(),
            10 + 11 + 12 + 13);
}

// --- Labels and control flow -----------------------------------------------------

TEST_P(FeatureTest, BackwardBranchLoop) {
  // Compute triangular numbers with a backward branch.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Reg Sum = V.getreg(Type::I), I = V.getreg(Type::I);
  V.seti(Sum, 0);
  V.seti(I, 0);
  Label Loop = V.genLabel();
  V.label(Loop);
  V.addii(I, I, 1);
  V.addi(Sum, Sum, I);
  V.blti(I, Arg[0], Loop);
  V.reti(Sum);
  CodePtr Fn = V.end();

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(10)}).asInt32(), 55);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(100)}).asInt32(), 5050);
}

TEST_P(FeatureTest, UnboundLabelIsFatal) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Label Never = V.genLabel();
  V.jmp(Never);
  V.retv();
  EXPECT_DEATH((void)V.end(), "never bound");
}

TEST_P(FeatureTest, JumpThroughRegister) {
  // Computed goto: jump to one of two labels through a register.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Reg T = V.getreg(Type::P);
  Reg Out = V.getreg(Type::I);
  Label LA = V.genLabel(), LB = V.genLabel(), Pick = V.genLabel();
  V.jmp(Pick);
  V.label(LA);
  V.seti(Out, 111);
  V.reti(Out);
  V.label(LB);
  V.seti(Out, 222);
  V.reti(Out);
  V.label(Pick);
  // Address of LA/LB is not known yet; jump via a compare instead, and use
  // jmpr for the second-level dispatch once bound... here we simply branch.
  V.bneii(Arg[0], 0, LB);
  V.jmp(LA);
  CodePtr Fn = V.end();
  (void)T;

  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(0)}).asInt32(), 111);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(9)}).asInt32(), 222);
}

// --- Constant pool ------------------------------------------------------------------

TEST_P(FeatureTest, ConstantPoolDeduplicates) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Label L1 = V.constPoolLabel(0x1234567890abcdefull);
  Label L2 = V.constPoolLabel(0x1234567890abcdefull);
  Label L3 = V.constPoolLabel(0xfeedfacecafebeefull);
  EXPECT_EQ(L1.Id, L2.Id);
  EXPECT_NE(L1.Id, L3.Id);
  V.retv();
  (void)V.end();
}

TEST_P(FeatureTest, FpArithmeticWithPoolConstants) {
  // f(x) = x * pi + e  (both constants come from the pool on most targets)
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%d", Arg, LeafHint, code());
  Reg Pi = V.getreg(Type::D), E = V.getreg(Type::D);
  V.setd(Pi, 3.141592653589793);
  V.setd(E, 2.718281828459045);
  Reg T = V.getreg(Type::D);
  V.muld(T, Arg[0], Pi);
  V.addd(T, T, E);
  V.retd(T);
  CodePtr Fn = V.end();

  double Got =
      B.Cpu->call(Fn.Entry, {TypedValue::fromDouble(2.0)}, Type::D).asDouble();
  EXPECT_DOUBLE_EQ(Got, 2.0 * 3.141592653589793 + 2.718281828459045);
}

// --- Portable instruction scheduling (paper §5.3) -------------------------------

TEST_P(FeatureTest, ScheduleDelayKeepsSemantics) {
  // count-down loop with the decrement scheduled into the branch delay slot
  // (or placed before the branch on machines without one).
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, code());
  Reg N = V.getreg(Type::I), Sum = V.getreg(Type::I);
  Reg Cnt = V.getreg(Type::I);
  V.movi(N, Arg[0]);
  V.seti(Sum, 0);
  V.seti(Cnt, 0);
  Label Loop = V.genLabel();
  V.label(Loop);
  V.addi(Sum, Sum, N);
  V.subii(N, N, 1);
  // The slot instruction must not feed the branch condition; an iteration
  // counter is independent of N.
  V.scheduleDelay([&] { V.bgtii(N, 0, Loop); },
                  [&] { V.addii(Cnt, Cnt, 1); });
  V.addi(Sum, Sum, Cnt);
  V.reti(Sum);
  CodePtr Fn = V.end();

  // sum(10..1) + 10 iterations = 55 + 10.
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(10)}).asInt32(), 65);
}

TEST_P(FeatureTest, RawLoadPadsLoadDelay) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%p", Arg, LeafHint, code());
  Reg T = V.getreg(Type::I);
  uint32_t Before = V.buf().wordIndex();
  V.rawLoad([&] { V.ldii(T, Arg[0], 0); }, /*InstrsUntilUse=*/0);
  uint32_t Emitted = V.buf().wordIndex() - Before;
  V.addii(T, T, 1);
  V.reti(T);
  CodePtr Fn = V.end();

  // On MIPS (one load delay slot) a nop must separate load and use.
  EXPECT_EQ(Emitted, 1 + B.Tgt->info().LoadDelaySlots);
  SimAddr Buf = B.Mem->alloc(8);
  B.Mem->write<int32_t>(Buf, 41);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromPtr(Buf)}).asInt32(), 42);
}

TEST_P(FeatureTest, InterleavedFunctionGeneration) {
  // The paper generates "code one function at a time" and footnotes that
  // "in the future, this interface will be extended so that clients can
  // create several functions simultaneously". Because generation state
  // lives in the VCode object (not globals, as in the original C), two
  // generations can interleave freely here.
  VCode V1(*B.Tgt), V2(*B.Tgt);
  Reg A1[1], A2[1];
  V1.lambda("%i", A1, LeafHint, code());
  V2.lambda("%i", A2, LeafHint, code());
  V1.addii(A1[0], A1[0], 1);
  V2.mulii(A2[0], A2[0], 2);
  V2.reti(A2[0]);
  V1.reti(A1[0]);
  CodePtr F2 = V2.end();
  CodePtr F1 = V1.end();

  EXPECT_EQ(B.Cpu->call(F1.Entry, {TypedValue::fromInt(41)}).asInt32(), 42);
  EXPECT_EQ(B.Cpu->call(F2.Entry, {TypedValue::fromInt(21)}).asInt32(), 42);
}

TEST_P(FeatureTest, LocalSubroutineViaCallLabel) {
  // Paper Table 2's jal takes "immediate, register, or label": a local
  // subroutine called twice through the link register.
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg Acc = V.getreg(Type::I, RegClass::Var);
  ASSERT_TRUE(Acc.isValid());
  Label Sub = V.genLabel();
  V.movi(Acc, Arg[0]);
  V.callLabel(Sub); // acc = acc * 2 + 1
  V.callLabel(Sub);
  V.reti(Acc);
  // The subroutine body (after the return path, like the paper's
  // per-function epilogue blocks).
  V.label(Sub);
  V.addi(Acc, Acc, Acc);
  V.addii(Acc, Acc, 1);
  V.retlink();
  CodePtr Fn = V.end();

  // f(x) = 2*(2x+1)+1 = 4x+3
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(5)}).asInt32(), 23);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(0)}).asInt32(), 3);
}

TEST_P(FeatureTest, GeneratedFunctionsAreReentrant) {
  // f(n) = n <= 1 ? 1 : n + f(n - 1): self-recursive generated code,
  // address patched into the jal after v_end via a function-pointer cell.
  SimAddr Cell = B.Mem->alloc(8, 8);
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  Reg N = V.getreg(Type::I, RegClass::Var);
  V.movi(N, Arg[0]);
  Label Base = V.genLabel();
  V.bleii(N, 1, Base);
  V.callBegin("%i");
  Reg T = V.getreg(Type::I);
  V.subii(T, N, 1);
  V.callArg(T);
  V.putreg(T);
  Reg Fp = V.getreg(Type::P);
  V.setp(Fp, Cell);
  V.ldpi(Fp, Fp, 0);
  V.callReg(Fp);
  V.putreg(Fp);
  Reg Out = V.getreg(Type::I);
  V.addi(Out, N, V.retvalReg(Type::I));
  V.reti(Out);
  V.label(Base);
  Reg One = V.getreg(Type::I);
  V.seti(One, 1);
  V.reti(One);
  CodePtr Fn = V.end();
  if (B.Tgt->info().WordBytes == 8)
    B.Mem->write<uint64_t>(Cell, Fn.Entry);
  else
    B.Mem->write<uint32_t>(Cell, uint32_t(Fn.Entry));

  // f(10) = 10+9+...+2 + 1 = 55
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(10)}).asInt32(), 55);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(100)}).asInt32(),
            5050);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, FeatureTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
