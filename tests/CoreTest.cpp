//===- tests/CoreTest.cpp - Core VCODE end-to-end smoke tests -------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "mips/MipsEncoding.h"
#include "mips/MipsTarget.h"
#include "sim/MipsSim.h"
#include <gtest/gtest.h>

using namespace vcode;
using sim::TypedValue;

namespace {

class MipsEndToEnd : public ::testing::Test {
protected:
  sim::Memory Mem;
  mips::MipsTarget Target;
  sim::MipsSim Sim{Mem};
};

/// Paper Fig. 1: int plus1(int x) { return x + 1; }
TEST_F(MipsEndToEnd, Plus1) {
  VCode V(Target);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, Mem.allocCode(4096));
  V.addii(Arg[0], Arg[0], 1);
  V.reti(Arg[0]);
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());

  EXPECT_EQ(Sim.call(Fn.Entry, {TypedValue::fromInt(41)}).asInt32(), 42);
  EXPECT_EQ(Sim.call(Fn.Entry, {TypedValue::fromInt(-1)}).asInt32(), 0);
}

/// A leaf with no frame must be exactly the paper's three instructions:
///   addiu a0, a0, 1 ; j ra ; move v0, a0
TEST_F(MipsEndToEnd, Plus1IsThreeInstructions) {
  VCode V(Target);
  Reg Arg[1];
  CodeMem CM = Mem.allocCode(4096);
  V.lambda("%i", Arg, LeafHint, CM);
  V.addii(Arg[0], Arg[0], 1);
  V.reti(Arg[0]);
  CodePtr Fn = V.end();

  const uint32_t *Words =
      reinterpret_cast<const uint32_t *>(Mem.hostPtr(Fn.Entry, 12));
  using namespace mips;
  EXPECT_EQ(Words[0], encode<Opc::Addiu>(A0, A0, 1));
  EXPECT_EQ(Words[1], encode<Opc::Jr>(RA));
  EXPECT_EQ(Words[2], encode<Opc::Addu>(V0, A0, ZERO));
  // Generated code runs and the call takes only a handful of cycles.
  EXPECT_EQ(Sim.call(Fn.Entry, {TypedValue::fromInt(7)}).asInt32(), 8);
  EXPECT_EQ(Sim.lastStats().Instrs, 3u);
}

/// Paper Fig. 2: the exact MIPS word for addu.
TEST_F(MipsEndToEnd, AdduEncodingMatchesFig2) {
  // #define addu(dst,src1,src2) (((src1)<<21)|((src2)<<16)|((dst)<<11)|0x21)
  EXPECT_EQ(encode<mips::Opc::Addu>(/*Rd=*/10, /*Rs=*/11, /*Rt=*/12),
            (11u << 21) | (12u << 16) | (10u << 11) | 0x21u);
}

TEST_F(MipsEndToEnd, ArithAndBranches) {
  VCode V(Target);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, Mem.allocCode(4096));
  // return a < b ? a*2+b : a-b
  Reg T = V.getreg(Type::I);
  ASSERT_TRUE(T.isValid());
  Label Else = V.genLabel(), Done = V.genLabel();
  V.bgei(Arg[0], Arg[1], Else);
  V.mulii(T, Arg[0], 2);
  V.addi(T, T, Arg[1]);
  V.jmp(Done);
  V.label(Else);
  V.subi(T, Arg[0], Arg[1]);
  V.label(Done);
  V.reti(T);
  CodePtr Fn = V.end();

  auto Call = [&](int A, int B) {
    return Sim.call(Fn.Entry, {TypedValue::fromInt(A), TypedValue::fromInt(B)})
        .asInt32();
  };
  EXPECT_EQ(Call(3, 10), 16);
  EXPECT_EQ(Call(10, 3), 7);
  EXPECT_EQ(Call(-5, 0), -10);
}

TEST_F(MipsEndToEnd, LoopSumArray) {
  // int sum(int *p, int n)
  VCode V(Target);
  Reg Arg[2];
  V.lambda("%p%i", Arg, LeafHint, Mem.allocCode(4096));
  Reg Sum = V.getreg(Type::I), Idx = V.getreg(Type::I), T = V.getreg(Type::I);
  Label Loop = V.genLabel(), Done = V.genLabel();
  V.seti(Sum, 0);
  V.seti(Idx, 0);
  V.label(Loop);
  V.bgei(Idx, Arg[1], Done);
  V.ldi(T, Arg[0], Idx); // *(p + idx) -- idx is a byte offset here
  V.addi(Sum, Sum, T);
  V.addii(Idx, Idx, 4);
  V.jmp(Loop);
  V.label(Done);
  V.reti(Sum);
  CodePtr Fn = V.end();

  SimAddr Buf = Mem.alloc(10 * 4);
  int32_t Expect = 0;
  for (int I = 0; I < 10; ++I) {
    Mem.write<int32_t>(Buf + 4 * I, I * 3 - 5);
    Expect += I * 3 - 5;
  }
  // n is a byte count in this encoding
  EXPECT_EQ(Sim.call(Fn.Entry,
                     {TypedValue::fromPtr(Buf), TypedValue::fromInt(40)})
                .asInt32(),
            Expect);
}

} // namespace
