//===- tests/QuirksTest.cpp - Port-specific synthesis paths --------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The boundary conditions the paper warns about (§1: "frequently the
// source of latent bugs") exercised deliberately: Alpha's missing byte
// operations and missing divide, wide-constant materialization through
// the pool, unsigned-64 float conversion, and SPARC's Y-register
// division — each on exactly the inputs that break naive ports.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "alpha/AlphaTarget.h"
#include "sim/AlphaSim.h"
#include "sim/SparcSim.h"
#include "sparc/SparcTarget.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

struct AlphaEnv {
  sim::Memory Mem;
  alpha::AlphaTarget Tgt;
  sim::AlphaSim Cpu{Mem};
  AlphaEnv() { Tgt.installDivHelpers(Mem.allocCode(16384)); }
  CodeMem code() { return Mem.allocCode(8192); }
};

TEST(AlphaQuirks, ByteStoreSynthesisPreservesNeighbours) {
  // The paper's §6.2 worst case: store-byte must read-modify-write the
  // containing quadword without disturbing the other seven bytes.
  AlphaEnv E;
  VCode V(E.Tgt);
  Reg Arg[3];
  V.lambda("%p%i%i", Arg, LeafHint, E.code());
  // p[idx] = val (byte store through a computed address)
  Reg A = V.getreg(Type::P);
  V.addp(A, Arg[0], Arg[1]);
  V.stci(Arg[2], A, 0);
  V.retv();
  CodePtr Fn = V.end();

  SimAddr Buf = E.Mem.alloc(16, 8);
  for (unsigned I = 0; I < 16; ++I)
    E.Mem.write<uint8_t>(Buf + I, uint8_t(0xA0 + I));
  for (unsigned Idx = 0; Idx < 8; ++Idx) {
    E.Cpu.call(Fn.Entry,
               {TypedValue::fromPtr(Buf), TypedValue::fromInt(Idx),
                TypedValue::fromInt(0x5A)},
               Type::V);
    for (unsigned I = 0; I < 16; ++I) {
      // Bytes 0..Idx were overwritten by this and earlier iterations.
      uint8_t Want = I <= Idx ? 0x5A : uint8_t(0xA0 + I);
      EXPECT_EQ(E.Mem.read<uint8_t>(Buf + I), Want) << "idx " << Idx
                                                    << " byte " << I;
    }
  }
}

TEST(AlphaQuirks, SignedByteAndHalfwordLoads) {
  AlphaEnv E;
  VCode V(E.Tgt);
  Reg Arg[1];
  V.lambda("%p", Arg, LeafHint, E.code());
  Reg A = V.getreg(Type::I), B = V.getreg(Type::I);
  V.ldci(A, Arg[0], 3);  // signed byte at odd offset
  V.ldsi(B, Arg[0], 6);  // signed halfword
  V.addi(A, A, B);
  V.reti(A);
  CodePtr Fn = V.end();

  SimAddr Buf = E.Mem.alloc(16, 8);
  E.Mem.write<int8_t>(Buf + 3, -5);
  E.Mem.write<int16_t>(Buf + 6, -1000);
  EXPECT_EQ(E.Cpu.call(Fn.Entry, {TypedValue::fromPtr(Buf)}).asInt32(),
            -1005);
}

TEST(AlphaQuirks, WideConstantsComeFromThePool) {
  AlphaEnv E;
  VCode V(E.Tgt);
  V.lambda("%v", nullptr, LeafHint, E.code());
  Reg A = V.getreg(Type::UL);
  V.setul(A, 0x123456789abcdef0ull); // no lda/ldah decomposition fits
  V.retul(A);
  CodePtr Fn = V.end();
  EXPECT_EQ(E.Cpu.call(Fn.Entry, {}, Type::UL).asUInt64(),
            0x123456789abcdef0ull);
}

TEST(AlphaQuirks, SixtyFourBitDivision) {
  AlphaEnv E;
  auto Build = [&](BinOp Op, Type Ty) {
    VCode V(E.Tgt);
    Reg Arg[2];
    V.lambda(Ty == Type::L ? "%l%l" : "%U%U", Arg, LeafHint, E.code());
    Reg R = V.getreg(Ty);
    V.binop(Op, Ty, R, Arg[0], Arg[1]);
    V.ret(Ty, R);
    return V.end();
  };
  CodePtr DivL = Build(BinOp::Div, Type::L);
  CodePtr ModL = Build(BinOp::Mod, Type::L);
  CodePtr DivU = Build(BinOp::Div, Type::UL);
  CodePtr ModU = Build(BinOp::Mod, Type::UL);

  auto RunL = [&](CodePtr &F, int64_t A, int64_t B) {
    return E.Cpu
        .call(F.Entry,
              {TypedValue::fromInt(A, Type::L), TypedValue::fromInt(B, Type::L)},
              Type::L)
        .asInt64();
  };
  auto RunU = [&](CodePtr &F, uint64_t A, uint64_t B) {
    return E.Cpu
        .call(F.Entry,
              {TypedValue::fromUInt(A, Type::UL),
               TypedValue::fromUInt(B, Type::UL)},
              Type::UL)
        .asUInt64();
  };

  EXPECT_EQ(RunL(DivL, 1000000000000ll, 7), 1000000000000ll / 7);
  EXPECT_EQ(RunL(ModL, 1000000000000ll, 7), 1000000000000ll % 7);
  EXPECT_EQ(RunL(DivL, -1000000000000ll, 7), -1000000000000ll / 7);
  EXPECT_EQ(RunL(ModL, -1000000000000ll, 7), -1000000000000ll % 7);
  EXPECT_EQ(RunL(DivL, 1000000000000ll, -7), 1000000000000ll / -7);
  EXPECT_EQ(RunL(DivL, INT64_MIN, 1), INT64_MIN);
  EXPECT_EQ(RunU(DivU, 0xffffffffffffffffull, 3), 0xffffffffffffffffull / 3);
  EXPECT_EQ(RunU(ModU, 0xffffffffffffffffull, 10),
            0xffffffffffffffffull % 10);
  EXPECT_EQ(RunU(DivU, 5, 0x8000000000000000ull), 0u);
}

TEST(AlphaQuirks, DivisionInsideLeafPreservesRa) {
  // The §5.2 point of the substituted helper convention: a V_LEAF caller
  // does not save ra, and the division subroutine call must not clobber
  // it. Executing to completion proves ra survived.
  AlphaEnv E;
  VCode V(E.Tgt);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, E.code());
  Reg R = V.getreg(Type::I);
  V.divi(R, Arg[0], Arg[1]);
  V.divi(R, R, Arg[1]); // twice, for good measure
  V.reti(R);
  CodePtr Fn = V.end();
  EXPECT_EQ(E.Cpu.call(Fn.Entry,
                       {TypedValue::fromInt(4900), TypedValue::fromInt(7)})
                .asInt32(),
            100);
}

TEST(AlphaQuirks, Unsigned64ToDouble) {
  AlphaEnv E;
  VCode V(E.Tgt);
  Reg Arg[1];
  V.lambda("%U", Arg, LeafHint, E.code());
  Reg D = V.getreg(Type::D);
  V.cvt(Type::UL, Type::D, D, Arg[0]);
  V.retd(D);
  CodePtr Fn = V.end();

  // Exactly representable values only (the add-2^64 fixup path can
  // legitimately double-round otherwise).
  const uint64_t Cases[] = {0,
                            1,
                            12345678,
                            uint64_t(1) << 52,
                            uint64_t(1) << 63,          // negative as int64
                            (uint64_t(1) << 63) + (uint64_t(1) << 40),
                            0xffffffff00000000ull};
  for (uint64_t Vv : Cases) {
    double Got = E.Cpu
                     .call(Fn.Entry, {TypedValue::fromUInt(Vv, Type::UL)},
                           Type::D)
                     .asDouble();
    EXPECT_EQ(Got, double(Vv)) << Vv;
  }
}

TEST(SparcQuirks, YRegisterDivision) {
  sim::Memory Mem;
  sparc::SparcTarget Tgt;
  sim::SparcSim Cpu(Mem);
  VCode V(Tgt);
  Reg Arg[2];
  V.lambda("%i%i", Arg, LeafHint, Mem.allocCode(8192));
  Reg Q = V.getreg(Type::I), R = V.getreg(Type::I);
  V.divi(Q, Arg[0], Arg[1]);
  V.modi(R, Arg[0], Arg[1]);
  // return q * 100000 + (r + 50000): packs both results
  V.mulii(Q, Q, 100000);
  V.addii(R, R, 50000);
  V.addi(Q, Q, R);
  V.reti(Q);
  CodePtr Fn = V.end();

  auto Run = [&](int32_t A, int32_t B) {
    return Cpu
        .call(Fn.Entry, {TypedValue::fromInt(A), TypedValue::fromInt(B)})
        .asInt32();
  };
  // The Y register must be primed with the dividend's sign, or negative
  // dividends divide wrong.
  EXPECT_EQ(Run(100, 7), 14 * 100000 + (2 + 50000));
  EXPECT_EQ(Run(-100, 7), -14 * 100000 + (-2 + 50000));
  EXPECT_EQ(Run(100, -7), -14 * 100000 + (2 + 50000));
  EXPECT_EQ(Run(-100, -7), 14 * 100000 + (-2 + 50000));
}

TEST(MipsQuirks, BigImmediatesSynthesizeThroughAt) {
  // Constants that do not fit 16-bit immediate fields (the paper's §1
  // boundary-condition example) must synthesize via lui/ori.
  Substrate B = makeSubstrate("mips");
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(8192));
  Reg R = V.getreg(Type::I);
  V.addii(R, Arg[0], 0x12345678);
  V.andii(R, R, 0x7fff0001);
  V.xorii(R, R, -19088744); // 0xfedcba98
  V.reti(R);
  CodePtr Fn = V.end();
  int32_t X = 1111;
  int32_t Want = int32_t((uint32_t(X + 0x12345678) & 0x7fff0001u) ^
                         0xfedcba98u);
  EXPECT_EQ(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(X)}).asInt32(), Want);
}

} // namespace
