//===- tests/SupportTest.cpp - Support library unit tests ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "support/BitUtils.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include "support/ToolFlags.h"
#include "core/Types.h"
#include "core/Ops.h"
#include "core/CallConv.h"
#include <gtest/gtest.h>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

using namespace vcode;

namespace {

TEST(BitUtils, SignedImmediateRanges) {
  EXPECT_TRUE(isInt<16>(32767));
  EXPECT_FALSE(isInt<16>(32768));
  EXPECT_TRUE(isInt<16>(-32768));
  EXPECT_FALSE(isInt<16>(-32769));
  EXPECT_TRUE(isInt<13>(4095));
  EXPECT_FALSE(isInt<13>(4096));
  EXPECT_TRUE(isInt<21>(-(1 << 20)));
  EXPECT_FALSE(isInt<21>(1 << 20));
}

TEST(BitUtils, UnsignedImmediateRanges) {
  EXPECT_TRUE(isUInt<16>(65535));
  EXPECT_FALSE(isUInt<16>(65536));
  EXPECT_TRUE(isUInt<8>(255));
  EXPECT_FALSE(isUInt<8>(256));
}

TEST(BitUtils, SignExtension) {
  EXPECT_EQ(signExtend32<16>(0x8000), -32768);
  EXPECT_EQ(signExtend32<16>(0x7fff), 32767);
  EXPECT_EQ(signExtend32<21>(0x1fffff), -1);
  EXPECT_EQ((signExtend<8>(0xff)), -1);
  EXPECT_EQ((signExtend<8>(0x7f)), 127);
}

TEST(BitUtils, ByteSwaps) {
  EXPECT_EQ(byteSwap16(0x1234), 0x3412);
  EXPECT_EQ(byteSwap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(byteSwap32(byteSwap32(0xdeadbeefu)), 0xdeadbeefu);
}

TEST(BitUtils, AlignAndLog) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 16), 16u);
  EXPECT_TRUE(isPowerOf2(64));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(48));
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(64), 6u);
  EXPECT_EQ(log2Floor(100), 6u);
}

TEST(Rng, DeterministicAndSpread) {
  Rng A(7), B(7), C(8);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Different = false;
  Rng A2(7);
  for (int I = 0; I < 10; ++I)
    Different |= A2.next() != C.next();
  EXPECT_TRUE(Different);

  // below() respects bounds; range() is inclusive.
  Rng R(1);
  std::set<int64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.below(10);
    EXPECT_LT(V, 10u);
    Seen.insert(R.range(-3, 3));
  }
  EXPECT_EQ(Seen.size(), 7u);
  for (int64_t V : Seen) {
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
  }
}

TEST(Types, SizesAndTraits) {
  EXPECT_EQ(typeSize(Type::C, 4), 1u);
  EXPECT_EQ(typeSize(Type::S, 4), 2u);
  EXPECT_EQ(typeSize(Type::I, 8), 4u);
  EXPECT_EQ(typeSize(Type::L, 4), 4u);
  EXPECT_EQ(typeSize(Type::L, 8), 8u);
  EXPECT_EQ(typeSize(Type::P, 8), 8u);
  EXPECT_EQ(typeSize(Type::D, 4), 8u);
  EXPECT_TRUE(isSignedType(Type::C));
  EXPECT_FALSE(isSignedType(Type::UC));
  EXPECT_TRUE(isFpType(Type::F));
  EXPECT_FALSE(isRegType(Type::S));
  EXPECT_TRUE(isIntRegType(Type::P));
  EXPECT_STREQ(typeName(Type::UL), "ul");
}

TEST(Conds, SwapAndNegate) {
  EXPECT_EQ(swapCond(Cond::Lt), Cond::Gt);
  EXPECT_EQ(swapCond(Cond::Le), Cond::Ge);
  EXPECT_EQ(swapCond(Cond::Eq), Cond::Eq);
  EXPECT_EQ(negateCond(Cond::Lt), Cond::Ge);
  EXPECT_EQ(negateCond(Cond::Eq), Cond::Ne);
  EXPECT_EQ(negateCond(negateCond(Cond::Gt)), Cond::Gt);
}

/// The locations of arguments \p Args under \p CC, in order.
std::vector<ArgLoc> placeArgs(const CallConv &CC,
                              const std::vector<Type> &Args,
                              unsigned WordBytes) {
  std::vector<ArgLoc> Locs;
  ArgWalker Walk(CC, WordBytes);
  for (Type T : Args)
    Locs.push_back(Walk.next(T));
  return Locs;
}

TEST(CallConvPlacement, RegistersThenStack) {
  CallConv CC;
  CC.IntArgRegs = {intReg(4), intReg(5)};
  CC.FpArgRegs = {fpReg(12)};
  std::vector<Type> Args = {Type::I, Type::D, Type::I, Type::I, Type::D};
  auto Locs = placeArgs(CC, Args, 4);
  ASSERT_EQ(Locs.size(), 5u);
  EXPECT_FALSE(Locs[0].OnStack);
  EXPECT_EQ(Locs[0].R, intReg(4));
  EXPECT_FALSE(Locs[1].OnStack);
  EXPECT_EQ(Locs[1].R, fpReg(12));
  EXPECT_FALSE(Locs[2].OnStack);
  EXPECT_EQ(Locs[2].R, intReg(5));
  EXPECT_TRUE(Locs[3].OnStack);
  EXPECT_EQ(Locs[3].StackOff, 0);
  EXPECT_TRUE(Locs[4].OnStack);
  EXPECT_EQ(Locs[4].StackOff, 8) << "doubles align to 8 on the stack";
  EXPECT_EQ(outArgBytes(CC, Locs, 4), 16u);
}

TEST(CallConvPlacement, MinOutArgBytesFloors) {
  CallConv CC;
  CC.IntArgRegs = {intReg(4)};
  CC.MinOutArgBytes = 16;
  std::vector<Type> Args = {Type::I};
  auto Locs = placeArgs(CC, Args, 4);
  EXPECT_EQ(outArgBytes(CC, Locs, 4), 16u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"a", "long-header", "c"});
  T.addRow({"xxxx", "1", "2"});
  T.addRow({"y", "22"});
  // Render to a memory stream.
  char Buf[512] = {};
  FILE *F = fmemopen(Buf, sizeof(Buf), "w");
  ASSERT_NE(F, nullptr);
  T.print(F);
  std::fclose(F);
  std::string S(Buf);
  EXPECT_NE(S.find("long-header"), std::string::npos);
  EXPECT_NE(S.find("xxxx"), std::string::npos);
  // All three lines of rows + header + rule.
  EXPECT_EQ(std::count(S.begin(), S.end(), '\n'), 4);
}

// --- tool::handleArgs strict parsing ----------------------------------------

/// Mutable argv for handleArgs, which compacts it in place.
struct ArgvBuilder {
  std::vector<std::string> Store;
  std::vector<char *> Ptrs;
  ArgvBuilder(std::initializer_list<const char *> Args) {
    Store.emplace_back("tool");
    for (const char *A : Args)
      Store.emplace_back(A);
    for (std::string &S : Store)
      Ptrs.push_back(S.data());
    Ptrs.push_back(nullptr);
  }
  int argc() const { return int(Store.size()); }
  char **argv() { return Ptrs.data(); }
};

TEST(ToolFlagsTest, ParsesSharedFlagsAndCompactsArgv) {
  ArgvBuilder A({"--tier=1", "keep-me", "--hot-threshold=64",
                 "--target=host", "also-keep"});
  tool::ToolOptions Opts;
  int Argc = tool::handleArgs(A.argc(), A.argv(), Opts);
  EXPECT_EQ(Opts.GenTier, Tier::Tier1);
  EXPECT_EQ(Opts.HotThreshold, 64u);
  EXPECT_TRUE(Opts.HotGiven);
  ASSERT_NE(Opts.TargetName, nullptr);
  EXPECT_STREQ(Opts.TargetName, "host");
  // Only the tool's own arguments survive, in order, null-terminated.
  ASSERT_EQ(Argc, 3);
  EXPECT_STREQ(A.argv()[1], "keep-me");
  EXPECT_STREQ(A.argv()[2], "also-keep");
  EXPECT_EQ(A.argv()[3], nullptr);
}

TEST(ToolFlagsTest, AcceptsFullUint64Range) {
  ArgvBuilder A({"--hot-threshold=18446744073709551615"});
  tool::ToolOptions Opts;
  tool::handleArgs(A.argc(), A.argv(), Opts);
  EXPECT_EQ(Opts.HotThreshold, ~uint64_t(0));
}

TEST(ToolFlagsTest, RejectsMalformedHotThreshold) {
  // Each of these used to slip through strtoull: a negative count wraps, an
  // overflow saturates, trailing garbage is ignored. All must be fatal.
  for (const char *Bad : {"-5", "+5", "abc", "", "12x", "0x10",
                          "18446744073709551616", " 7"}) {
    ArgvBuilder A({(std::string("--hot-threshold=") + Bad).c_str()});
    tool::ToolOptions Opts;
    EXPECT_DEATH(tool::handleArgs(A.argc(), A.argv(), Opts),
                 "bad --hot-threshold value")
        << "value '" << Bad << "'";
  }
}

TEST(ToolFlagsTest, RejectsBadTier) {
  for (const char *Bad : {"2", "teir1", "", "01"}) {
    ArgvBuilder A({(std::string("--tier=") + Bad).c_str()});
    tool::ToolOptions Opts;
    EXPECT_DEATH(tool::handleArgs(A.argc(), A.argv(), Opts),
                 "bad --tier value")
        << "value '" << Bad << "'";
  }
}

TEST(ToolFlagsTest, RejectsUnknownTarget) {
  for (const char *Bad : {"x86", "HOST", ""}) {
    ArgvBuilder A({(std::string("--target=") + Bad).c_str()});
    tool::ToolOptions Opts;
    EXPECT_DEATH(tool::handleArgs(A.argc(), A.argv(), Opts),
                 "bad --target value")
        << "value '" << Bad << "'";
  }
}

TEST(ToolFlagsTest, RejectsEmptyTraceJsonPath) {
  ArgvBuilder A({"--trace-json="});
  tool::ToolOptions Opts;
  EXPECT_DEATH(tool::handleArgs(A.argc(), A.argv(), Opts),
               "bad --trace-json value ''");
}

} // namespace
