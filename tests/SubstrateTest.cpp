//===- tests/SubstrateTest.cpp - The substrate factory --------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// makeSubstrate(name) is the one place a machine name becomes an arena, a
// backend and a CPU. Every name it builds on this machine runs Fig. 1's
// plus1, on its own CPU and on a further one; the CPUs of a dbt substrate
// share one translation cache; names it does not know, names a tool does
// not accept and arenas of the wrong kind die with one message.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/CodeCache.h"
#include "core/VCode.h"
#include "dbt/TranslationEngine.h"
#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include <gtest/gtest.h>

using namespace vcode;
using sim::TypedValue;

namespace {

/// Paper Fig. 1: int plus1(int x) { return x + 1; }
CodePtr emitPlus1(Substrate &S) {
  VCode V(*S.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, S.Mem->allocCode(4096));
  V.addii(Arg[0], Arg[0], 1);
  V.reti(Arg[0]);
  return V.end();
}

class SubstrateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SubstrateTest, Plus1OnEveryCpu) {
  Substrate S = makeSubstrate(GetParam());
  EXPECT_EQ(S.Name, GetParam());
  CodePtr Plus1 = emitPlus1(S);
  ASSERT_TRUE(Plus1.isValid());
  EXPECT_EQ(S.Cpu->call(Plus1.Entry, {TypedValue::fromInt(41)}).asInt32(),
            42);
  std::unique_ptr<sim::Cpu> Second = S.makeCpu();
  EXPECT_EQ(Second->call(Plus1.Entry, {TypedValue::fromInt(41)}).asInt32(),
            42);
}

INSTANTIATE_TEST_SUITE_P(
    Names, SubstrateTest, ::testing::ValuesIn(test::allSubstrateNames()),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

TEST(SubstrateFactoryTest, DbtCpusShareOneEngine) {
#ifndef __x86_64__
  GTEST_SKIP() << "dbt is built on x86-64 machines only";
#else
  Substrate S = makeSubstrate("dbt");
  ASSERT_TRUE(S.Engine);
  if (!S.Engine->available())
    GTEST_SKIP() << "binary translation unavailable here";
  CodePtr Plus1 = emitPlus1(S);
  ASSERT_EQ(S.Cpu->call(Plus1.Entry, {TypedValue::fromInt(41)}).asInt32(),
            42);
  uint64_t Translations = S.Engine->cache()->stats().Generations;
  EXPECT_GT(Translations, 0u);

  std::unique_ptr<sim::Cpu> Second = S.makeCpu();
  EXPECT_EQ(Second->call(Plus1.Entry, {TypedValue::fromInt(41)}).asInt32(),
            42);
  EXPECT_EQ(S.Engine->cache()->stats().Generations, Translations)
      << "the second CPU translated plus1 again";
#endif
}

TEST(SubstrateFactoryTest, UnknownNameDies) {
  EXPECT_DEATH(makeSubstrate("vax"), "unknown substrate 'vax'");
}

TEST(SubstrateFactoryTest, ArenaOfWrongKindDies) {
  EXPECT_DEATH(makeSubstrate("mips", std::make_unique<sim::Memory>(
                                         sim::Memory::Native)),
               "substrate 'mips' needs a simulated arena");
}

TEST(SubstrateFactoryTest, NameOutsideToolSetDies) {
  tool::ToolOptions Opts;
  Opts.TargetName = "sparc";
  EXPECT_DEATH(makeSubstrate(Opts, "demo", Substrate::Mips | Substrate::Host),
               "demo: --target=sparc is not supported here");
}

} // namespace
