//===- tests/AshTest.cpp - ASH data-manipulation tests -----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Correctness of the three Table 4 implementations against a host
// reference (copy + checksum + byte-swap over random buffers), plus the
// performance shape the table reports: integration beats separate passes,
// and the ASH pipeline beats the hand-integrated loop.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ash/Ash.h"
#include "support/Rng.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::ash;
using namespace vcode::test;

namespace {

class AshTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }

  SimAddr makeBuffer(uint32_t Bytes, uint64_t Seed) {
    SimAddr A = B.Mem->alloc(Bytes, 8);
    Rng R(Seed);
    for (uint32_t I = 0; I < Bytes; I += 4)
      B.Mem->write<uint32_t>(A + I, uint32_t(R.next()));
    return A;
  }

  bool dstMatches(SimAddr Dst, SimAddr Ref, uint32_t Bytes) {
    for (uint32_t I = 0; I < Bytes; I += 4)
      if (B.Mem->read<uint32_t>(Dst + I) != B.Mem->read<uint32_t>(Ref + I))
        return false;
    return true;
  }

  Substrate B;
};

const std::vector<Step> CopyCksum = {Step::Copy, Step::Checksum};
const std::vector<Step> CopyCksumSwap = {Step::ByteSwap, Step::Copy,
                                         Step::Checksum};
const std::vector<Step> FourLayer = {Step::ByteSwap, Step::Xor, Step::Copy,
                                     Step::Checksum};

TEST_P(AshTest, AllVariantsMatchReference) {
  for (const auto &Steps : {CopyCksum, CopyCksumSwap, FourLayer}) {
    for (uint32_t Bytes : {4u, 16u, 64u, 1000u, 4096u}) {
      VCODE_SEEDED(Bytes * 7 + Steps.size());
      SimAddr Src = makeBuffer(Bytes, TestSeed);
      SimAddr RefDst = B.Mem->alloc(Bytes, 8);
      uint32_t WantSum = refRun(Steps, *B.Mem, RefDst, Src, Bytes);

      SeparateLoops Sep(*B.Tgt, *B.Mem, Steps);
      IntegratedLoop Intg(*B.Tgt, *B.Mem, Steps);
      Pipeline Ash(*B.Tgt, *B.Mem);
      for (Step S : Steps)
        Ash.addStep(S);
      Ash.compile(4);

      SimAddr D1 = B.Mem->alloc(Bytes, 8);
      EXPECT_EQ(Sep.run(*B.Cpu, D1, Src, Bytes), WantSum)
          << "separate, " << Bytes << "B";
      EXPECT_TRUE(dstMatches(D1, RefDst, Bytes));

      SimAddr D2 = B.Mem->alloc(Bytes, 8);
      EXPECT_EQ(Intg.run(*B.Cpu, D2, Src, Bytes), WantSum)
          << "integrated, " << Bytes << "B";
      EXPECT_TRUE(dstMatches(D2, RefDst, Bytes));

      SimAddr D3 = B.Mem->alloc(Bytes, 8);
      EXPECT_EQ(Ash.run(*B.Cpu, D3, Src, Bytes), WantSum)
          << "ash, " << Bytes << "B";
      EXPECT_TRUE(dstMatches(D3, RefDst, Bytes));
    }
  }
}

TEST_P(AshTest, ChecksumMatchesKnownValue) {
  // A tiny hand-computable case: two words.
  SimAddr Src = B.Mem->alloc(8, 8);
  B.Mem->write<uint32_t>(Src, 0x00010002);
  B.Mem->write<uint32_t>(Src + 4, 0xffff0003);
  SimAddr Dst = B.Mem->alloc(8, 8);
  IntegratedLoop Intg(*B.Tgt, *B.Mem, CopyCksum);
  // sum = 2 + 1 + 3 + 0xffff = 0x10005 -> fold -> 0x0006
  EXPECT_EQ(Intg.run(*B.Cpu, Dst, Src, 8), 0x0006u);
}

TEST_P(AshTest, IntegrationWins) {
  // Table 4's shape: separate > C integrated > ASH in cycles.
  const uint32_t Bytes = 16 * 1024;
  VCODE_SEEDED(99);
  SimAddr Src = makeBuffer(Bytes, TestSeed);
  SimAddr Dst = B.Mem->alloc(Bytes, 8);

  SeparateLoops Sep(*B.Tgt, *B.Mem, CopyCksumSwap);
  IntegratedLoop Intg(*B.Tgt, *B.Mem, CopyCksumSwap);
  Pipeline Ash(*B.Tgt, *B.Mem);
  for (Step S : CopyCksumSwap)
    Ash.addStep(S);
  Ash.compile(4);

  uint64_t SepCycles = 0;
  Sep.run(*B.Cpu, Dst, Src, Bytes, &SepCycles); // warm
  Sep.run(*B.Cpu, Dst, Src, Bytes, &SepCycles);
  Intg.run(*B.Cpu, Dst, Src, Bytes);
  Intg.run(*B.Cpu, Dst, Src, Bytes);
  uint64_t IntgCycles = B.Cpu->lastStats().Cycles;
  Ash.run(*B.Cpu, Dst, Src, Bytes);
  Ash.run(*B.Cpu, Dst, Src, Bytes);
  uint64_t AshCycles = B.Cpu->lastStats().Cycles;

  EXPECT_LT(IntgCycles, SepCycles);
  EXPECT_LT(AshCycles, IntgCycles);
}

TEST_P(AshTest, XorKeyIsSpecializedIntoTheCode) {
  // Two pipelines with different keys produce different data; each
  // matches the reference for its own key (the key lives in the
  // instruction stream, not in a parameter register).
  const uint32_t Bytes = 256;
  VCODE_SEEDED(3);
  SimAddr Src = makeBuffer(Bytes, TestSeed);
  std::vector<Step> Steps = {Step::Xor, Step::Copy, Step::Checksum};

  for (uint32_t Key : {0x00000000u, 0xffffffffu, 0x12345678u}) {
    Pipeline P(*B.Tgt, *B.Mem);
    for (Step S : Steps)
      P.addStep(S);
    P.setXorKey(Key);
    P.compile(4);

    SimAddr Dst = B.Mem->alloc(Bytes, 8);
    SimAddr RefDst = B.Mem->alloc(Bytes, 8);
    uint32_t Want = refRun(Steps, *B.Mem, RefDst, Src, Bytes, Key);
    EXPECT_EQ(P.run(*B.Cpu, Dst, Src, Bytes), Want) << std::hex << Key;
    EXPECT_TRUE(dstMatches(Dst, RefDst, Bytes)) << std::hex << Key;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, AshTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
