//===- tests/RandomStreamTest.cpp - Random VCODE stream fuzzing -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Randomized differential testing one level up from DifferentialTest's
// straight-line programs: the generator draws random *legal* VCODE streams
// that also exercise control flow (forward guarded blocks), memory traffic
// (loads/stores to a scratch buffer), and mid-stream conversions, then
// executes the generated machine code on every target's simulator and
// cross-checks both register and memory state against a direct host-side
// evaluation of the same stream. The corpus is fixed (seeds derive from
// stable salts through tests/TestUtil's plumbing) so ctest runs the same
// programs every time; every case is wrapped in VCODE_SEEDED, so a failure
// prints its seed and the VCODE_TEST_SEED setting that reproduces it, and
// exporting VCODE_TEST_SEED re-seeds the whole corpus for exploration.
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"
#include "TestUtil.h"
#include "support/Rng.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

/// Parameter: (target name, corpus chunk).
class RandomStreamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
protected:
  void SetUp() override {
    B = makeSubstrate(std::get<0>(GetParam()));
    WB = B.Tgt->info().WordBytes;
  }
  Substrate B;
  unsigned WB = 4;
};

TEST_P(RandomStreamTest, MatchesHostEvaluation) {
  const Type StreamTypes[] = {Type::I, Type::U, Type::L, Type::UL};
  const unsigned Chunk = unsigned(std::get<1>(GetParam()));

  for (unsigned Pn = 0; Pn < StreamProgsPerChunk; ++Pn) {
    unsigned Index = Chunk * StreamProgsPerChunk + Pn;
    VCODE_SEEDED(Index * 6151 + 101);
    Type Ty = StreamTypes[Index % 4];
    Rng R(TestSeed);
    std::vector<StreamInsn> Prog = makeStream(R, Ty, typeBits(Ty, WB));

    // Initial register and scratch state.
    std::vector<uint64_t> Init(StreamSlots), Slot(StreamSlots);
    for (unsigned I = 0; I < StreamSlots; ++I) {
      Init[I] = canonicalize(Type::UL, R.next(), WB);
      Slot[I] = canonicalize(Ty, Init[I], WB);
    }
    std::vector<uint64_t> Scratch(StreamScratchSlots, 0);

    SimAddr ScratchMem = B.Mem->alloc(StreamScratchSlots * 8, 8);
    SimAddr Out = B.Mem->alloc(StreamSlots * 8, 8);
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      B.Mem->write<uint64_t>(ScratchMem + 8 * I, 0);

    VCode V(*B.Tgt);
    CodePtr Fn = emitStream(V, Prog, Ty, B.Mem->allocCode(1 << 16),
                            ScratchMem, Out);
    ASSERT_TRUE(Fn.isValid());

    std::vector<TypedValue> Args;
    for (uint64_t I : Init)
      Args.push_back(TypedValue::fromUInt(I, Type::UL));
    B.Cpu->call(Fn.Entry, Args, Type::V);

    evalHost(Prog, Ty, Slot, Scratch, WB);

    // Register state: slots leave as UL through Out.
    for (unsigned I = 0; I < StreamSlots; ++I) {
      uint64_t Got = B.Mem->read<uint64_t>(Out + 8 * I);
      if (WB == 4)
        Got &= 0xffffffffu;
      uint64_t Want = canonicalize(Type::UL, Slot[I], WB);
      if (Ty == Type::U && WB == 8)
        Want &= 0xffffffffu; // cvu2ul zero-extends
      ASSERT_EQ(Got, Want) << "program " << Index << " slot " << I
                           << " type " << typeName(Ty);
    }
    // Memory state: scratch cells hold the raw truncated store image.
    unsigned Size = typeSize(Ty, WB);
    for (unsigned I = 0; I < StreamScratchSlots; ++I) {
      uint64_t Got = Size == 8 ? B.Mem->read<uint64_t>(ScratchMem + 8 * I)
                               : B.Mem->read<uint32_t>(ScratchMem + 8 * I);
      uint64_t Want = Size == 8 ? Scratch[I] : uint32_t(Scratch[I]);
      ASSERT_EQ(Got, Want) << "program " << Index << " scratch cell " << I
                           << " type " << typeName(Ty);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RandomStreamTest,
    ::testing::Combine(::testing::ValuesIn(allTargetNames()),
                       ::testing::Range(0, int(StreamChunks))),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_chunk" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace
