//===- tests/SimTest.cpp - Simulator substrate tests ---------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Unit tests for the machine substrate that stands in for the paper's
// DECstations: memory arena bounds, allocation and lazy backing, the
// direct-mapped cache model (the mechanism behind Table 4's cached/uncached
// rows), the cycle cost model (the mechanism behind every µs the benches
// report) with its golden totals, the interpreters' shared alignment rule,
// and the SPARC and Alpha decode tables against their interpreters.
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"
#include "TestUtil.h"
#include "alpha/AlphaEncoding.h"
#include "mips/MipsEncoding.h"
#include "sparc/SparcEncoding.h"
#include "sim/Cache.h"
#include "support/Error.h"
#include "support/Rng.h"
#include <fstream>
#include <gtest/gtest.h>
#include <string>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

/// Unwinds every fatal as a CgAbort so a test can read the error kind.
struct ThrowingHandler : ErrorHandler {
  [[noreturn]] void handle(const CgError &E) override { throw CgAbort(E); }
};

/// Calls \p Fn on \p Cpu with \p Args; the kind of error it raised, or
/// CgErrKind::None.
CgErrKind runKind(sim::Cpu &Cpu, SimAddr Fn,
                  std::initializer_list<TypedValue> Args) {
  ThrowingHandler H;
  ErrorHandlerScope Scope(H);
  try {
    Cpu.call(Fn, Args, Type::I);
  } catch (const CgAbort &E) {
    return E.error().Kind;
  }
  return CgErrKind::None;
}

/// \p Name's machine over a 1 MiB arena at 0x10000000 with a 4 KiB stack.
Substrate smallSubstrate(const char *Name) {
  return makeSubstrate(
      Name, std::make_unique<sim::Memory>(1 << 20, 0x10000000, 4096));
}

/// Every Opc is reachable: the word built from its table row decodes back
/// to it (no two rows claim one encoding).
TEST(SparcDecodeTest, RepresentativeWordsRoundTrip) {
  for (unsigned I = 0; I < sparc::NumOpcs; ++I) {
    sparc::Opc Op = sparc::Opc(I);
    uint32_t W = sparcRepresentativeWord(Op);
    EXPECT_EQ(sparc::decode(W).Op, Op)
        << sparc::info(Op).Mnemonic << " 0x" << std::hex << W;
  }
}

TEST(AlphaDecodeTest, RepresentativeWordsRoundTrip) {
  for (unsigned I = 0; I < alpha::NumOpcs; ++I) {
    alpha::Opc Op = alpha::Opc(I);
    uint32_t W = alphaRepresentativeWord(Op);
    EXPECT_EQ(alpha::decode(W).Op, Op)
        << alpha::info(Op).Mnemonic << " 0x" << std::hex << W;
  }
}

/// The interpreter half of "executes exactly what disassembles
/// symbolically": the representative word of every sparc::Opc runs
/// without a fault, and words that decode to Invalid raise a SimFault.
/// The word sits in "or %g0, %o7, %o5; W; nop; jmpl %o5 + 8, %g0; nop",
/// so a call or a branch (+2 words) lands on the return, and it runs with
/// %o0 = an 8-byte-aligned buffer and %o4 = 8.
TEST(SparcDecodeTest, EveryOpcExecutesAndInvalidFaults) {
  Substrate S = smallSubstrate("sparc");
  sim::Memory &Mem = *S.Mem;
  SimAddr Code = Mem.alloc(32, 8), Data = Mem.alloc(64, 8);
  auto Run = [&](uint32_t W) {
    using namespace sparc;
    const uint32_t Fn[] = {encode<Opc::Or>(O5, G0, O7), W, Nop,
                           encode<Opc::Jmpl>(G0, O5, Simm13{8}), Nop};
    for (unsigned I = 0; I < 5; ++I)
      Mem.write<uint32_t>(Code + 4 * I, Fn[I]);
    return runKind(*S.Cpu, Code,
                   {TypedValue::fromPtr(Data), TypedValue::fromInt(0),
                    TypedValue::fromInt(0), TypedValue::fromInt(0),
                    TypedValue::fromInt(8)});
  };
  for (unsigned I = 1; I < sparc::NumOpcs; ++I) {
    uint32_t W = sparcRepresentativeWord(sparc::Opc(I));
    EXPECT_EQ(Run(W), CgErrKind::None)
        << sparc::info(sparc::Opc(I)).Mnemonic << " 0x" << std::hex << W;
  }
  // An annulled bne, memory op3 0x3f, FPop opf 0 and format-2 op2 0.
  for (uint32_t W : {sparcRepresentativeWord(sparc::Opc::Invalid),
                     0xc1f80000u, 0x81a00000u, 0x00000001u}) {
    ASSERT_EQ(sparc::decode(W).Op, sparc::Opc::Invalid);
    EXPECT_EQ(Run(W), CgErrKind::SimFault) << "0x" << std::hex << W;
  }
}

/// jmpl reads its target before it writes the link register, so
/// "jmpl %o7 + 8, %o7" returns to the caller: %o7 still holds the caller's
/// link when the target is formed.
TEST(SparcDecodeTest, JmplReadsTargetBeforeLinking) {
  Substrate S = smallSubstrate("sparc");
  sim::Memory &Mem = *S.Mem;
  SimAddr Code = Mem.alloc(16, 8);
  using namespace sparc;
  const uint32_t Fn[] = {encode<Opc::Jmpl>(O7, O7, Simm13{8}),
                         encode<Opc::Or>(O0, G0, Simm13{7}),
                         encode<Opc::Or>(O0, G0, Simm13{9}),
                         encode<Opc::Jmpl>(G0, O7, Simm13{8})};
  for (unsigned I = 0; I < 4; ++I)
    Mem.write<uint32_t>(Code + 4 * I, Fn[I]);
  S.Cpu->setInstrLimit(100);
  EXPECT_EQ(S.Cpu->call(Code, {}, Type::I).asInt32(), 7);
}

/// The same for Alpha. The word sits in "W; ret; ret", so a branch (+1
/// word) lands on a return, and it runs with a0 = 5 and a1 = an
/// 8-byte-aligned buffer.
TEST(AlphaDecodeTest, EveryOpcExecutesAndInvalidFaults) {
  Substrate S = smallSubstrate("alpha");
  sim::Memory &Mem = *S.Mem;
  SimAddr Code = Mem.alloc(16, 8), Data = Mem.alloc(64, 8);
  auto Run = [&](uint32_t W) {
    const uint32_t Ret = encode<alpha::Opc::Ret>(alpha::ZERO, alpha::RA);
    Mem.write<uint32_t>(Code, W);
    Mem.write<uint32_t>(Code + 4, Ret);
    Mem.write<uint32_t>(Code + 8, Ret);
    return runKind(*S.Cpu, Code,
                   {TypedValue::fromInt(5), TypedValue::fromPtr(Data)});
  };
  for (unsigned I = 1; I < alpha::NumOpcs; ++I) {
    uint32_t W = alphaRepresentativeWord(alpha::Opc(I));
    EXPECT_EQ(Run(W), CgErrKind::None)
        << alpha::info(alpha::Opc(I)).Mnemonic << " 0x" << std::hex << W;
  }
  // Opcode 0x01, addq's group with function 0x7f, and sqrtt with a
  // rounding qualifier the table does not list.
  for (uint32_t W : {alphaRepresentativeWord(alpha::Opc::Invalid),
                     encode<alpha::Opc::Addq>(3, 1, 2) | (0x7fu << 5),
                     encode<alpha::Opc::Sqrtt>(3, 2) | (0x400u << 5)}) {
    ASSERT_EQ(alpha::decode(W).Op, alpha::Opc::Invalid);
    EXPECT_EQ(Run(W), CgErrKind::SimFault) << "0x" << std::hex << W;
  }
}

TEST(MemoryArena, AllocationAndBounds) {
  sim::Memory M(1 << 20, /*Base=*/0x40000000, /*StackBytes=*/4096);
  EXPECT_EQ(M.base(), 0x40000000u);
  SimAddr A = M.alloc(100, 16);
  EXPECT_EQ(A % 16, 0u);
  SimAddr B = M.alloc(8, 8);
  EXPECT_GE(B, A + 100);
  M.write<uint32_t>(A, 0xdeadbeef);
  EXPECT_EQ(M.read<uint32_t>(A), 0xdeadbeefu);
  EXPECT_TRUE(M.contains(A, 100));
  EXPECT_FALSE(M.contains(M.base() - 4, 4));
  EXPECT_FALSE(M.contains(M.base() + (1 << 20), 4));
}

TEST(MemoryArena, MarkAndRelease) {
  sim::Memory M(1 << 20, 0x10000000, 4096);
  SimAddr Mark = M.mark();
  SimAddr A = M.alloc(512);
  M.release(Mark);
  SimAddr B = M.alloc(512);
  EXPECT_EQ(A, B) << "release must recycle the arena";
}

TEST(MemoryArena, OutOfMemoryIsFatal) {
  sim::Memory M(1 << 20, 0x10000000, 4096);
  EXPECT_DEATH((void)M.alloc(2 << 20), "exhausted");
}

TEST(MemoryArena, ContainsIsOverflowSafe) {
  // A wild guest address near the top of the address space must not wrap
  // A + Len around zero and pass the bounds check.
  sim::Memory M(1 << 20, 0x10000000, 4096);
  EXPECT_FALSE(M.contains(~SimAddr(0) - 8, 0x100));
  EXPECT_FALSE(M.contains(0xFFFFFFFFFFFFFFF0ull, 0x100));
  EXPECT_FALSE(M.contains(0x10000000, ~size_t(0)));
  EXPECT_FALSE(M.contains(0x10000000 + (1 << 20) - 4, 8));
  EXPECT_TRUE(M.contains(0x10000000, 1 << 20));
  EXPECT_TRUE(M.contains(0x10000000 + (1 << 20) - 4, 4));
}

// The code stamp of a range moves exactly when beginWrite, publish or
// release touches one of its pages; a native arena keeps no page table and
// stamps with the arena-wide generation.
TEST(MemoryArena, CodeStampFollowsTouchedPages) {
  sim::Memory M(1 << 20, 0x10000000, 4096);
  const SimAddr P0 = M.base(), P1 = P0 + 4096, P2 = P1 + 4096;
  uint64_t S0 = M.codeStamp(P0, P0 + 8), S1 = M.codeStamp(P1, P1 + 8);
  uint64_t Gen = M.codeGeneration();

  M.beginWrite(P1 + 16, 32);
  M.publish(P1 + 16, 32);
  EXPECT_EQ(M.codeGeneration(), Gen + 2);
  EXPECT_EQ(M.codeStamp(P0, P0 + 8), S0) << "untouched page moved";
  EXPECT_EQ(M.codeStamp(P1, P1 + 8), S1 + 2);
  // A range's stamp sums its pages; ranges outside the arena count zero.
  EXPECT_EQ(M.codeStamp(P0, P1 + 1), S0 + S1 + 2);
  EXPECT_EQ(M.codeStamp(P0 - 64, P0), 0u);

  // A write straddling a page boundary moves both pages.
  M.beginWrite(P2 - 8, 16);
  EXPECT_EQ(M.codeStamp(P1, P1 + 8), S1 + 3);
  EXPECT_EQ(M.codeStamp(P2, P2 + 8), 1u);

  // release() moves every page from the mark to the old break, and only
  // those.
  M.alloc(3 * 4096);
  SimAddr Mark = M.mark();
  M.alloc(3 * 4096);
  uint64_t Before = M.codeStamp(Mark, Mark + 3 * 4096);
  M.release(Mark);
  EXPECT_GT(M.codeStamp(Mark, Mark + 3 * 4096), Before);
  EXPECT_EQ(M.codeStamp(P0, P0 + 8), S0);

#ifdef VCODE_HAVE_MMAP
  sim::Memory N(sim::Memory::Native, 1 << 20, 4096);
  CodeMem CM = N.allocCode(64);
  N.beginWrite(CM.Guest, CM.Size);
  N.publish(CM.Guest, CM.Size);
  EXPECT_EQ(N.codeStamp(CM.Guest, CM.Guest + 8), N.codeGeneration());
#endif
}

/// This process's resident set in KiB (VmRSS), or -1 where
/// /proc/self/status does not report it.
long residentKiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::stol(Line.substr(6));
  return -1;
}

// An arena costs memory only for the pages it touches: constructing the
// default 64 MiB simulated arena and writing one word must not make the
// whole arena resident.
TEST(MemoryArena, SimulatedArenaIsLazy) {
  long Before = residentKiB();
  if (Before < 0)
    GTEST_SKIP() << "VmRSS is not reported in /proc/self/status here";
  sim::Memory M(64 << 20);
  SimAddr A = M.base() + (32 << 20);
  M.write<uint32_t>(A, 0xdeadbeef);
  long Grew = residentKiB() - Before;
  EXPECT_EQ(M.read<uint32_t>(A), 0xdeadbeefu);
  EXPECT_LT(Grew, 4 * 1024) << "a 64 MiB arena made " << Grew
                            << " KiB resident";
}

TEST(CacheModel, NonPowerOfTwoSizeRoundsDown) {
  // The index mask requires a power-of-two line count: a 48KB request
  // models a 32KB cache rather than indexing out of the tag array.
  sim::Cache C;
  C.configure(48 * 1024, 16);
  EXPECT_TRUE(C.configured());
  EXPECT_FALSE(C.access(0x1000)); // cold
  EXPECT_TRUE(C.access(0x1000));  // hit
  // Direct-mapped 32KB: +32KB conflicts and evicts...
  EXPECT_FALSE(C.access(0x1000 + 32 * 1024));
  EXPECT_FALSE(C.access(0x1000));
  // ...and every line index stays in range (would be OOB with 3072 lines).
  for (SimAddr A = 0; A < 64 * 1024; A += 16)
    C.access(A);
}

TEST(CacheModel, UnconfiguredCacheIsInert) {
  // No model: every access hits, warm/flush are no-ops. (Previously this
  // masked an empty tag vector with 0xFFFFFFFF and read out of bounds.)
  sim::Cache C;
  EXPECT_FALSE(C.configured());
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_TRUE(C.access(0));
  C.warm(0x2000, 256);
  C.flush();
  EXPECT_TRUE(C.access(0x1000));
  // A request smaller than one line is also degenerate: no cache.
  sim::Cache D;
  D.configure(/*Bytes=*/8, /*LineBytes=*/16);
  EXPECT_FALSE(D.configured());
  EXPECT_TRUE(D.access(0x1000));
}

TEST(CacheModel, HitsAndMisses) {
  sim::Cache C;
  C.configure(/*Bytes=*/1024, /*LineBytes=*/16);
  EXPECT_FALSE(C.access(0x1000)); // cold
  EXPECT_TRUE(C.access(0x1000));  // hit
  EXPECT_TRUE(C.access(0x100c));  // same line
  EXPECT_FALSE(C.access(0x1010)); // next line
  // 1024-byte direct-mapped: +1024 conflicts.
  EXPECT_FALSE(C.access(0x1000 + 1024));
  EXPECT_FALSE(C.access(0x1000)); // evicted
  C.flush();
  EXPECT_FALSE(C.access(0x1010));
}

TEST(CacheModel, WarmPreloadsRange) {
  sim::Cache C;
  C.configure(4096, 16);
  C.warm(0x2000, 256);
  for (SimAddr A = 0x2000; A < 0x2100; A += 4)
    EXPECT_TRUE(C.access(A)) << std::hex << A;
}

class SimCostTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

TEST_P(SimCostTest, CycleAccountingBasics) {
  // n dependent adds cost ~n cycles (plus fixed call scaffolding).
  auto Build = [&](int N) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(1 << 16));
    for (int I = 0; I < N; ++I)
      V.addii(Arg[0], Arg[0], 1);
    V.reti(Arg[0]);
    return V.end();
  };
  CodePtr F100 = Build(100), F1100 = Build(1100);
  B.Cpu->call(F100.Entry, {TypedValue::fromInt(0)});
  B.Cpu->call(F100.Entry, {TypedValue::fromInt(0)}); // warm icache
  uint64_t C100 = B.Cpu->lastStats().Cycles;
  B.Cpu->call(F1100.Entry, {TypedValue::fromInt(0)});
  B.Cpu->call(F1100.Entry, {TypedValue::fromInt(0)});
  uint64_t C1100 = B.Cpu->lastStats().Cycles;
  // The marginal 1000 adds cost exactly 1000 cycles when warm.
  EXPECT_EQ(C1100 - C100, 1000u);
  EXPECT_EQ(B.Cpu->lastStats().Instrs, 1100u + 2);
}

TEST_P(SimCostTest, CacheMissesAreCharged) {
  // Summing a 32KB array: cold run must cost substantially more than a
  // warm run, by roughly misses * penalty.
  const uint32_t Bytes = 32 * 1024;
  SimAddr Buf = B.Mem->alloc(Bytes, 16);
  VCode V(*B.Tgt);
  Reg Arg[2];
  V.lambda("%p%u", Arg, LeafHint, B.Mem->allocCode(8192));
  Reg Sum = V.getreg(Type::U), T = V.getreg(Type::U), End = V.getreg(Type::P);
  V.setu(Sum, 0);
  V.addp(End, Arg[0], Arg[1]);
  Label Loop = V.genLabel(), Done = V.genLabel();
  V.label(Loop);
  V.bgep(Arg[0], End, Done);
  V.ldui(T, Arg[0], 0);
  V.addu(Sum, Sum, T);
  V.addpi(Arg[0], Arg[0], 4);
  V.jmp(Loop);
  V.label(Done);
  V.retu(Sum);
  CodePtr Fn = V.end();

  auto Run = [&] {
    B.Cpu->call(Fn.Entry,
                {TypedValue::fromPtr(Buf), TypedValue::fromUInt(Bytes)},
                Type::U);
    return B.Cpu->lastStats();
  };
  B.Cpu->flushCaches();
  sim::RunStats Cold = Run();
  sim::RunStats Warm = Run(); // dcache bigger than the buffer: now warm
  EXPECT_GT(Cold.DCacheMisses, Bytes / 16 - 10); // one miss per 16B line
  EXPECT_LT(Warm.DCacheMisses, 32u);
  uint64_t Penalty = B.Cpu->config().MissPenalty;
  EXPECT_NEAR(double(Cold.Cycles - Warm.Cycles),
              double((Cold.DCacheMisses - Warm.DCacheMisses) * Penalty),
              double(Penalty * 300));
}

TEST_P(SimCostTest, MultiplyLatencyCharged) {
  auto Build = [&](bool Mul) {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(8192));
    Reg T = V.getreg(Type::I);
    V.movi(T, Arg[0]);
    for (int I = 0; I < 10; ++I) {
      if (Mul)
        V.muli(T, T, Arg[0]);
      else
        V.addi(T, T, Arg[0]);
    }
    V.reti(T);
    return V.end();
  };
  CodePtr FM = Build(true), FA = Build(false);
  auto Cycles = [&](CodePtr &P) {
    B.Cpu->call(P.Entry, {TypedValue::fromInt(3)});
    B.Cpu->call(P.Entry, {TypedValue::fromInt(3)});
    return B.Cpu->lastStats().Cycles;
  };
  uint64_t CM = Cycles(FM), CA = Cycles(FA);
  // Ten multiplies must cost at least 10 * (MulCycles) more than adds
  // (the alpha divides count differently; multiplies are uniform).
  EXPECT_GE(CM - CA, uint64_t(10 * B.Cpu->config().MulCycles - 20));
}

TEST_P(SimCostTest, StatsResetPerCall) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(4096));
  V.reti(Arg[0]);
  CodePtr Fn = V.end();
  B.Cpu->call(Fn.Entry, {TypedValue::fromInt(1)});
  uint64_t First = B.Cpu->lastStats().Instrs;
  B.Cpu->call(Fn.Entry, {TypedValue::fromInt(1)});
  EXPECT_EQ(B.Cpu->lastStats().Instrs, First)
      << "stats must not accumulate across calls";
}

TEST_P(SimCostTest, CumulativeStatsAggregateAcrossCalls) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(4096));
  V.addii(Arg[0], Arg[0], 1);
  V.reti(Arg[0]);
  CodePtr Fn = V.end();

  B.Cpu->resetCumulativeStats();
  sim::RunStats Sum;
  for (int I = 0; I < 3; ++I) {
    B.Cpu->call(Fn.Entry, {TypedValue::fromInt(I)});
    Sum.accumulate(B.Cpu->lastStats());
  }
  const sim::RunStats &Cum = B.Cpu->cumulativeStats();
  EXPECT_EQ(Cum.Instrs, Sum.Instrs);
  EXPECT_EQ(Cum.Cycles, Sum.Cycles);
  EXPECT_EQ(Cum.ICacheMisses, Sum.ICacheMisses);
  EXPECT_EQ(Cum.DCacheMisses, Sum.DCacheMisses);
  EXPECT_EQ(Cum.LoadStalls, Sum.LoadStalls);
  EXPECT_GT(Cum.Instrs, B.Cpu->lastStats().Instrs)
      << "three calls must sum to more than one";

  B.Cpu->resetCumulativeStats();
  EXPECT_EQ(B.Cpu->cumulativeStats().Instrs, 0u)
      << "reset must not disturb lastStats but must zero the cumulative view";
  EXPECT_EQ(B.Cpu->lastStats().Instrs, Sum.Instrs / 3);
}

/// FNV-1a over 64-bit words: one hash of everything a corpus computed.
struct WordHash {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t W) {
    for (unsigned I = 0; I < 8; ++I)
      H = (H ^ ((W >> (8 * I)) & 0xff)) * 0x100000001b3ull;
  }
};

/// Golden cost accounting. A fixed-seed corpus runs on each simulator
/// from flushed caches: 48 tests/StreamGen.h programs, a call whose
/// mixed int/float/double arguments overflow every argument register
/// list, and one integer and one float return read back at several
/// widths. One hash covers every result and the memory each call wrote;
/// the cumulative stats must equal the values recorded when the test was
/// written. The cost model (I/D miss penalties, the load-use interlock,
/// multiply and FP latencies) fixes every simulated number Tables 3 and 4
/// print, so a change to it, or to argument placement, shows here first.
TEST_P(SimCostTest, GoldenCorpusCostAccounting) {
  struct Golden {
    const char *Target;
    uint64_t Hash, Instrs, Cycles, IMisses, DMisses, LoadStalls;
  };
  const Golden Want[] = {
      {"mips", 0xa08b34398cf6a9e1, 4614, 29663, 1363, 245, 49},
      {"sparc", 0xa08b34398cf6a9e1, 4853, 30768, 1425, 244, 0},
      {"alpha", 0x1d15a20c40c5e7d6, 4403, 29451, 1292, 320, 0},
  };
  const unsigned WB = B.Tgt->info().WordBytes;
  const Type StreamTypes[] = {Type::I, Type::U, Type::L, Type::UL};
  Rng R(0x5eedc057);
  WordHash H;
  B.Cpu->flushCaches();
  B.Cpu->resetCumulativeStats();

  for (unsigned Pn = 0; Pn < 48; ++Pn) {
    Type Ty = StreamTypes[Pn % 4];
    std::vector<StreamInsn> Prog = makeStream(R, Ty, typeBits(Ty, WB));
    SimAddr Scratch = B.Mem->alloc(StreamScratchSlots * 8, 8);
    SimAddr Out = B.Mem->alloc(StreamSlots * 8, 8);
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      B.Mem->write<uint64_t>(Scratch + 8 * I, 0);
    VCode V(*B.Tgt);
    CodePtr Fn =
        emitStream(V, Prog, Ty, B.Mem->allocCode(8192), Scratch, Out);
    ASSERT_TRUE(Fn.isValid());
    std::vector<TypedValue> Args;
    for (unsigned I = 0; I < StreamSlots; ++I)
      Args.push_back(TypedValue::fromUInt(R.next(), Type::UL));
    B.Cpu->call(Fn.Entry, Args, Type::V);
    for (unsigned I = 0; I < StreamSlots; ++I)
      H.add(B.Mem->read<uint64_t>(Out + 8 * I));
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      H.add(B.Mem->read<uint64_t>(Scratch + 8 * I));
  }

  // Every argument is stored to its own 8-byte cell.
  const Type ArgTys[] = {Type::I, Type::F, Type::D, Type::U, Type::F,
                         Type::D, Type::I, Type::F, Type::D, Type::U,
                         Type::F, Type::D};
  constexpr unsigned NumArgs = sizeof(ArgTys) / sizeof(ArgTys[0]);
  SimAddr Cells = B.Mem->alloc(8 * NumArgs, 8);
  for (unsigned I = 0; I < NumArgs; ++I)
    B.Mem->write<uint64_t>(Cells + 8 * I, 0);
  {
    std::string Sig;
    for (Type T : ArgTys)
      Sig += T == Type::I ? "%i" : T == Type::U ? "%u" : T == Type::F ? "%f"
                                                                       : "%d";
    VCode V(*B.Tgt);
    Reg Arg[NumArgs];
    V.lambda(Sig.c_str(), Arg, LeafHint, B.Mem->allocCode(8192));
    Reg Ptr = V.getreg(Type::P);
    ASSERT_TRUE(Ptr.isValid());
    V.setp(Ptr, Cells);
    for (unsigned I = 0; I < NumArgs; ++I)
      V.storeImm(ArgTys[I], Arg[I], Ptr, 8 * I);
    V.retv();
    CodePtr Fn = V.end();
    ASSERT_TRUE(Fn.isValid());
    std::vector<TypedValue> Args;
    for (unsigned I = 0; I < NumArgs; ++I) {
      uint64_t Bits = R.next();
      switch (ArgTys[I]) {
      case Type::F:
        Args.push_back(TypedValue::fromFloat(float(int32_t(Bits)) / 7.0f));
        break;
      case Type::D:
        Args.push_back(TypedValue::fromDouble(double(int64_t(Bits)) / 3.0));
        break;
      default:
        Args.push_back(TypedValue{ArgTys[I], Bits});
      }
    }
    B.Cpu->call(Fn.Entry, Args, Type::V);
    for (unsigned I = 0; I < NumArgs; ++I)
      H.add(B.Mem->read<uint64_t>(Cells + 8 * I));
  }

  // Returns: one int result read at every integer width, one float.
  {
    VCode V(*B.Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(4096));
    V.addii(Arg[0], Arg[0], -3);
    V.reti(Arg[0]);
    CodePtr Fn = V.end();
    for (Type RetTy : {Type::I, Type::U, Type::L, Type::UL, Type::P})
      H.add(B.Cpu->call(Fn.Entry, {TypedValue::fromInt(1)}, RetTy).Bits);
  }
  {
    VCode V(*B.Tgt);
    Reg Arg[2];
    V.lambda("%f%f", Arg, LeafHint, B.Mem->allocCode(4096));
    V.mulf(Arg[0], Arg[0], Arg[1]);
    V.retf(Arg[0]);
    CodePtr Fn = V.end();
    H.add(B.Cpu
              ->call(Fn.Entry,
                     {TypedValue::fromFloat(1.5f), TypedValue::fromFloat(-3.25f)},
                     Type::F)
              .Bits);
  }

  const sim::RunStats &S = B.Cpu->cumulativeStats();
  const Golden *G = nullptr;
  for (const Golden &Row : Want)
    if (GetParam() == Row.Target)
      G = &Row;
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(H.H, G->Hash) << std::hex << "hash 0x" << H.H;
  EXPECT_EQ(S.Instrs, G->Instrs);
  EXPECT_EQ(S.Cycles, G->Cycles);
  EXPECT_EQ(S.ICacheMisses, G->IMisses);
  EXPECT_EQ(S.DCacheMisses, G->DMisses);
  EXPECT_EQ(S.LoadStalls, G->LoadStalls);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, SimCostTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

class SimAlignTest : public SimCostTest {};

/// One natural-alignment rule on every simulator: a halfword, word or
/// (Alpha) quadword load or store faults at each misaligned offset and
/// runs at the aligned one. The access is the first instruction of a
/// function and reads its address from the first argument register.
TEST_P(SimAlignTest, MisalignedLoadsAndStoresFault) {
  struct Access {
    const char *Name;
    uint32_t Word;
    unsigned Bytes;
  };
  std::vector<Access> Accesses;
  std::vector<uint32_t> Ret;
  if (GetParam() == "mips") {
    using namespace mips;
    Accesses = {{"lh", encode<Opc::Lh>(2, A0, 0), 2},
                {"lhu", encode<Opc::Lhu>(2, A0, 0), 2},
                {"sh", encode<Opc::Sh>(2, A0, 0), 2},
                {"lw", encode<Opc::Lw>(2, A0, 0), 4},
                {"sw", encode<Opc::Sw>(2, A0, 0), 4}};
    Ret = {encode<Opc::Jr>(RA), Nop};
  } else if (GetParam() == "sparc") {
    using namespace sparc;
    Accesses = {{"lduh", encode<Opc::Lduh>(O1, O0, Simm13{0}), 2},
                {"ldsh", encode<Opc::Ldsh>(O1, O0, Simm13{0}), 2},
                {"sth", encode<Opc::Sth>(O1, O0, Simm13{0}), 2},
                {"ld", encode<Opc::Ld>(O1, O0, Simm13{0}), 4},
                {"st", encode<Opc::St>(O1, O0, Simm13{0}), 4}};
    Ret = {encode<Opc::Jmpl>(G0, O7, Simm13{8}), Nop};
  } else {
    using namespace alpha;
    Accesses = {{"ldl", encode<Opc::Ldl>(1, A0, 0), 4},
                {"stl", encode<Opc::Stl>(1, A0, 0), 4},
                {"ldq", encode<Opc::Ldq>(1, A0, 0), 8},
                {"stq", encode<Opc::Stq>(1, A0, 0), 8}};
    Ret = {encode<Opc::Ret>(ZERO, RA)};
  }
  SimAddr Code = B.Mem->alloc(16, 8), Buf = B.Mem->alloc(16, 8);
  for (size_t I = 0; I < Ret.size(); ++I)
    B.Mem->write<uint32_t>(Code + 4 * (I + 1), Ret[I]);
  for (const Access &A : Accesses) {
    B.Mem->write<uint32_t>(Code, A.Word);
    for (unsigned Off = 0; Off < A.Bytes; ++Off)
      EXPECT_EQ(runKind(*B.Cpu, Code, {TypedValue::fromPtr(Buf + Off)}),
                Off ? CgErrKind::SimFault : CgErrKind::None)
          << A.Name << " at offset " << Off;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, SimAlignTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
