//===- tests/DbtTest.cpp - Binary-translator differential suite -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// dbt::MipsTranslatingCpu must be architecturally indistinguishable from
// sim::MipsSim: every test here runs the same generated MIPS code on both
// and locks registers, memory, results, and the retired-instruction count
// bit for bit. Coverage comes from three directions — the RandomStream
// corpus (integer ALU + control flow + memory traffic), the DPF and ASH
// clients (real generated classifiers/pipelines, including jal/jr call
// trees), and targeted cases for floating point, stack-passed arguments,
// code invalidation when the guest regenerates a function mid-run (per
// page: a publish elsewhere keeps every translation), and the growth of
// a CPU's dispatch index. Two hammers share one TranslationEngine across
// threads while the guest keeps publishing new code, exercising
// concurrent translation-cache lookup/insert/invalidate (the CI TSan step
// runs them under ThreadSanitizer).
//
// On hosts without x86-64 + mmap the translator delegates whole calls to
// its embedded interpreter; the differential tests still run (they then
// compare the interpreter with itself) so the suite is portable.
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"
#include "TestUtil.h"
#include "ash/Ash.h"
#include "dbt/MipsRegion.h"
#include "dbt/MipsTranslatingCpu.h"
#include "dpf/Engines.h"
#include "mips/MipsDecode.h"
#include "support/Rng.h"
#include <atomic>
#include <cstdio>
#include <gtest/gtest.h>
#include <thread>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

/// Compares every piece of architectural state the two CPUs expose after
/// a run. Skipped (vacuously true) when the translator delegated the call.
void expectStateMatches(const sim::MipsSim &Ref,
                        const dbt::MipsTranslatingCpu &Dbt,
                        const std::string &What) {
  if (!Dbt.translating())
    return; // delegate mode: the interpreter *is* the reference
  sim::MipsSim::ArchState S;
  Ref.exportState(S);
  const dbt::GuestState &G = Dbt.guestState();
  for (unsigned I = 0; I < 32; ++I) {
    EXPECT_EQ(G.R[I], S.R[I]) << What << ": $" << I;
    EXPECT_EQ(G.FPR[I], S.FPR[I]) << What << ": $f" << I;
  }
  EXPECT_EQ(G.HI, S.HI) << What << ": HI";
  EXPECT_EQ(G.LO, S.LO) << What << ": LO";
  EXPECT_EQ(G.FpCond != 0, S.FpCond) << What << ": FpCond";
}

/// The dbt substrate and a reference interpreter over its arena.
struct DbtMachine {
  Substrate S = makeSubstrate("dbt");
  sim::Memory &Mem = *S.Mem;
  Target &Tgt = *S.Tgt;
  sim::MipsSim Ref{Mem};
  /// The substrate's CPU, whose guest state expectStateMatches reads.
  dbt::MipsTranslatingCpu &Dbt =
      static_cast<dbt::MipsTranslatingCpu &>(*S.Cpu);
};

class DbtTest : public ::testing::Test, protected DbtMachine {};

class DbtStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(DbtStreamTest, MatchesInterpreterOnRandomStreams) {
  const Type StreamTypes[] = {Type::I, Type::U, Type::L, Type::UL};
  const unsigned Chunk = unsigned(GetParam());

  for (unsigned Pn = 0; Pn < StreamProgsPerChunk; ++Pn) {
    unsigned Index = Chunk * StreamProgsPerChunk + Pn;
    VCODE_SEEDED(Index * 6151 + 101); // RandomStreamTest's corpus
    Type Ty = StreamTypes[Index % 4];
    Rng R(TestSeed);
    std::vector<StreamInsn> Prog = makeStream(R, Ty, typeBits(Ty, 4));

    DbtMachine M;
    sim::Memory &Mem = M.Mem;

    std::vector<uint64_t> Init(StreamSlots);
    for (unsigned I = 0; I < StreamSlots; ++I)
      Init[I] = canonicalize(Type::UL, R.next(), 4);

    SimAddr Scratch = Mem.alloc(StreamScratchSlots * 8, 8);
    SimAddr Out = Mem.alloc(StreamSlots * 8, 8);

    VCode V(M.Tgt);
    CodePtr Fn =
        emitStream(V, Prog, Ty, Mem.allocCode(1 << 16), Scratch, Out);
    ASSERT_TRUE(Fn.isValid());

    std::vector<TypedValue> Args;
    for (uint64_t I : Init)
      Args.push_back(TypedValue::fromUInt(I, Type::UL));

    // Reference run.
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      Mem.write<uint64_t>(Scratch + 8 * I, 0);
    M.Ref.call(Fn.Entry, Args, Type::V);
    std::vector<uint64_t> OutRef(StreamSlots), ScrRef(StreamScratchSlots);
    for (unsigned I = 0; I < StreamSlots; ++I)
      OutRef[I] = Mem.read<uint64_t>(Out + 8 * I);
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      ScrRef[I] = Mem.read<uint64_t>(Scratch + 8 * I);

    // Translated run over the same code and fresh scratch.
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      Mem.write<uint64_t>(Scratch + 8 * I, 0);
    M.Dbt.call(Fn.Entry, Args, Type::V);

    std::string What = "program " + std::to_string(Index);
    for (unsigned I = 0; I < StreamSlots; ++I)
      EXPECT_EQ(Mem.read<uint64_t>(Out + 8 * I), OutRef[I])
          << What << " out slot " << I;
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      EXPECT_EQ(Mem.read<uint64_t>(Scratch + 8 * I), ScrRef[I])
          << What << " scratch cell " << I;
    expectStateMatches(M.Ref, M.Dbt, What);
    EXPECT_EQ(M.Dbt.lastStats().Instrs, M.Ref.lastStats().Instrs) << What;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, DbtStreamTest,
                         ::testing::Range(0, int(StreamChunks)),
                         [](const auto &Info) {
                           return "chunk" + std::to_string(Info.param);
                         });

TEST_F(DbtTest, DpfClientsClassifyIdentically) {
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(10, 1024);
  dpf::DpfEngine Dpf(Tgt, Mem);
  dpf::MpfEngine Mpf(Tgt, Mem);
  Dpf.install(Filters);
  Mpf.install(Filters);

  SimAddr Msg = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  for (uint16_t Port : {1024, 1028, 1033, 1034, 1023, 80, 0, 65535}) {
    dpf::writeTcpPacket(Mem, Msg, Port);
    int WantDpf = Dpf.classify(Ref, Msg);
    uint64_t WantInstrs = Ref.lastStats().Instrs;
    EXPECT_EQ(Dpf.classify(Dbt, Msg), WantDpf) << "dpf port " << Port;
    EXPECT_EQ(Dbt.lastStats().Instrs, WantInstrs) << "dpf port " << Port;
    expectStateMatches(Ref, Dbt, "dpf port " + std::to_string(Port));

    int WantMpf = Mpf.classify(Ref, Msg);
    WantInstrs = Ref.lastStats().Instrs;
    EXPECT_EQ(Mpf.classify(Dbt, Msg), WantMpf) << "mpf port " << Port;
    EXPECT_EQ(Dbt.lastStats().Instrs, WantInstrs) << "mpf port " << Port;
  }
}

TEST_F(DbtTest, AshPipelineMatches) {
  const std::vector<ash::Step> Steps = {ash::Step::ByteSwap, ash::Step::Copy,
                                        ash::Step::Checksum};
  ash::Pipeline P(Tgt, Mem);
  for (ash::Step S : Steps)
    P.addStep(S);
  P.compile(4);

  for (uint32_t Bytes : {16u, 1000u, 4096u}) {
    VCODE_SEEDED(Bytes * 13 + 7);
    Rng R(TestSeed);
    SimAddr Src = Mem.alloc(Bytes, 8);
    for (uint32_t I = 0; I < Bytes; I += 4)
      Mem.write<uint32_t>(Src + I, uint32_t(R.next()));

    // Both runs use the same destination so pointer-carrying registers end
    // up identical; the reference output is snapshotted in between.
    SimAddr Dst = Mem.alloc(Bytes, 8);
    uint32_t SumRef = P.run(Ref, Dst, Src, Bytes);
    uint64_t WantInstrs = Ref.lastStats().Instrs;
    std::vector<uint32_t> WantDst(Bytes / 4);
    for (uint32_t I = 0; I < Bytes; I += 4)
      WantDst[I / 4] = Mem.read<uint32_t>(Dst + I);
    for (uint32_t I = 0; I < Bytes; I += 4)
      Mem.write<uint32_t>(Dst + I, 0xdeadbeef);
    uint32_t SumDbt = P.run(Dbt, Dst, Src, Bytes);

    EXPECT_EQ(SumDbt, SumRef) << Bytes << "B";
    EXPECT_EQ(Dbt.lastStats().Instrs, WantInstrs) << Bytes << "B";
    for (uint32_t I = 0; I < Bytes; I += 4)
      ASSERT_EQ(Mem.read<uint32_t>(Dst + I), WantDst[I / 4])
          << Bytes << "B at +" << I;
    expectStateMatches(Ref, Dbt, std::to_string(Bytes) + "B ash");
  }
}

TEST_F(DbtTest, FloatingPointMatches) {
  // d0*d1 + d0/d1 - sqrt-free mix ending in a compare-driven select, so
  // COP1 arithmetic, conversions, and bc1 all execute.
  VCode V(Tgt);
  Reg Arg[2];
  V.lambda("%d%d", Arg, LeafHint, Mem.allocCode(4096));
  Reg T0 = V.getreg(Type::D), T1 = V.getreg(Type::D);
  ASSERT_TRUE(T0.isValid() && T1.isValid());
  V.binop(BinOp::Mul, Type::D, T0, Arg[0], Arg[1]);
  V.binop(BinOp::Div, Type::D, T1, Arg[0], Arg[1]);
  V.binop(BinOp::Add, Type::D, T0, T0, T1);
  Label Ge = V.genLabel(), End = V.genLabel();
  V.branch(Cond::Ge, Type::D, T0, Arg[0], Ge);
  V.binop(BinOp::Sub, Type::D, T0, T0, Arg[0]);
  V.jmp(End);
  V.label(Ge);
  V.binop(BinOp::Add, Type::D, T0, T0, Arg[1]);
  V.label(End);
  V.ret(Type::D, T0);
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());

  const double Cases[][2] = {{1.5, 2.25},   {-3.0, 0.5},  {1e300, 1e-300},
                             {0.0, 1.0},    {-0.0, -1.0}, {1.0, 0.0},
                             {1e9, 3.1415}, {-1e-9, 7.0}};
  for (const double *C : Cases) {
    TypedValue A = TypedValue::fromDouble(C[0]);
    TypedValue B = TypedValue::fromDouble(C[1]);
    TypedValue RRef = Ref.call(Fn.Entry, {A, B}, Type::D);
    uint64_t WantInstrs = Ref.lastStats().Instrs;
    TypedValue RDbt = Dbt.call(Fn.Entry, {A, B}, Type::D);
    EXPECT_EQ(RDbt.Bits, RRef.Bits) << C[0] << ", " << C[1];
    EXPECT_EQ(Dbt.lastStats().Instrs, WantInstrs) << C[0] << ", " << C[1];
    expectStateMatches(Ref, Dbt, "fp case");
  }
}

TEST_F(DbtTest, StackPassedArgumentsMatch) {
  // Six integer arguments: MIPS passes four in $a0-$a3, two on the stack,
  // so the dispatcher's stack-slot marshalling is on the result path.
  VCode V(Tgt);
  Reg Arg[6];
  V.lambda("%i%i%i%i%i%i", Arg, LeafHint, Mem.allocCode(4096));
  for (int I = 1; I < 6; ++I)
    V.binop(BinOp::Add, Type::I, Arg[0], Arg[0], Arg[I]);
  V.binopImm(BinOp::Mul, Type::I, Arg[0], Arg[0], 3);
  V.ret(Type::I, Arg[0]);
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());

  std::vector<TypedValue> Args;
  for (int I = 1; I <= 6; ++I)
    Args.push_back(TypedValue::fromInt(I * 1000 - 2500));
  TypedValue RRef = Ref.call(Fn.Entry, Args, Type::I);
  uint64_t WantInstrs = Ref.lastStats().Instrs;
  TypedValue RDbt = Dbt.call(Fn.Entry, Args, Type::I);
  EXPECT_EQ(RDbt.Bits, RRef.Bits);
  EXPECT_EQ(RDbt.asInt32(), 3 * (1000 + 2000 + 3000 + 4000 + 5000 + 6000 -
                                 6 * 2500));
  EXPECT_EQ(Dbt.lastStats().Instrs, WantInstrs);
  expectStateMatches(Ref, Dbt, "stack args");
}

/// Emits `int f() { return K; }` into \p CM (regenerating in place).
CodePtr emitConstFn(Target &Tgt, CodeMem CM, int K) {
  VCode V(Tgt);
  V.lambda("", nullptr, LeafHint, CM);
  V.retImm(Type::I, K);
  return V.end();
}

TEST_F(DbtTest, GuestRegenerationInvalidatesTranslations) {
  CodeMem CM = Mem.allocCode(4096);
  CodePtr F1 = emitConstFn(Tgt, CM, 111);
  ASSERT_TRUE(F1.isValid());
  EXPECT_EQ(Dbt.call(F1.Entry, {}, Type::I).asInt32(), 111);
  // Hot path: the cached translation must be reused, not regenerated.
  EXPECT_EQ(Dbt.call(F1.Entry, {}, Type::I).asInt32(), 111);

  // The guest regenerates the function in place mid-run. The publish bumps
  // the memory's code generation; a stale translation would return 111.
  CodePtr F2 = emitConstFn(Tgt, CM, 222);
  ASSERT_TRUE(F2.isValid());
  ASSERT_EQ(F2.Entry, F1.Entry);
  EXPECT_EQ(Dbt.call(F2.Entry, {}, Type::I).asInt32(), 222);

  // And once more, with a different entry layout: a second region whose
  // publish must not resurrect the first region's stale code either.
  CodeMem CM2 = Mem.allocCode(4096);
  CodePtr G = emitConstFn(Tgt, CM2, 333);
  ASSERT_TRUE(G.isValid());
  EXPECT_EQ(Dbt.call(G.Entry, {}, Type::I).asInt32(), 333);
  EXPECT_EQ(Dbt.call(F2.Entry, {}, Type::I).asInt32(), 222);
}

/// Unwinds every fatal as a CgAbort so a test can read the diagnostic.
struct ThrowingHandler : ErrorHandler {
  [[noreturn]] void handle(const CgError &E) override { throw CgAbort(E); }
};

/// mips::decode is the interpreter's own dispatch, and block discovery and
/// the translator trust it. This pins the contract down against the
/// interpreter itself: a word decodes to Opc::Invalid exactly when the
/// interpreter rejects it as an unknown instruction, and every word
/// isMipsTranslatable accepts executes without a fault. The sweep covers
/// every primary opcode, SPECIAL funct, REGIMM rt, and COP1 sub x funct,
/// each once with ordinary register fields (base registers point at
/// 8-byte-aligned data, the immediate is 8) and once with 31 in rt, rd
/// and sa -- the double-precision FPR-pair edge. The interpreter's
/// unknown-instruction diagnostics keep their exact text.
TEST(MipsDecodeTest, InvalidExactlyWhenInterpreterRejects) {
  using mips::Opc;
  sim::Memory Mem(4 << 20);
  sim::MipsSim Sim(Mem);
  SimAddr Code = Mem.alloc(8, 8);
  SimAddr Data = Mem.alloc(256, 8) + 64;
  Mem.write<uint32_t>(Code + 4, 0); // delay slot: nop
  ThrowingHandler H;
  ErrorHandlerScope Scope(H);

  unsigned Executed = 0, Rejected = 0;
  auto Check = [&](uint32_t Op, uint32_t Rs, uint32_t Low21, bool Edge) {
    uint32_t W = (Op << 26) | (Rs << 21) |
                 (Edge ? (31u << 16) | (31u << 11) | (31u << 6) | (Low21 & 63)
                       : Low21);
    SCOPED_TRACE(::testing::Message() << "word 0x" << std::hex << W);
    mips::Insn D = mips::decode(W);
    bool Xlat = dbt::isMipsTranslatable(D);
    // A double-precision operand at f31 makes the interpreter index its
    // register file one past the end (FPR[32]): the DBT must decline
    // these words, and they are not executed here.
    bool PairAt31 =
        Edge && ((mips::isDouble(D) &&
                  mips::info(D.Op).Where == mips::Group::Cop1Fn) ||
                 D.Op == Opc::Ldc1 || D.Op == Opc::Sdc1 ||
                 D.Op == Opc::CvtD);
    if (PairAt31) {
      EXPECT_FALSE(Xlat) << mips::info(D.Op).Mnemonic;
      return;
    }
    sim::MipsSim::ArchState S = {};
    for (unsigned I = 1; I < 32; ++I)
      S.R[I] = uint32_t(Data);
    for (unsigned I = 0; I < 32; ++I)
      S.FPR[I] = 0x3f800000u + (I << 16); // small positive floats
    Sim.importState(S);
    Sim.seedRun(0);
    Mem.write<uint32_t>(Code, W);
    std::string Fault;
    try {
      Sim.stepUnit(Code);
    } catch (const CgAbort &E) {
      Fault = E.error().Detail;
    }
    ++Executed;
    bool Unknown = Fault.rfind("mips sim: unknown ", 0) == 0;
    Rejected += Unknown;
    EXPECT_EQ(D.Op == Opc::Invalid, Unknown) << Fault;
    if (Xlat) {
      EXPECT_EQ(Fault, "") << mips::info(D.Op).Mnemonic;
    }
    // The only valid words the DBT declines without an f31 operand:
    // cvt.s/cvt.d from a format the interpreter rejects.
    if (!Xlat && D.Op != Opc::Invalid) {
      EXPECT_TRUE((D.Op == Opc::CvtS || D.Op == Opc::CvtD) &&
                  Fault.find(" from fmt ") != std::string::npos)
          << mips::info(D.Op).Mnemonic << ": " << Fault;
    }
  };

  for (bool Edge : {false, true}) {
    const uint32_t Imm = 8, Rs = 9, Fields = (10u << 16) | (12u << 11) |
                                           (4u << 6);
    for (uint32_t Op = 0; Op < 64; ++Op)
      if (Op != 0x00 && Op != 0x01 && Op != 0x11)
        Check(Op, Rs, (10u << 16) | Imm, Edge);
    for (uint32_t Fn = 0; Fn < 64; ++Fn)
      Check(0x00, Rs, Fields | Fn, Edge);
    for (uint32_t Rt = 0; Rt < 32; ++Rt)
      Check(0x01, Rs, (Rt << 16) | Imm, false);
    for (uint32_t Sub = 0; Sub < 32; ++Sub)
      for (uint32_t Fn = 0; Fn < 64; ++Fn)
        Check(0x11, Sub, Fields | Fn, Edge);
  }
  EXPECT_GT(Executed, 4000u);
  EXPECT_GT(Rejected, 1000u);

  // The three unknown-instruction diagnostics, verbatim.
  auto FaultOf = [&](uint32_t W) {
    Mem.write<uint32_t>(Code, W);
    try {
      Sim.stepUnit(Code);
    } catch (const CgAbort &E) {
      return std::string(E.error().Detail);
    }
    return std::string();
  };
  auto Diag = [&](const char *What, unsigned V) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "mips sim: unknown %s 0x%x at 0x%llx",
                  What, V, (unsigned long long)Code);
    return std::string(Buf);
  };
  EXPECT_EQ(FaultOf(0x00000001u), Diag("SPECIAL funct", 0x1));
  EXPECT_EQ(FaultOf(0x4600003fu), Diag("COP1 funct", 0x3f));
  EXPECT_EQ(FaultOf(0xfc000000u), Diag("opcode", 0x3f));
}

/// Every Opc is reachable: the word built from its table row's group and
/// selector decodes back to it (no two rows claim one encoding).
TEST(MipsDecodeTest, RepresentativeWordsRoundTrip) {
  for (unsigned I = 0; I < mips::NumOpcs; ++I) {
    mips::Opc Op = mips::Opc(I);
    uint32_t W = mipsRepresentativeWord(Op);
    EXPECT_EQ(mips::decode(W).Op, Op)
        << mips::info(Op).Mnemonic << " 0x" << std::hex << W;
  }
}

TEST_F(DbtTest, ConcurrentTranslationSharedEngine) {
  // A pool of small functions: f_k(x) = 3*x + k, each its own region.
  constexpr int NumFns = 8;
  CodePtr Fns[NumFns];
  for (int K = 0; K < NumFns; ++K) {
    VCode V(Tgt);
    Reg Arg[1];
    V.lambda("%i", Arg, LeafHint, Mem.allocCode(4096));
    V.binopImm(BinOp::Mul, Type::I, Arg[0], Arg[0], 3);
    V.binopImm(BinOp::Add, Type::I, Arg[0], Arg[0], K);
    V.ret(Type::I, Arg[0]);
    Fns[K] = V.end();
    ASSERT_TRUE(Fns[K].isValid());
  }

  std::atomic<bool> Stop{false};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  constexpr int NumThreads = 4;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      // Each further CPU of the substrate shares its TranslationEngine.
      std::unique_ptr<sim::Cpu> Cpu = S.makeCpu();
      Cpu->setStackTop(Mem.allocStack());
      Rng R(uint64_t(T) * 977 + 11);
      for (int It = 0; It < 400 && !Failures.load(); ++It) {
        int K = int(R.below(NumFns));
        int X = int(uint32_t(R.next()) & 0xffff);
        int Got =
            Cpu->call(Fns[K].Entry, {TypedValue::fromInt(X)}, Type::I)
                .asInt32();
        if (Got != 3 * X + K)
          ++Failures;
      }
    });
  }
  // The "guest compiler" keeps publishing fresh code, bumping the code
  // generation: every dispatcher must flush its local index and the
  // shared cache sees lookup/insert/invalidate from all sides at once.
  std::thread Publisher([&] {
    CodeMem CM = Mem.allocCode(4096);
    for (int I = 0; I < 50 && !Stop.load(); ++I) {
      CodePtr P = emitConstFn(Tgt, CM, I);
      if (!P.isValid())
        ++Failures;
      std::this_thread::yield();
    }
  });
  for (std::thread &Th : Threads)
    Th.join();
  Stop = true;
  Publisher.join();
  EXPECT_EQ(Failures.load(), 0);
}

/// Emits `int f(int x) { return 3 * x + K; }` into \p CM: one region that
/// returns straight to the caller, so a call is one dispatch.
CodePtr emitAffineFn(Target &Tgt, CodeMem CM, int K) {
  VCode V(Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  V.binopImm(BinOp::Mul, Type::I, Arg[0], Arg[0], 3);
  V.binopImm(BinOp::Add, Type::I, Arg[0], Arg[0], K);
  V.ret(Type::I, Arg[0]);
  return V.end();
}

/// A code region that shares no 4 KiB page with anything allocated before
/// or after it: a page of data on either side.
CodeMem allocIsolatedCode(sim::Memory &Mem) {
  Mem.alloc(4096, 8);
  CodeMem CM = Mem.allocCode(4096);
  Mem.alloc(4096, 8);
  return CM;
}

/// Translations the engine has generated so far.
uint64_t engineGenerations(dbt::MipsTranslatingCpu &Cpu) {
  return Cpu.engine().cache()->stats().Generations;
}

/// A region translated ahead of time through the engine, as a set-up phase
/// does, is the one the CPU's first call runs: nothing is translated again.
TEST_F(DbtTest, SetupTranslationReusedByCall) {
  if (!Dbt.translating())
    GTEST_SKIP() << "binary translation unavailable on this host";
  CodePtr F = emitAffineFn(Tgt, Mem.allocCode(4096), 5);
  ASSERT_TRUE(F.isValid());
  ASSERT_TRUE(Dbt.engine().translate(F.Entry, Mem.codeGeneration()));
  ASSERT_EQ(engineGenerations(Dbt), 1u);
  EXPECT_EQ(Dbt.call(F.Entry, {TypedValue::fromInt(7)}, Type::I).asInt32(),
            26);
  EXPECT_EQ(engineGenerations(Dbt), 1u);
}

/// The dispatch index grows past any fixed size. 4096 entries one page
/// apart, so every entry PC has the same low 12 bits, are each translated
/// exactly once, and each result matches the interpreter's, both on first
/// call and once they are all indexed.
TEST_F(DbtTest, DispatchIndexGrowsWithCollidingEntries) {
  if (!Dbt.translating())
    GTEST_SKIP() << "binary translation unavailable on this host";
  constexpr int NumFns = 4096;
  std::vector<SimAddr> Entries;
  for (int K = 0; K < NumFns; ++K) {
    CodePtr F = emitAffineFn(Tgt, Mem.allocCode(4096), K);
    ASSERT_TRUE(F.isValid());
    if (!Entries.empty()) {
      ASSERT_EQ(F.Entry - Entries.back(), 4096u);
    }
    Entries.push_back(F.Entry);
  }
  for (int Round = 0; Round < 2; ++Round) {
    for (int K = 0; K < NumFns; ++K) {
      TypedValue X = TypedValue::fromInt(K * 7 - 100);
      int32_t Want = Ref.call(Entries[K], {X}, Type::I).asInt32();
      ASSERT_EQ(Want, 3 * (K * 7 - 100) + K);
      ASSERT_EQ(Dbt.call(Entries[K], {X}, Type::I).asInt32(), Want)
          << "round " << Round << ", function " << K;
    }
    EXPECT_EQ(engineGenerations(Dbt), uint64_t(NumFns)) << "round " << Round;
  }
}

/// Two CPUs share one engine. Regenerating a function in place reaches
/// both CPUs' next calls; publishing into pages no translation covers
/// leaves every translation in place (the engine generates nothing).
TEST_F(DbtTest, InvalidationFollowsRewrittenPages) {
  if (!Dbt.translating())
    GTEST_SKIP() << "binary translation unavailable on this host";
  std::unique_ptr<sim::Cpu> B = S.makeCpu();
  CodeMem CMF = allocIsolatedCode(Mem), CMG = allocIsolatedCode(Mem),
          CMP = allocIsolatedCode(Mem);
  CodePtr F = emitConstFn(Tgt, CMF, 111);
  CodePtr G = emitAffineFn(Tgt, CMG, 7);
  ASSERT_TRUE(F.isValid() && G.isValid());
  TypedValue Five = TypedValue::fromInt(5);

  EXPECT_EQ(Dbt.call(F.Entry, {}, Type::I).asInt32(), 111);
  EXPECT_EQ(Dbt.call(G.Entry, {Five}, Type::I).asInt32(), 22);
  EXPECT_EQ(B->call(F.Entry, {}, Type::I).asInt32(), 111);
  ASSERT_EQ(engineGenerations(Dbt), 2u) << "B must reuse A's translation";

  // A publish into a disjoint page: A's translations all survive it.
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(emitConstFn(Tgt, CMP, I).isValid());
  EXPECT_EQ(Dbt.call(G.Entry, {Five}, Type::I).asInt32(), 22);
  EXPECT_EQ(Dbt.call(F.Entry, {}, Type::I).asInt32(), 111);
  EXPECT_EQ(engineGenerations(Dbt), 2u);

  // F is regenerated in place. B translates the new body first; A drops
  // its stale entry and runs B's translation, and G stays put.
  ASSERT_EQ(emitConstFn(Tgt, CMF, 222).Entry, F.Entry);
  EXPECT_EQ(B->call(F.Entry, {}, Type::I).asInt32(), 222);
  EXPECT_EQ(engineGenerations(Dbt), 3u);
  EXPECT_EQ(Dbt.call(F.Entry, {}, Type::I).asInt32(), 222);
  EXPECT_EQ(Dbt.call(G.Entry, {Five}, Type::I).asInt32(), 22);
  EXPECT_EQ(engineGenerations(Dbt), 3u);
}

/// Dispatch threads on their own CPUs share one engine while another
/// thread keeps publishing into pages none of their functions touch, each
/// publish followed by more calls. Each function is translated exactly
/// once over the whole run.
TEST_F(DbtTest, ConcurrentDisjointPublishesKeepTranslations) {
  constexpr int NumFns = 8;
  CodePtr Fns[NumFns];
  for (int K = 0; K < NumFns; ++K) {
    Fns[K] = emitAffineFn(Tgt, Mem.allocCode(4096), K);
    ASSERT_TRUE(Fns[K].isValid());
  }
  CodeMem CMP = allocIsolatedCode(Mem);

  std::atomic<bool> Done{false};
  std::atomic<int> Failures{0};
  std::atomic<uint64_t> Calls{0};
  std::vector<std::thread> Threads;
  constexpr int NumThreads = 4;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      std::unique_ptr<sim::Cpu> Cpu = S.makeCpu();
      Cpu->setStackTop(Mem.allocStack());
      Rng R(uint64_t(T) * 131 + 5);
      while (!Done.load() && !Failures.load()) {
        int K = int(R.below(NumFns));
        int X = int(uint32_t(R.next()) & 0xffff);
        if (Cpu->call(Fns[K].Entry, {TypedValue::fromInt(X)}, Type::I)
                .asInt32() != 3 * X + K)
          ++Failures;
        Calls.fetch_add(1);
      }
    });
  }
  // Every publish is followed by at least a few calls on each thread's
  // CPU, each of which sees the arena's generation move.
  for (int I = 0; I < 50 && !Failures.load(); ++I) {
    if (!emitConstFn(Tgt, CMP, I).isValid())
      ++Failures;
    uint64_t Until = Calls.load() + 4 * NumThreads;
    while (Calls.load() < Until && !Failures.load())
      std::this_thread::yield();
  }
  Done = true;
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  if (Dbt.translating()) {
    EXPECT_EQ(engineGenerations(Dbt), uint64_t(NumFns));
  }
}
} // namespace
