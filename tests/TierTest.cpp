//===- tests/TierTest.cpp - Two-tier generation tests ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The tiered pipeline's contract, cross-checked on every target:
//
//  - differential: a seeded random vreg program generated at Tier-0
//    (staging through locals, one pass) and at Tier-1 (record, linear
//    scan, optimizing replay) computes the same results, and the Tier-1
//    code never executes more dynamic instructions;
//
//  - spills: Tier-1 under register pressure spills correctly instead of
//    failing (the paper's "unlimited virtual registers" promise, §6.2);
//
//  - clients: the DPF classifier and the ASH loop are strictly cheaper at
//    Tier-1 on their hot paths (return-immediate folding guarantees this
//    even on targets without a branch delay slot);
//
//  - recovery: a generation that cannot fit reports its retry history in
//    the structured error instead of aborting;
//
//  - promotion: a cache-shared classifier crossing its hotness threshold
//    is regenerated at Tier-1 and swapped exactly once, including under
//    concurrent dispatch from many engines (a TSan workload, like all of
//    ConcurrencyTest);
//
//  - byte identity: a fixed Tier-1 corpus (random streams, nested loops,
//    spill pressure, a jump whose target fills its delay slot, and a tcc
//    program with nested loops) emits the same bytes as the recorded
//    hashes on every simulated target; the host substrates check results
//    only (their code embeds native arena addresses).
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"
#include "TestUtil.h"
#include "ash/Ash.h"
#include "core/CodeCache.h"
#include "core/Generate.h"
#include "core/VRegLayer.h"
#include "dpf/Engines.h"
#include "support/Rng.h"
#include "tcc/Tcc.h"
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <thread>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class TierTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

/// Emits one seeded vreg program through the layer at \p T. All vregs are
/// defined before any use; the body mixes random three-address ops,
/// immediates beyond the small-constant range, forward skip branches, and
/// a counted accumulation loop (a backward branch), so both the Tier-0
/// staging path and the Tier-1 liveness/replay machinery are exercised.
/// The op sequence is a pure function of \p Seed, so generating at both
/// tiers yields the same program.
CodePtr buildSeeded(VCode &V, Tier T, uint64_t Seed, CodeMem CM) {
  Rng R(Seed);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, T);

  constexpr unsigned NV = 6;
  VReg Vr[NV];
  VReg A = L.fromArg(Type::I, Arg[0]);
  for (unsigned I = 0; I < NV; ++I) {
    Vr[I] = L.alloc(Type::I);
    L.setInt(Type::I, Vr[I], R.next() & 0xffff);
  }
  L.binop(BinOp::Add, Type::I, Vr[0], Vr[0], A);

  const BinOp Bin[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                       BinOp::And, BinOp::Or,  BinOp::Xor};
  const UnOp Un[] = {UnOp::Mov, UnOp::Neg, UnOp::Com, UnOp::Not};
  for (unsigned I = 0; I < 24; ++I) {
    unsigned D = unsigned(R.below(NV)), S1 = unsigned(R.below(NV)),
             S2 = unsigned(R.below(NV));
    switch (R.below(4)) {
    case 0:
      L.binop(Bin[R.below(6)], Type::I, Vr[D], Vr[S1], Vr[S2]);
      break;
    case 1:
      // Every fourth immediate exceeds simm13/lit8, forcing the
      // materialize-then-op path.
      L.binopImm(Bin[R.below(6)], Type::I, Vr[D], Vr[S1],
                 I % 4 == 0 ? int64_t(0x71234) : int64_t(R.next() & 0xfff));
      break;
    case 2:
      L.unop(Un[R.below(4)], Type::I, Vr[D], Vr[S1]);
      break;
    default: {
      Label Skip = V.genLabel();
      L.branchImm(Cond::Ge, Type::I, Vr[S1], 0, Skip);
      L.binopImm(BinOp::Xor, Type::I, Vr[D], Vr[D], 0x3ff);
      L.label(Skip);
      break;
    }
    }
  }

  // acc += v[i] over a counted loop: a backward branch, so Tier-1 must
  // extend the loop-carried intervals across the whole body.
  VReg Cnt = L.alloc(Type::I);
  L.setInt(Type::I, Cnt, 5);
  Label Top = V.genLabel();
  L.label(Top);
  L.binop(BinOp::Add, Type::I, Vr[0], Vr[0], Vr[1]);
  L.binop(BinOp::Xor, Type::I, Vr[1], Vr[1], Vr[2]);
  L.binopImm(BinOp::Sub, Type::I, Cnt, Cnt, 1);
  L.branchImm(Cond::Gt, Type::I, Cnt, 0, Top);
  L.ret(Type::I, Vr[0]);
  L.finish();
  return V.end();
}

// The differential guarantee: same program, same answers at both tiers,
// and the optimizing tier never costs more dynamic instructions.
TEST_P(TierTest, SeededProgramsAgreeAcrossTiers) {
  for (uint64_t Case = 0; Case < 8; ++Case) {
    VCODE_SEEDED(Case * 131 + 17);

    VCode V0(*B.Tgt);
    CodePtr P0 = buildSeeded(V0, Tier::Tier0, TestSeed,
                             B.Mem->allocCode(1 << 16));
    VCode V1(*B.Tgt);
    CodePtr P1 = buildSeeded(V1, Tier::Tier1, TestSeed,
                             B.Mem->allocCode(1 << 16));
    ASSERT_TRUE(P0.isValid());
    ASSERT_TRUE(P1.isValid());

    for (int32_t A : {0, 1, -77, 12345, -0x4000}) {
      int32_t R0 =
          B.Cpu->call(P0.Entry, {TypedValue::fromInt(A)}, Type::I).asInt32();
      uint64_t I0 = B.Cpu->lastStats().Instrs;
      int32_t R1 =
          B.Cpu->call(P1.Entry, {TypedValue::fromInt(A)}, Type::I).asInt32();
      uint64_t I1 = B.Cpu->lastStats().Instrs;
      EXPECT_EQ(R0, R1) << "arg " << A;
      EXPECT_LE(I1, I0) << "arg " << A;
    }
  }
}

// Register pressure beyond every target's temp pool: 24 simultaneously
// live vregs must spill (not fail) and still produce the right sum.
TEST_P(TierTest, SpillPressureComputesCorrectly) {
  constexpr unsigned N = 24;
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, B.Mem->allocCode(1 << 16));
  VRegLayer L(V, Tier::Tier1);
  VReg A = L.fromArg(Type::I, Arg[0]);
  VReg Vs[N];
  int32_t Want = 0;
  for (unsigned I = 0; I < N; ++I) {
    Vs[I] = L.alloc(Type::I);
    L.setInt(Type::I, Vs[I], I * 1000 + 7);
    Want += int32_t(I * 1000 + 7);
  }
  // All N are live here; the pool is far smaller on every target.
  VReg Acc = L.alloc(Type::I);
  L.unop(UnOp::Mov, Type::I, Acc, A);
  for (unsigned I = 0; I < N; ++I)
    L.binop(BinOp::Add, Type::I, Acc, Acc, Vs[I]);
  L.ret(Type::I, Acc);
  L.finish();
  EXPECT_GT(L.spillCount(), 0u);

  CodePtr P = V.end();
  ASSERT_TRUE(P.isValid());
  int32_t Got =
      B.Cpu->call(P.Entry, {TypedValue::fromInt(5)}, Type::I).asInt32();
  EXPECT_EQ(Got, Want + 5);
}

// DPF at Tier-1 must agree with Tier-0 and execute strictly fewer dynamic
// instructions on both the accept and the reject path (the acceptance
// criterion for the tiered pipeline).
TEST_P(TierTest, DpfTier1StrictlyFewerInstrs) {
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(10, 1024);
  SimAddr Hit = B.Mem->alloc(dpf::pkt::HeaderBytes, 8);
  SimAddr Miss = B.Mem->alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(*B.Mem, Hit, 1024);
  dpf::writeTcpPacket(*B.Mem, Miss, 80);

  dpf::DpfEngine E0(*B.Tgt, *B.Mem);
  E0.setTier(Tier::Tier0);
  E0.install(Filters);
  dpf::DpfEngine E1(*B.Tgt, *B.Mem);
  E1.setTier(Tier::Tier1);
  E1.install(Filters);

  int A0 = E0.classify(*B.Cpu, Hit);
  uint64_t AccI0 = B.Cpu->lastStats().Instrs;
  int M0 = E0.classify(*B.Cpu, Miss);
  uint64_t RejI0 = B.Cpu->lastStats().Instrs;
  int A1 = E1.classify(*B.Cpu, Hit);
  uint64_t AccI1 = B.Cpu->lastStats().Instrs;
  int M1 = E1.classify(*B.Cpu, Miss);
  uint64_t RejI1 = B.Cpu->lastStats().Instrs;

  EXPECT_EQ(A0, 0);
  EXPECT_EQ(A1, A0);
  EXPECT_EQ(M1, M0);
  EXPECT_LT(AccI1, AccI0);
  EXPECT_LT(RejI1, RejI0);
  EXPECT_LE(E1.codeBytes(), E0.codeBytes());
}

// The ASH loop at Tier-1: identical output (checksum and destination
// buffer, against the host reference), and fewer dynamic instructions —
// strictly fewer where the replay can fill branch delay slots that the
// unscheduled Tier-0 loop leaves as nops.
TEST_P(TierTest, AshTier1MatchesReferenceAndSavesInstrs) {
  const uint32_t Bytes = 1024;
  const uint32_t Key = 0x5a5a1c3bu;
  VCODE_SEEDED(61);
  SimAddr Src = B.Mem->alloc(Bytes, 8);
  Rng R(TestSeed);
  for (uint32_t I = 0; I < Bytes; I += 4)
    B.Mem->write<uint32_t>(Src + I, uint32_t(R.next()));

  const std::vector<ash::Step> Cases[] = {
      {ash::Step::Copy, ash::Step::Checksum},
      {ash::Step::ByteSwap, ash::Step::Xor, ash::Step::Copy,
       ash::Step::Checksum}};
  for (const std::vector<ash::Step> &Steps : Cases) {
    SimAddr RefDst = B.Mem->alloc(Bytes, 8);
    uint32_t Want = ash::refRun(Steps, *B.Mem, RefDst, Src, Bytes, Key);

    uint64_t Instrs[2];
    for (Tier T : {Tier::Tier0, Tier::Tier1}) {
      VCode V(*B.Tgt);
      CodePtr P = ash::emitLoopInto(V, B.Mem->allocCode(1 << 16), Steps,
                                    /*Unroll=*/1, /*ScheduleSlots=*/false,
                                    Key, T);
      ASSERT_TRUE(P.isValid());
      SimAddr Dst = B.Mem->alloc(Bytes, 8);
      uint32_t Sum = B.Cpu
                         ->call(P.Entry,
                                {TypedValue::fromPtr(Dst),
                                 TypedValue::fromPtr(Src),
                                 TypedValue::fromUInt(Bytes)},
                                Type::U)
                         .asUInt32();
      Instrs[T == Tier::Tier1] = B.Cpu->lastStats().Instrs;
      EXPECT_EQ(Sum, Want) << tierName(T);
      for (uint32_t I = 0; I < Bytes; I += 4)
        ASSERT_EQ(B.Mem->read<uint32_t>(Dst + I),
                  B.Mem->read<uint32_t>(RefDst + I))
            << tierName(T) << " offset " << I;
    }
    if (B.Tgt->info().HasBranchDelaySlot)
      EXPECT_LT(Instrs[1], Instrs[0]);
    else
      EXPECT_LE(Instrs[1], Instrs[0]);
  }
}

// When growth caps out, the terminating error must carry the retry
// history — a long-running service logs this instead of dying with the
// paper's "pass a larger region" advice.
TEST_P(TierTest, RetryGiveUpReportsAttemptHistory) {
  VCode V(*B.Tgt);
  GenerateOptions Opts;
  Opts.InitialBytes = 64;
  Opts.MaxBytes = 128;
  GenerateResult R = generateWithRetry(
      V, [&](size_t N) { return B.Mem->allocCode(N); },
      [&](CodeMem CM) {
        Reg Arg[1];
        V.lambda("%i", Arg, LeafHint, CM);
        for (int I = 0; I < 256; ++I)
          V.addii(Arg[0], Arg[0], 1);
        V.reti(Arg[0]);
        return V.end();
      },
      Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, CgErrKind::BufferOverflow);
  // The 66-word (264-byte) prologue reserve already exceeds the 128-byte
  // cap: generateWithRetry stops at once instead of re-emitting.
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_EQ(R.RegionBytes, 64u);
  EXPECT_EQ(R.Err.NeedBytes, 264u);
  EXPECT_NE(std::strstr(R.Err.Detail, "[gave up after"), nullptr)
      << R.Err.Detail;
}

// Hot-function promotion, single dispatcher: the classifier crosses the
// threshold once, the cache swaps exactly one version in, classifications
// never change, and the post-promotion code is strictly cheaper in
// retired instructions and in simulated cycles (both read from warm
// caches: the second call runs Tier-0 code, the last Tier-1).
TEST_P(TierTest, PromotionExactlyOnceSingleThread) {
  CodeCache Cache(*B.Mem);
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(4, 1024);
  SimAddr Pkt = B.Mem->alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(*B.Mem, Pkt, 1025); // filter 1 accepts

  const uint64_t Threshold = 10;
  dpf::DpfEngine E(*B.Tgt, *B.Mem);
  E.setTier(Tier::Tier0);
  E.setHotThreshold(Threshold);
  EXPECT_FALSE(E.installShared(Cache, Filters)); // first caller generates

  sim::RunStats Cold, Hot;
  for (unsigned I = 0; I < 25; ++I) {
    ASSERT_EQ(E.classify(*B.Cpu, Pkt), 1) << "call " << I;
    if (I == 1)
      Cold = B.Cpu->lastStats();
    Hot = B.Cpu->lastStats();
  }
  CodeCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.PromoteFailures, 0u);
  EXPECT_LT(Hot.Instrs, Cold.Instrs);
  EXPECT_LT(Hot.Cycles, Cold.Cycles);
}

// Promotion under concurrent dispatch: eight engines pin the same shared
// classifier and hammer it past the threshold together. Exactly one
// promoter may win, no classification may ever be wrong (before, during,
// or after the swap), and CI runs this under ThreadSanitizer.
TEST_P(TierTest, PromotionExactlyOnceConcurrent) {
  sim::Memory &Mem = *B.Mem;
  CodeCache Cache(Mem);
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(4, 1024);
  SimAddr Pkt = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(Mem, Pkt, 1025);

  constexpr unsigned NumThreads = 8, Iters = 40;
  const uint64_t Threshold = 32; // crossed mid-run, all threads dispatching
  std::atomic<unsigned> Misclassified{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      dpf::DpfEngine E(*B.Tgt, Mem);
      E.setTier(Tier::Tier0);
      E.setHotThreshold(Threshold);
      E.installShared(Cache, Filters);
      std::unique_ptr<sim::Cpu> Cpu = B.makeCpu();
      Cpu->setStackTop(Mem.allocStack());
      for (unsigned I = 0; I < Iters; ++I)
        if (E.classify(*Cpu, Pkt) != 1)
          Misclassified.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Misclassified.load(), 0u);
  CodeCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.PromoteFailures, 0u);
  EXPECT_EQ(S.Generations, 1u); // the install itself was exactly-once too
}

/// Drives the steady-state dispatch contract across the Tier-0 -> Tier-1
/// swap: eight threads run \p Dispatch(Thread, Iter) — which returns
/// whether the call's result was exact — through one shared cache entry
/// \p H whose hot threshold (300) is crossed mid-run. Checks that exactly one
/// promotion happens, every result is exact, finalVersion() is null
/// before the swap and, once a thread has seen it, never changes, and the
/// Tier-0 region returns to the arena only when its last pin drops.
template <typename DispatchFn>
void checkSwapUnderDispatch(CodeCache &Cache, CodeCache::Handle H,
                            DispatchFn Dispatch) {
  constexpr unsigned kThreads = 8, kIters = 200;
  ASSERT_TRUE(H.valid());
  EXPECT_EQ(H.finalVersion(), nullptr);
  EXPECT_EQ(H.tier(), Tier::Tier0);
  // Hold a pin on the Tier-0 version across the swap.
  std::shared_ptr<const CodeCache::Version> Tier0 = H.pin();
  ASSERT_EQ(Cache.memory().freeCodeBytes(), 0u);

  std::atomic<unsigned> Wrong{0}, Unstable{0};
  std::atomic<bool> Go{false};
  std::vector<const CodeCache::Version *> Seen(kThreads, nullptr);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (unsigned I = 0; I < kIters; ++I) {
        if (!Dispatch(T, I))
          Wrong.fetch_add(1, std::memory_order_relaxed);
        const CodeCache::Version *F = H.finalVersion();
        if (Seen[T] && F != Seen[T])
          Unstable.fetch_add(1, std::memory_order_relaxed);
        if (F)
          Seen[T] = F;
      }
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Unstable.load(), 0u) << "finalVersion() changed or went null";
  CodeCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.PromoteFailures, 0u);
  EXPECT_EQ(S.Generations, 1u);

  const CodeCache::Version *Final = H.finalVersion();
  ASSERT_NE(Final, nullptr);
  EXPECT_EQ(Final->GenTier, Tier::Tier1);
  EXPECT_NE(Final, Tier0.get());
  for (const CodeCache::Version *F : Seen) {
    if (F) {
      EXPECT_EQ(F, Final);
    }
  }

  // The swapped-out Tier-0 region is still pinned here: not freed yet.
  EXPECT_EQ(Cache.memory().freeCodeBytes(), 0u);
  size_t Tier0Bytes = Tier0->RegionBytes;
  Tier0.reset();
  EXPECT_EQ(Cache.memory().freeCodeBytes(), Tier0Bytes);
}

// One DpfEngine shared by eight dispatchers across the swap: the pinned
// path before promotion, the unpinned final version after it.
TEST_P(TierTest, SharedEngineSteadyStateAcrossSwap) {
  sim::Memory &Mem = *B.Mem;
  CodeCache Cache(Mem);
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(4, 1024);
  // Ports 1024..1027 are accepted by filters 0..3; port 80 is a miss.
  const uint16_t Ports[] = {1024, 1025, 1026, 1027, 80};
  const int Expect[] = {0, 1, 2, 3, -1};
  SimAddr Pkts[5];
  for (unsigned P = 0; P < 5; ++P) {
    Pkts[P] = Mem.alloc(dpf::pkt::HeaderBytes, 8);
    dpf::writeTcpPacket(Mem, Pkts[P], Ports[P]);
  }

  dpf::DpfEngine E(*B.Tgt, Mem);
  E.setTier(Tier::Tier0);
  E.setHotThreshold(300); // crossed mid-run, all threads dispatching
  E.installShared(Cache, Filters);
  std::vector<std::unique_ptr<sim::Cpu>> Cpus;
  for (unsigned T = 0; T < 8; ++T) {
    Cpus.push_back(B.makeCpu());
    Cpus.back()->setStackTop(Mem.allocStack());
  }
  checkSwapUnderDispatch(
      Cache, Cache.lookup(E.sharedCacheKey(Filters)),
      [&](unsigned T, unsigned I) {
        unsigned P = (T + I) % 5;
        return E.classify(*Cpus[T], Pkts[P]) == Expect[P];
      });
  // A final entry is never promoted again.
  EXPECT_FALSE(E.promoteShared());
  EXPECT_EQ(Cache.stats().Promotions, 1u);
}

// The same contract for tcc: eight Tcc instances (a Tcc's function table
// is per instance) run one shared compiled function across the swap.
TEST_P(TierTest, SharedTccFunctionSteadyStateAcrossSwap) {
  sim::Memory &Mem = *B.Mem;
  CodeCache Cache(Mem);
  const char *Src = R"(
    poly(x) {
      var a = x * 2 + 3;
      var b = a * 4 - x;
      return b + a;
    })";
  std::vector<std::unique_ptr<tcc::Tcc>> Tccs;
  std::vector<std::unique_ptr<sim::Cpu>> Cpus;
  for (unsigned T = 0; T < 8; ++T) {
    Tccs.push_back(std::make_unique<tcc::Tcc>(*B.Tgt, Mem));
    Tccs.back()->setTier(Tier::Tier0);
    Tccs.back()->setHotThreshold(300);
    Tccs.back()->compileShared(Cache, Src);
    Cpus.push_back(B.makeCpu());
    Cpus.back()->setStackTop(Mem.allocStack());
  }
  checkSwapUnderDispatch(
      Cache, Cache.lookup(Tccs[0]->sharedCacheKey(Src)),
      [&](unsigned T, unsigned I) {
        int32_t X = int32_t(I * 7) - int32_t(T * 100);
        return Tccs[T]->run(*Cpus[T], "poly", {X}) == 9 * X + 15;
      });
}


// --- Tier-1 byte identity ----------------------------------------------------

/// FNV-1a hashes of each part of the Tier-1 corpus, in emission order.
struct Tier1Hashes {
  uint64_t Streams = 0, Loops = 0, Pressure = 0, JmpFill = 0, Tcc = 0;
};

/// Records a StreamGen stream through the Tier-1 layer (the layer has no
/// conversions; Cvt is drawn as a move by the caller). Slot values come
/// in as arguments, leave through \p Out, and slot 0 is also returned.
CodePtr emitStreamTier1(VCode &V, const std::vector<StreamInsn> &P, Type Ty,
                        CodeMem CM, SimAddr Scratch, SimAddr Out) {
  Reg Arg[StreamSlots];
  V.lambda("%U%U%U%U", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg Sl[StreamSlots];
  for (unsigned I = 0; I < StreamSlots; ++I)
    Sl[I] = L.fromArg(Ty, Arg[I]);
  VReg Ptr = L.alloc(Type::P);
  L.setInt(Type::P, Ptr, Scratch);
  std::vector<std::pair<unsigned, Label>> Pending;
  for (unsigned I = 0; I < P.size(); ++I) {
    while (!Pending.empty() && Pending.back().first == I) {
      L.label(Pending.back().second);
      Pending.pop_back();
    }
    const StreamInsn &N = P[I];
    switch (N.Kind) {
    case StreamInsn::Bin:
      L.binop(N.Bop, Ty, Sl[N.D], Sl[N.A], Sl[N.B]);
      break;
    case StreamInsn::BinImm:
      L.binopImm(N.Bop, Ty, Sl[N.D], Sl[N.A], N.Imm);
      break;
    case StreamInsn::Un:
    case StreamInsn::Cvt:
      L.unop(N.Uop, Ty, Sl[N.D], Sl[N.A]);
      break;
    case StreamInsn::Set:
      L.setInt(Ty, Sl[N.D], uint64_t(N.Imm));
      break;
    case StreamInsn::CmpSet: {
      Label LT = V.genLabel(), LE = V.genLabel();
      L.branch(N.C, Ty, Sl[N.A], Sl[N.B], LT);
      L.setInt(Ty, Sl[N.D], 0);
      L.jmp(LE);
      L.label(LT);
      L.setInt(Ty, Sl[N.D], 1);
      L.label(LE);
      break;
    }
    case StreamInsn::Load:
      L.load(Ty, Sl[N.D], Ptr, 8 * N.Cell);
      break;
    case StreamInsn::Store:
      L.store(Ty, Sl[N.A], Ptr, 8 * N.Cell);
      break;
    case StreamInsn::Guard: {
      Label Skip = V.genLabel();
      L.branch(N.C, Ty, Sl[N.A], Sl[N.B], Skip);
      Pending.emplace_back(I + 1 + N.Skip, Skip);
      break;
    }
    }
  }
  while (!Pending.empty()) {
    L.label(Pending.back().second);
    Pending.pop_back();
  }
  L.setInt(Type::P, Ptr, Out);
  for (unsigned I = 0; I < StreamSlots; ++I)
    L.store(Ty, Sl[I], Ptr, 8 * I);
  L.ret(Ty, Sl[0]);
  L.finish();
  return V.end();
}

/// sum(i * j for 0 <= j < i < n), then a countdown: jumps back to labels
/// bound before them (outer and inner loop) and a conditional backward
/// branch, so loop-carried intervals must be extended across each body.
CodePtr buildNestedLoops(VCode &V, CodeMem CM) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg N = L.fromArg(Type::I, Arg[0]);
  VReg S = L.alloc(Type::I), I = L.alloc(Type::I), J = L.alloc(Type::I),
       T = L.alloc(Type::I), C = L.alloc(Type::I);
  Label Outer = V.genLabel(), Inner = V.genLabel(), Next = V.genLabel(),
        Done = V.genLabel(), Down = V.genLabel();
  L.setInt(Type::I, S, 0);
  L.setInt(Type::I, I, 0);
  L.label(Outer);
  L.branch(Cond::Ge, Type::I, I, N, Done);
  L.setInt(Type::I, J, 0);
  L.label(Inner);
  L.branch(Cond::Ge, Type::I, J, I, Next);
  L.binop(BinOp::Mul, Type::I, T, I, J);
  L.binop(BinOp::Add, Type::I, S, S, T);
  L.binopImm(BinOp::Add, Type::I, J, J, 1);
  L.jmp(Inner);
  L.label(Next);
  L.binopImm(BinOp::Add, Type::I, I, I, 1);
  L.jmp(Outer);
  L.label(Done);
  L.setInt(Type::I, C, 3);
  L.label(Down);
  L.binopImm(BinOp::Add, Type::I, S, S, 100);
  L.binopImm(BinOp::Sub, Type::I, C, C, 1);
  L.branchImm(Cond::Gt, Type::I, C, 0, Down);
  L.ret(Type::I, S);
  L.finish();
  return V.end();
}

/// 24 simultaneously live vregs summed inside a loop: more than any
/// target's temp pool, so allocation reruns with scratch registers held
/// back and the replay stages spilled operands. Returns n * sum(k*1000+7).
CodePtr buildPressure(VCode &V, CodeMem CM, unsigned &Spills) {
  constexpr unsigned NV = 24;
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg N = L.fromArg(Type::I, Arg[0]);
  VReg Vs[NV];
  for (unsigned K = 0; K < NV; ++K) {
    Vs[K] = L.alloc(Type::I);
    L.setInt(Type::I, Vs[K], K * 1000 + 7);
  }
  VReg Acc = L.alloc(Type::I);
  L.setInt(Type::I, Acc, 0);
  Label Top = V.genLabel();
  L.label(Top);
  for (unsigned K = 0; K < NV; ++K)
    L.binop(BinOp::Add, Type::I, Acc, Acc, Vs[K]);
  L.binopImm(BinOp::Sub, Type::I, N, N, 1);
  L.branchImm(Cond::Gt, Type::I, N, 0, Top);
  L.ret(Type::I, Acc);
  L.finish();
  Spills = L.spillCount();
  return V.end();
}

/// A loop closed by a jump whose predecessor (a store) cannot fill its
/// delay slot, so on MIPS and SPARC the replay copies the loop head's
/// first op into the slot and retargets the jump past it. Returns a + 30
/// and leaves the final sum in \p Cell.
CodePtr buildJmpFill(VCode &V, CodeMem CM, SimAddr Cell, unsigned &Fills) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg Acc = L.fromArg(Type::I, Arg[0]);
  VReg I = L.alloc(Type::I), Ptr = L.alloc(Type::P);
  L.setInt(Type::P, Ptr, Cell);
  L.setInt(Type::I, I, 10);
  Label Top = V.genLabel(), Done = V.genLabel();
  L.label(Top);
  L.binopImm(BinOp::Add, Type::I, Acc, Acc, 3);
  L.binopImm(BinOp::Sub, Type::I, I, I, 1);
  L.branchImm(Cond::Eq, Type::I, I, 0, Done);
  L.store(Type::I, Acc, Ptr, 0);
  L.jmp(Top);
  L.label(Done);
  L.ret(Type::I, Acc);
  L.finish();
  Fills = L.delayFills();
  return V.end();
}

/// Generates the Tier-1 corpus on \p B, checks every function's results,
/// and returns the per-part byte hashes. Seeds are fixed (not
/// VCODE_TEST_SEED-derived) so the hashes are stable.
Tier1Hashes emitTier1Corpus(Substrate &B) {
  Tier1Hashes H;
  const unsigned WB = B.Tgt->info().WordBytes;
  const uint64_t WordMask = WB == 8 ? ~uint64_t(0) : 0xffffffffull;
  auto Region = [&](size_t Bytes) { return B.Mem->allocCode(Bytes); };
  auto Hash = [](uint64_t Prev, CodeMem CM, CodePtr P) {
    return fnv1a(CM.Host, P.SizeBytes, Prev);
  };

  SimAddr Scratch = B.Mem->alloc(8 * StreamScratchSlots, 8);
  SimAddr Out = B.Mem->alloc(8 * StreamSlots, 8);
  for (unsigned Index = 0; Index < 24; ++Index) {
    SCOPED_TRACE("stream " + std::to_string(Index));
    const Type Ty = Index % 2 ? Type::UL : Type::L;
    Rng R(0x7157ull + Index * 7919);
    std::vector<StreamInsn> Prog = makeStream(R, Ty, typeBits(Ty, WB));
    for (StreamInsn &N : Prog)
      if (N.Kind == StreamInsn::Cvt) {
        N.Kind = StreamInsn::Un;
        N.Uop = UnOp::Mov;
      }
    std::vector<uint64_t> Slot(StreamSlots), Cells(StreamScratchSlots, 0);
    std::vector<TypedValue> Args;
    for (unsigned I = 0; I < StreamSlots; ++I) {
      Slot[I] = canonicalize(Ty, R.next(), WB);
      Args.push_back(TypedValue::fromUInt(Slot[I], Type::UL));
    }
    for (unsigned I = 0; I < StreamScratchSlots; ++I)
      B.Mem->write<uint64_t>(Scratch + 8 * I, 0);

    VCode V(*B.Tgt);
    CodeMem CM = Region(1 << 14);
    CodePtr P = emitStreamTier1(V, Prog, Ty, CM, Scratch, Out);
    EXPECT_TRUE(P.isValid());
    if (!P.isValid())
      return H;
    H.Streams = Hash(H.Streams, CM, P);
    B.Cpu->call(P.Entry, Args, Ty);
    evalHost(Prog, Ty, Slot, Cells, WB);
    for (unsigned I = 0; I < StreamSlots; ++I) {
      EXPECT_EQ(B.Mem->read<uint64_t>(Out + 8 * I) & WordMask,
                Slot[I] & WordMask)
          << "slot " << I;
    }
    for (unsigned I = 0; I < StreamScratchSlots; ++I) {
      EXPECT_EQ(B.Mem->read<uint64_t>(Scratch + 8 * I) & WordMask,
                Cells[I] & WordMask)
          << "scratch cell " << I;
    }
  }

  auto Call = [&](CodePtr P, int32_t A) {
    return B.Cpu->call(P.Entry, {TypedValue::fromInt(A)}, Type::I).asInt32();
  };

  {
    VCode V(*B.Tgt);
    CodeMem CM = Region(1 << 14);
    CodePtr P = buildNestedLoops(V, CM);
    H.Loops = Hash(0, CM, P);
    EXPECT_EQ(Call(P, 6), 85 + 300); // sum(i*j, j<i<6) = 85
    EXPECT_EQ(Call(P, 0), 300);
  }
  {
    VCode V(*B.Tgt);
    CodeMem CM = Region(1 << 14);
    unsigned Spills = 0;
    CodePtr P = buildPressure(V, CM, Spills);
    H.Pressure = Hash(0, CM, P);
    EXPECT_GT(Spills, 0u);
    EXPECT_EQ(Call(P, 3), 3 * (1000 * 23 * 24 / 2 + 24 * 7));
  }
  {
    SimAddr Cell = B.Mem->alloc(8, 8);
    VCode V(*B.Tgt);
    CodeMem CM = Region(1 << 14);
    unsigned Fills = 0;
    CodePtr P = buildJmpFill(V, CM, Cell, Fills);
    H.JmpFill = Hash(0, CM, P);
    if (B.Tgt->info().HasBranchDelaySlot) {
      EXPECT_GE(Fills, 1u);
    }
    EXPECT_EQ(Call(P, 5), 35);
    EXPECT_EQ(B.Mem->read<int32_t>(Cell), 32);
  }
  {
    tcc::Tcc C(*B.Tgt, *B.Mem);
    C.setTier(Tier::Tier1);
    CodeMem CM = Region(1 << 14);
    CodePtr P = C.compileInto(R"(
      nest(n) {
        var s = 0;
        var i = 0;
        while (i < n) {
          var j = 0;
          while (j < i) { s = s + i * j; j = j + 1; }
          i = i + 1;
        }
        return s;
      })",
                              CM);
    H.Tcc = Hash(0, CM, P);
    EXPECT_EQ(C.run(*B.Cpu, "nest", {6}), 85);
  }
  return H;
}

// The Tier-1 pipeline's output bytes are pinned: a rewrite of recording,
// allocation or replay must not move a single byte on any simulated
// target. The constants were recorded from the record/linear-scan/replay
// implementation that first produced them.
TEST_P(TierTest, Tier1CorpusBytesMatchRecordedHashes) {
  struct Want {
    const char *Target;
    Tier1Hashes H;
  };
  const Want Table[] = {
      {"mips",
       {0xa6383e879bdac33full, 0x266d3c1d70e88537ull, 0x1c36d01f7f4a1a8bull,
        0x1f43713eb3b17187ull, 0x0d29de893c998d88ull}},
      {"sparc",
       {0x069d2396442f48d1ull, 0x3d881d37ed1f383dull, 0x7acf2aff26746edbull,
        0xfc2e6362fe29a4adull, 0x3fc36651fcbca222ull}},
      {"alpha",
       {0xd4a5bedbd37aacf7ull, 0xa2027838dae9a0e8ull, 0xfb30c8673f9c5cf2ull,
        0xe1673b46076afe73ull, 0x803fcc4382c70a4eull}},
  };
  Tier1Hashes Got = emitTier1Corpus(B);
  const Want *W = nullptr;
  for (const Want &X : Table)
    if (GetParam() == X.Target)
      W = &X;
  ASSERT_NE(W, nullptr) << "no recorded hashes for " << GetParam();
  SCOPED_TRACE(::testing::Message() << std::hex << "got {0x" << Got.Streams
                                     << ", 0x" << Got.Loops << ", 0x"
                                     << Got.Pressure << ", 0x" << Got.JmpFill
                                     << ", 0x" << Got.Tcc << "}");
  EXPECT_EQ(Got.Streams, W->H.Streams);
  EXPECT_EQ(Got.Loops, W->H.Loops);
  EXPECT_EQ(Got.Pressure, W->H.Pressure);
  EXPECT_EQ(Got.JmpFill, W->H.JmpFill);
  EXPECT_EQ(Got.Tcc, W->H.Tcc);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, TierTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

#ifdef __x86_64__
// The same corpus on the host substrates: results only. x86-64 code
// embeds native arena addresses, which differ from run to run.
class Tier1HostTest : public TierTest {};

TEST_P(Tier1HostTest, Tier1CorpusComputesCorrectly) { emitTier1Corpus(B); }

INSTANTIATE_TEST_SUITE_P(HostSubstrates, Tier1HostTest,
                         ::testing::Values("host", "dbt"),
                         [](const auto &Info) { return Info.param; });
#endif

} // namespace
