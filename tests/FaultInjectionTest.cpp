//===- tests/FaultInjectionTest.cpp - Undersized-buffer fault injection -------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Drives every client generator (DPF classifiers under all dispatch
// strategies, tcc-lite programs, ash pipelines) into progressively grown
// code regions, starting from sizes that cannot possibly fit. Asserts the
// recovery contract on all three backends:
//
//  - generation into an undersized region reports a structured
//    CgErrKind::BufferOverflow (no abort, no exception escaping the
//    recovery machinery),
//  - a failed attempt never yields an executable CodePtr (no partial code
//    is ever run),
//  - the retry drivers converge, and the converged output is byte-identical
//    to a one-shot run into a large-enough region at the same address
//    (generated code embeds absolute addresses, so the one-shot run uses a
//    twin arena with the same allocation history). The drivers' regions
//    come from arenas that refuse in-place growth, so these tests cover
//    re-emission; GrowthTest covers regions that grow.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ash/Ash.h"
#include "core/Generate.h"
#include "dpf/Engines.h"
#include "tcc/Tcc.h"
#include <algorithm>
#include <cstring>
#include <memory>
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;

namespace {

class FaultInjectionTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

/// Host-side reference classifier (mirrors DpfTest's).
int refClassify(const std::vector<dpf::Filter> &Filters, const sim::Memory &M,
                SimAddr Msg) {
  for (const dpf::Filter &F : Filters) {
    bool Match = true;
    for (const dpf::Atom &A : F.Atoms) {
      uint32_t V = 0;
      for (unsigned I = 0; I < A.Size; ++I)
        V |= uint32_t(M.read<uint8_t>(Msg + A.Offset + I)) << (8 * I);
      if ((V & A.Mask) != A.Value) {
        Match = false;
        break;
      }
    }
    if (Match)
      return F.Id;
  }
  return -1;
}

/// Sweeps one re-runnable emitter from a hopeless region size upward:
/// every failure must be a structured BufferOverflow with no executable
/// result; the first success breaks the sweep. Returns the converged
/// region size and the emitted code, and reports the number of failed
/// attempts through \p Failures. Failed attempts release their region, so
/// the successful attempt lands at \p the arena's current mark — the same
/// address a one-shot run on a twin arena would use.
template <typename EmitFn>
CodePtr sweepToSuccess(VCode &V, sim::Memory &Mem, EmitFn Emit,
                       size_t StartBytes, unsigned &Failures,
                       size_t &FinalBytes, SimAddr *RegionBase = nullptr) {
  Failures = 0;
  V.setErrorRecovery(true);
  for (size_t Bytes = StartBytes; Bytes <= (size_t(1) << 22); Bytes *= 2) {
    SimAddr Mark = Mem.mark();
    CodeMem CM = Mem.allocCode(Bytes);
    try {
      CodePtr P = Emit(CM);
      if (P.isValid()) {
        EXPECT_FALSE(V.lastError());
        FinalBytes = Bytes;
        if (RegionBase)
          *RegionBase = CM.Guest;
        V.setErrorRecovery(false);
        return P;
      }
      // end() refused to finalize a poisoned function.
      EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
    } catch (const CgAbort &E) {
      EXPECT_EQ(E.error().Kind, CgErrKind::BufferOverflow)
          << E.error().Detail;
      EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
      V.abandon();
    }
    ++Failures;
    Mem.release(Mark);
  }
  V.setErrorRecovery(false);
  ADD_FAILURE() << "emitter never fit";
  return CodePtr{};
}

// --- DPF --------------------------------------------------------------------

TEST_P(FaultInjectionTest, DpfSweepAllDispatchStrategies) {
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(10, 1024);
  dpf::Trie T = dpf::Trie::build(Filters);
  const dpf::DpfEngine::Dispatch Strategies[] = {
      dpf::DpfEngine::Dispatch::Auto, dpf::DpfEngine::Dispatch::Chain,
      dpf::DpfEngine::Dispatch::Binary, dpf::DpfEngine::Dispatch::Hash,
      dpf::DpfEngine::Dispatch::Table};

  for (auto S : Strategies) {
    dpf::DpfEngine E(*B.Tgt, *B.Mem, S);
    VCode V(*B.Tgt);
    unsigned Failures = 0;
    size_t FinalBytes = 0;
    CodePtr P = sweepToSuccess(
        V, *B.Mem, [&](CodeMem CM) { return E.emitInto(V, T, CM); },
        /*StartBytes=*/64, Failures, FinalBytes);
    ASSERT_TRUE(P.isValid());
    EXPECT_GE(Failures, 1u) << "64 bytes must not fit a 10-filter classifier";

    // The converged classifier is fully functional.
    SimAddr Msg = B.Mem->alloc(dpf::pkt::HeaderBytes, 8);
    for (uint16_t Port : {1024, 1028, 1033, 1034, 80}) {
      dpf::writeTcpPacket(*B.Mem, Msg, Port);
      int Want = refClassify(Filters, *B.Mem, Msg);
      int Got = B.Cpu->call(P.Entry, {sim::TypedValue::fromPtr(Msg)}, Type::I)
                    .asInt32();
      EXPECT_EQ(Got, Want) << "port " << Port;
    }
  }
}

TEST_P(FaultInjectionTest, DpfRetryConvergesByteIdentical) {
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(10, 1024);
  const dpf::DpfEngine::Dispatch Strategies[] = {
      dpf::DpfEngine::Dispatch::Auto, dpf::DpfEngine::Dispatch::Binary,
      dpf::DpfEngine::Dispatch::Hash, dpf::DpfEngine::Dispatch::Table};

  for (auto S : Strategies) {
    // Retry path: start hopelessly small in an arena whose regions cannot
    // grow in place, so install() re-emits into ever larger regions.
    Substrate A = makeFixedRegionSubstrate(GetParam());
    dpf::DpfEngine EA(*A.Tgt, *A.Mem, S);
    EA.setInitialCodeBytes(64);
    EA.install(Filters);
    EXPECT_GT(EA.installAttempts(), 1u);
    EXPECT_GE(EA.regionBytes(), EA.codeBytes());

    // One-shot path: a twin arena (same allocation history) with the
    // converged size must produce the identical bytes at the identical
    // address — the retry left no trace in the output.
    Substrate C = makeSubstrate(GetParam());
    dpf::DpfEngine EC(*C.Tgt, *C.Mem, S);
    EC.setInitialCodeBytes(EA.regionBytes());
    EC.install(Filters);
    EXPECT_EQ(EC.installAttempts(), 1u);
    EXPECT_EQ(EA.entry(), EC.entry());
    ASSERT_EQ(EA.codeBytes(), EC.codeBytes());
    EXPECT_EQ(std::memcmp(A.Mem->hostPtr(EA.entry(), EA.codeBytes()),
                          C.Mem->hostPtr(EC.entry(), EC.codeBytes()),
                          EA.codeBytes()),
              0)
        << "retry output differs from one-shot output";

    SimAddr Msg = A.Mem->alloc(dpf::pkt::HeaderBytes, 8);
    for (uint16_t Port : {1024, 1033, 1023}) {
      dpf::writeTcpPacket(*A.Mem, Msg, Port);
      EXPECT_EQ(EA.classify(*A.Cpu, Msg), refClassify(Filters, *A.Mem, Msg));
    }
  }
}

TEST_P(FaultInjectionTest, InterpreterEnginesRetryConverge) {
  // MPF and PATHFINDER write their filter programs / cell graphs before
  // the retry loop, so those survive failed attempts by construction.
  std::vector<dpf::Filter> Filters = dpf::makeTcpIpFilters(10, 1024);
  for (int Which = 0; Which < 2; ++Which) {
    // A's regions cannot grow in place: the install re-emits.
    Substrate A = makeFixedRegionSubstrate(GetParam());
    Substrate C = makeSubstrate(GetParam());
    auto Make = [&](Substrate &Bu) -> std::unique_ptr<dpf::Engine> {
      if (Which == 0)
        return std::make_unique<dpf::MpfEngine>(*Bu.Tgt, *Bu.Mem);
      return std::make_unique<dpf::PathFinderEngine>(*Bu.Tgt, *Bu.Mem);
    };
    auto EA = Make(A), EC = Make(C);
    EA->setInitialCodeBytes(64);
    EA->install(Filters);
    EXPECT_GT(EA->installAttempts(), 1u);

    EC->setInitialCodeBytes(EA->regionBytes());
    EC->install(Filters);
    EXPECT_EQ(EC->installAttempts(), 1u);
    EXPECT_EQ(EA->entry(), EC->entry());
    ASSERT_EQ(EA->codeBytes(), EC->codeBytes());
    EXPECT_EQ(std::memcmp(A.Mem->hostPtr(EA->entry(), EA->codeBytes()),
                          C.Mem->hostPtr(EC->entry(), EC->codeBytes()),
                          EA->codeBytes()),
              0);

    SimAddr Msg = A.Mem->alloc(dpf::pkt::HeaderBytes, 8);
    dpf::writeTcpPacket(*A.Mem, Msg, 1030);
    EXPECT_EQ(EA->classify(*A.Cpu, Msg), refClassify(Filters, *A.Mem, Msg));
  }
}

// --- tcc --------------------------------------------------------------------

TEST_P(FaultInjectionTest, TccSweepPrograms) {
  struct Program {
    const char *Src;
    const char *Name;
    std::vector<int32_t> Args;
    int32_t Want;
  };
  const Program Programs[] = {
      {"inc(x) { return x + 1; }", "inc", {41}, 42},
      {"gcd(a, b) { while (b != 0) { var t = b; b = a % b; a = t; } "
       "return a; }",
       "gcd", {252, 105}, 21},
      {"fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
       "fib", {10}, 55},
      {"clamp(x, lo, hi) { if (x < lo) return lo; if (x > hi) return hi; "
       "var i = 0; while (i < 3) { x = x + 0; i = i + 1; } return x; }",
       "clamp", {7, 0, 5}, 5},
  };

  tcc::Tcc T(*B.Tgt, *B.Mem);
  for (const Program &P : Programs) {
    // Failed attempts of programs with calls allocate function-table
    // slots that must survive, so (like Tcc::compile) the sweep does not
    // release failed regions.
    CgError Err;
    CodePtr Code;
    unsigned Failures = 0;
    for (size_t Bytes = 16;; Bytes *= 2) {
      ASSERT_LE(Bytes, size_t(1) << 22) << P.Name << " never fit";
      Err = CgError{};
      Code = T.compileInto(P.Src, B.Mem->allocCode(Bytes), &Err);
      if (Code.isValid()) {
        EXPECT_FALSE(Err) << Err.Detail;
        break;
      }
      EXPECT_EQ(Err.Kind, CgErrKind::BufferOverflow) << Err.Detail;
      ++Failures;
    }
    EXPECT_GE(Failures, 1u) << "16 bytes must not fit " << P.Name;
    EXPECT_EQ(T.run(*B.Cpu, P.Name, P.Args), P.Want) << P.Name;
  }
}

TEST_P(FaultInjectionTest, TccRetryDriverConverges) {
  // Regions that cannot grow in place keep compile() on its re-emission
  // path.
  Substrate A = makeFixedRegionSubstrate(GetParam());
  tcc::Tcc TA(*A.Tgt, *A.Mem);
  TA.setInitialCodeBytes(64);
  TA.compile("gcd(a, b) { while (b != 0) { var t = b; b = a % b; a = t; } "
             "return a; }");
  EXPECT_GT(TA.compileAttempts(), 1u);
  EXPECT_GE(TA.regionBytes(), 128u);
  TA.compile("fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }");
  EXPECT_EQ(TA.run(*A.Cpu, "gcd", {252, 105}), 21);
  EXPECT_EQ(TA.run(*A.Cpu, "fib", {12}), 144);
}

TEST_P(FaultInjectionTest, TccByteIdentityAfterManualRetry) {
  // A leaf program allocates nothing persistent during failed attempts,
  // so the sweep can release them and the converged code must land where
  // a one-shot run on a twin arena lands.
  const char *Src = "poly(x) { var y = x * x; return y * x + 3 * y + x + 7; }";
  Substrate A = makeSubstrate(GetParam());
  tcc::Tcc TA(*A.Tgt, *A.Mem);
  CgError Err;
  CodePtr PA;
  size_t Bytes = 16;
  unsigned Failures = 0;
  SimAddr BaseA = 0;
  for (;; Bytes *= 2) {
    ASSERT_LE(Bytes, size_t(1) << 22);
    SimAddr Mark = A.Mem->mark();
    CodeMem CM = A.Mem->allocCode(Bytes);
    Err = CgError{};
    PA = TA.compileInto(Src, CM, &Err);
    if (PA.isValid()) {
      BaseA = CM.Guest;
      break;
    }
    EXPECT_EQ(Err.Kind, CgErrKind::BufferOverflow);
    ++Failures;
    A.Mem->release(Mark);
  }
  EXPECT_GE(Failures, 1u);

  Substrate C = makeSubstrate(GetParam());
  tcc::Tcc TC(*C.Tgt, *C.Mem);
  CodeMem CMC = C.Mem->allocCode(Bytes);
  CodePtr PC = TC.compileInto(Src, CMC);
  ASSERT_TRUE(PC.isValid());
  EXPECT_EQ(CMC.Guest, BaseA) << "twin arenas diverged";
  EXPECT_EQ(PA.Entry, PC.Entry);
  ASSERT_EQ(PA.SizeBytes, PC.SizeBytes);
  EXPECT_EQ(std::memcmp(A.Mem->hostPtr(BaseA, PA.SizeBytes),
                        C.Mem->hostPtr(CMC.Guest, PC.SizeBytes),
                        PA.SizeBytes),
            0);
  EXPECT_EQ(TA.run(*A.Cpu, "poly", {5}), 5 * 5 * 5 + 3 * 25 + 5 + 7);
}

// --- ash --------------------------------------------------------------------

TEST_P(FaultInjectionTest, AshSweepAndByteIdentity) {
  using ash::Step;
  struct Pipe {
    std::vector<Step> Steps;
    unsigned Unroll;
    bool Sched;
  };
  const Pipe Pipes[] = {
      {{Step::Copy}, 1, false},
      {{Step::ByteSwap, Step::Copy, Step::Checksum}, 4, true},
      {{Step::Copy, Step::Checksum}, 2, true},
      {{Step::Xor, Step::Copy}, 2, false},
  };

  for (const Pipe &P : Pipes) {
    Substrate A = makeSubstrate(GetParam());
    VCode V(*A.Tgt);
    unsigned Failures = 0;
    size_t FinalBytes = 0;
    SimAddr BaseA = 0;
    CodePtr PA = sweepToSuccess(
        V, *A.Mem,
        [&](CodeMem CM) {
          return ash::emitLoopInto(V, CM, P.Steps, P.Unroll, P.Sched);
        },
        /*StartBytes=*/64, Failures, FinalBytes, &BaseA);
    ASSERT_TRUE(PA.isValid());
    EXPECT_GE(Failures, 1u);

    // One-shot on a twin arena: byte-identical at the same address.
    Substrate C = makeSubstrate(GetParam());
    VCode VC(*C.Tgt);
    CodeMem CMC = C.Mem->allocCode(FinalBytes);
    CodePtr PC = ash::emitLoopInto(VC, CMC, P.Steps, P.Unroll, P.Sched);
    ASSERT_TRUE(PC.isValid());
    EXPECT_EQ(CMC.Guest, BaseA);
    EXPECT_EQ(PA.Entry, PC.Entry);
    ASSERT_EQ(PA.SizeBytes, PC.SizeBytes);
    EXPECT_EQ(std::memcmp(A.Mem->hostPtr(BaseA, PA.SizeBytes),
                          C.Mem->hostPtr(CMC.Guest, PC.SizeBytes),
                          PA.SizeBytes),
              0);

    // The converged loop computes the same function as the host reference
    // (including the unrolled loop's tail handling: 72 % (4*4) != 0).
    const uint32_t Bytes = 72;
    SimAddr Src = A.Mem->alloc(Bytes, 8);
    SimAddr DstGen = A.Mem->alloc(Bytes, 8);
    SimAddr DstRef = A.Mem->alloc(Bytes, 8);
    for (uint32_t I = 0; I < Bytes; I += 4)
      A.Mem->write<uint32_t>(Src + I, 0x01020304u * (I + 1) + I);
    uint32_t Want = ash::refRun(P.Steps, *A.Mem, DstRef, Src, Bytes);
    uint32_t Got =
        A.Cpu
            ->call(PA.Entry,
                   {sim::TypedValue::fromPtr(DstGen),
                    sim::TypedValue::fromPtr(Src),
                    sim::TypedValue::fromUInt(Bytes)},
                   Type::U)
            .asUInt32();
    EXPECT_EQ(Got, Want);
    bool HasCopy = std::find(P.Steps.begin(), P.Steps.end(), Step::Copy) !=
                   P.Steps.end();
    if (HasCopy) {
      for (uint32_t I = 0; I < Bytes; I += 4)
        EXPECT_EQ(A.Mem->read<uint32_t>(DstGen + I),
                  A.Mem->read<uint32_t>(DstRef + I))
            << "word " << I / 4;
    }
  }
}

// --- the retry driver itself ------------------------------------------------

TEST_P(FaultInjectionTest, RetryDriverStopsOnNonRetryableErrors) {
  // A larger region cannot cure an unbound label: one attempt, structured
  // error out.
  VCode V(*B.Tgt);
  GenerateResult R = generateWithRetry(
      V, [&](size_t N) { return B.Mem->allocCode(N); },
      [&](CodeMem CM) {
        V.lambda("%v", nullptr, LeafHint, CM);
        V.jmp(V.genLabel()); // never bound
        V.retv();
        return V.end();
      });
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, CgErrKind::UnboundLabel);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_FALSE(V.errorRecovery()) << "RecoveryScope must restore the policy";
}

TEST_P(FaultInjectionTest, RetryDriverRespectsGrowthCap) {
  // 1000 nops never fit under either cap. Every target's prologue reserve
  // (66 words, 264 bytes) already needs more than a 256-byte cap, so
  // generateWithRetry gives up after one attempt instead of re-emitting
  // into regions that cannot hold it. Under a 512-byte cap the region grows in place
  // up to the cap, and generateWithRetry stops there.
  for (size_t Cap : {size_t(256), size_t(512)}) {
    VCode V(*B.Tgt);
    GenerateOptions Opts;
    Opts.InitialBytes = 64;
    Opts.MaxBytes = Cap;
    SimAddr Mark = B.Mem->mark();
    GenerateResult R = generateWithRetry(
        V,
        [&](size_t N) {
          B.Mem->release(Mark);
          return B.Mem->allocCode(N);
        },
        [&](CodeMem CM) {
          V.lambda("%v", nullptr, LeafHint, CM);
          for (int I = 0; I < 1000; ++I)
            V.nop();
          V.retv();
          return V.end();
        },
        Opts);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Err.Kind, CgErrKind::BufferOverflow);
    EXPECT_EQ(R.Attempts, 1u) << R.Err.Detail;
    EXPECT_GT(R.Err.NeedBytes, Cap);
    EXPECT_EQ(R.RegionBytes, Cap == 256 ? 64u : Cap);
    EXPECT_NE(std::strstr(R.Err.Detail, "[gave up after 1 attempt(s)"),
              nullptr)
        << R.Err.Detail;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, FaultInjectionTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
