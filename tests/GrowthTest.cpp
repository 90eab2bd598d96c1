//===- tests/GrowthTest.cpp - In-place growth of driver-sized regions -----===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// generateWithRetry marks its regions growable: on overflow the code
// buffer asks the arena to extend the region in place and emission goes
// on, so each instruction is written once. On every substrate:
//
//  - a grown function is byte-identical to a one-shot run into a region of
//    the final size at the same address (the arena is rewound and the
//    one-shot run emits where the driver did: on host, twin arenas would
//    sit at different addresses);
//  - an allocation that follows the region stops growth, and the driver's
//    re-emission converges to the same bytes a one-shot run produces;
//  - growth stops at GenerateOptions::MaxBytes, and the driver does not
//    re-run a function whose region already reached it;
//  - the code cache frees grown regions at their grown size, so the
//    arena's free bytes and the live versions account for every byte the
//    arena handed the cache, also when a retry cannot get its region;
//  - threads growing and allocating in one arena never share a byte;
//  - on the native host, grown pages stay non-executable until publish,
//    and after it exactly the used pages are executable.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/CodeCache.h"
#include "core/Generate.h"
#include "support/BitUtils.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <cstring>
#include <functional>
#include <thread>
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

constexpr size_t PageBytes = 4096;

/// f(a) = a < 0 ? a : a + sum of (1 + I % 7) for I < N. The additions sit
/// behind a forward branch, so its fixup lands wherever the region grew
/// to. \p Probe, when set, runs before addition I for every I % 256 == 0
/// and gets I and the register holding the running value.
CodePtr emitAdds(VCode &V, CodeMem CM, unsigned N,
                 const std::function<void(unsigned, Reg)> &Probe = nullptr) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  Label Done = V.genLabel();
  V.branchImm(Cond::Lt, Type::I, Arg[0], 0, Done);
  for (unsigned I = 0; I < N; ++I) {
    if (Probe && I % 256 == 0)
      Probe(I, Arg[0]);
    V.addii(Arg[0], Arg[0], 1 + I % 7);
  }
  V.label(Done);
  V.reti(Arg[0]);
  return V.end();
}

/// The value emitAdds(N) returns for \p A; with N = I, also the running
/// value before addition I.
int32_t expectAdds(unsigned N, int32_t A) {
  if (A < 0)
    return A;
  for (unsigned I = 0; I < N; ++I)
    A += int32_t(1 + I % 7);
  return A;
}

class GrowthTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }

  /// Current value of telemetry counter \p Name (0 when compiled out).
  static uint64_t counter(const char *Name) {
    return telemetry::registry().counterValue(Name);
  }

  /// Bytes of [A, A+N) in the arena.
  std::vector<uint8_t> bytesAt(SimAddr A, size_t N) {
    const uint8_t *P = B.Mem->hostPtr(A, N);
    return std::vector<uint8_t>(P, P + N);
  }

  Substrate B;
};

TEST_P(GrowthTest, GrownFunctionMatchesOneShot) {
  const unsigned N = 3000;
  VCode V(*B.Tgt);
  GenerateOptions Opts;
  Opts.InitialBytes = 64;
  SimAddr Mark = B.Mem->mark(), Region = 0;
  size_t FirstSize = 0;
  uint64_t Grown0 = counter("core.gen.grown"),
           Retry0 = counter("core.gen.retry");
  GenerateResult R = generateWithRetry(
      V,
      [&](size_t Bytes) {
        CodeMem CM = B.Mem->allocCode(Bytes);
        Region = CM.Guest;
        FirstSize = CM.Size;
        return CM;
      },
      [&](CodeMem CM) { return emitAdds(V, CM, N); }, Opts);
  ASSERT_TRUE(R.ok()) << R.Err.Detail;
  EXPECT_EQ(R.Attempts, 1u) << "the region grows in place";
  EXPECT_GT(R.RegionBytes, FirstSize);
  EXPECT_GE(R.RegionBytes, R.Code.SizeBytes);
  EXPECT_EQ(B.Mem->mark(), Region + R.RegionBytes)
      << "the bump pointer sits right after the grown region";
  if (telemetry::compiledIn()) {
    EXPECT_EQ(counter("core.gen.grown") - Grown0, 1u);
    EXPECT_EQ(counter("core.gen.retry") - Retry0, 0u);
  }

  EXPECT_EQ(B.Cpu->call(R.Code.Entry, {TypedValue::fromInt(5)}).asInt32(),
            expectAdds(N, 5));
  EXPECT_EQ(B.Cpu->call(R.Code.Entry, {TypedValue::fromInt(-3)}).asInt32(),
            -3);

  // One shot into a region of the final size at the same address.
  std::vector<uint8_t> Grown = bytesAt(Region, R.Code.SizeBytes);
  B.Mem->release(Mark);
  CodeMem CM = B.Mem->allocCode(R.RegionBytes);
  ASSERT_EQ(CM.Guest, Region);
  CodePtr P = emitAdds(V, CM, N);
  ASSERT_TRUE(P.isValid());
  EXPECT_EQ(R.Code.Entry, P.Entry);
  ASSERT_EQ(R.Code.SizeBytes, P.SizeBytes);
  EXPECT_EQ(Grown, bytesAt(Region, P.SizeBytes));
}

TEST_P(GrowthTest, AllocationAfterRegionForcesReemission) {
  // Halfway through, the emitter allocates a data cell (which then
  // follows the region) and stores the running value to it, so the cell's
  // address is part of the emitted bytes.
  const unsigned N = 8000, Mid = 2048;
  auto Emit = [&](VCode &V, sim::Memory &M, CodeMem CM, SimAddr &Cell) {
    Cell = 0;
    return emitAdds(V, CM, N, [&](unsigned I, Reg Acc) {
      if (I != Mid)
        return;
      Cell = M.alloc(16, 8);
      Reg P = V.getreg(Type::P);
      V.setp(P, Cell);
      V.stii(Acc, P, 0);
      V.putreg(P);
    });
  };

  VCode V(*B.Tgt);
  GenerateOptions Opts;
  Opts.InitialBytes = 64;
  SimAddr Mark = B.Mem->mark(), Region = 0, Cell = 0;
  uint64_t Retry0 = counter("core.gen.retry");
  GenerateResult R = generateWithRetry(
      V,
      [&](size_t Bytes) {
        B.Mem->release(Mark);
        CodeMem CM = B.Mem->allocCode(Bytes);
        Region = CM.Guest;
        return CM;
      },
      [&](CodeMem CM) { return Emit(V, *B.Mem, CM, Cell); }, Opts);
  ASSERT_TRUE(R.ok()) << R.Err.Detail;
  EXPECT_GT(R.Attempts, 1u) << "growth past the data cell must be refused";
  if (telemetry::compiledIn()) {
    EXPECT_EQ(counter("core.gen.retry") - Retry0, R.Attempts - 1);
  }
  EXPECT_EQ(Cell, alignTo(Region + R.RegionBytes, 8));
  EXPECT_EQ(B.Cpu->call(R.Code.Entry, {TypedValue::fromInt(7)}).asInt32(),
            expectAdds(N, 7));
  EXPECT_EQ(B.Mem->read<int32_t>(Cell), expectAdds(Mid, 7));

  std::vector<uint8_t> Retried = bytesAt(Region, R.Code.SizeBytes);
  B.Mem->release(Mark);
  CodeMem CM = B.Mem->allocCode(R.RegionBytes);
  ASSERT_EQ(CM.Guest, Region);
  SimAddr OneShotCell = 0;
  CodePtr P = Emit(V, *B.Mem, CM, OneShotCell);
  ASSERT_TRUE(P.isValid());
  EXPECT_EQ(OneShotCell, Cell);
  EXPECT_EQ(R.Code.Entry, P.Entry);
  ASSERT_EQ(R.Code.SizeBytes, P.SizeBytes);
  EXPECT_EQ(Retried, bytesAt(Region, P.SizeBytes));
}

TEST_P(GrowthTest, GrowthStopsAtMaxBytes) {
  GenerateOptions Opts;
  Opts.InitialBytes = 64;
  Opts.MaxBytes = 4 * PageBytes;
  SimAddr Region = 0;
  auto Alloc = [&](size_t Bytes) {
    CodeMem CM = B.Mem->allocCode(Bytes);
    Region = CM.Guest;
    return CM;
  };

  // Fits under the cap: one attempt, grown but never past it.
  VCode V(*B.Tgt);
  GenerateResult Fits = generateWithRetry(
      V, Alloc, [&](CodeMem CM) { return emitAdds(V, CM, 1000); }, Opts);
  ASSERT_TRUE(Fits.ok()) << Fits.Err.Detail;
  EXPECT_EQ(Fits.Attempts, 1u);
  EXPECT_LE(Fits.RegionBytes, Opts.MaxBytes);

  // Cannot fit: the region grows to exactly the cap, the arena's break
  // stops there, and the driver gives up without re-running.
  GenerateResult Over = generateWithRetry(
      V, Alloc, [&](CodeMem CM) { return emitAdds(V, CM, 12000); }, Opts);
  ASSERT_FALSE(Over.ok());
  EXPECT_EQ(Over.Err.Kind, CgErrKind::BufferOverflow);
  EXPECT_EQ(Over.Attempts, 1u);
  EXPECT_EQ(Over.RegionBytes, Opts.MaxBytes);
  EXPECT_EQ(B.Mem->mark(), Region + Opts.MaxBytes);
  EXPECT_NE(std::strstr(Over.Err.Detail,
                        "[gave up after 1 attempt(s), last region 16384 "
                        "bytes]"),
            nullptr)
      << Over.Err.Detail;
}

TEST_P(GrowthTest, CacheAccountsForGrownRegions) {
  // One shard of two entries: every further key evicts one, and its
  // region returns to the arena at the size it grew to.
  CodeCache Cache(*B.Mem, CodeCache::Options(1, 2));
  SimAddr First = 0;
  auto Generate = [&](const std::string &Key, unsigned N, size_t MaxBytes) {
    return Cache.lookupOrGenerate(Key, [&](CodeCache::RegionAlloc &RA) {
      VCode V(*B.Tgt);
      GenerateOptions Opts;
      Opts.InitialBytes = 512;
      Opts.MaxBytes = MaxBytes;
      return generateWithRetry(
          V,
          [&](size_t Bytes) {
            CodeMem CM = RA(Bytes);
            if (!First)
              First = CM.Guest;
            return CM;
          },
          [&](CodeMem CM) { return emitAdds(V, CM, N); }, Opts);
    });
  };

  const size_t FirstSize = B.native() ? PageBytes : 512;
  size_t Grown = 0;
  for (unsigned K = 0; K < 6; ++K) {
    unsigned N = 300 + 700 * K;
    CodeCache::Handle H =
        Generate("k" + std::to_string(K), N, size_t(1) << 24);
    ASSERT_TRUE(H.valid()) << H.error().Detail;
    EXPECT_EQ(B.Cpu->call(H.code().Entry, {TypedValue::fromInt(2)}).asInt32(),
              expectAdds(N, 2));
    EXPECT_GE(H.regionBytes(), H.code().SizeBytes);
    Grown += H.regionBytes() > FirstSize;
  }
  // A failure at the cap frees its region at the size it grew to.
  EXPECT_FALSE(Generate("huge", 20000, 4 * PageBytes).valid());

  CodeCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Generations, 6u);
  EXPECT_EQ(S.Failures, 1u);
  EXPECT_EQ(S.Evictions, 4u);
  EXPECT_GT(B.Mem->regionsReused(), 0u);
  EXPECT_GT(Grown, 0u) << "no region grew";
  size_t Live = Cache.lookup("k4").regionBytes() +
                Cache.lookup("k5").regionBytes();
  ASSERT_GT(Live, 0u);
  EXPECT_EQ(B.Mem->freeCodeBytes() + Live, B.Mem->mark() - First)
      << "free + live bytes must equal what the arena handed the cache";
}

TEST_P(GrowthTest, CacheReclaimsOnceWhenRetryExhaustsArena) {
  // In a 1 MiB arena the region grows until the stack limit refuses it;
  // the retry's doubled region cannot be allocated. The failed attempt's
  // region must be freed exactly once.
  auto Arena = GetParam() == "host"
                   ? std::make_unique<sim::Memory>(sim::Memory::Native,
                                                   1 << 20, 4096)
                   : std::make_unique<sim::Memory>(1 << 20, 0x10000000, 4096);
  Substrate S = makeSubstrate(GetParam(), std::move(Arena));
  CodeCache Cache(*S.Mem);
  SimAddr First = 0;
  CodeCache::Handle H =
      Cache.lookupOrGenerate("big", [&](CodeCache::RegionAlloc &RA) {
        VCode V(*S.Tgt);
        GenerateOptions Opts;
        Opts.InitialBytes = 512;
        return generateWithRetry(
            V,
            [&](size_t Bytes) {
              CodeMem CM = RA(Bytes);
              if (!First)
                First = CM.Guest;
              return CM;
            },
            [&](CodeMem CM) { return emitAdds(V, CM, 200000); }, Opts);
      });
  ASSERT_FALSE(H.valid());
  EXPECT_EQ(H.error().Kind, CgErrKind::ArenaExhausted) << H.error().Detail;
  CodeCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Failures, 1u);
  EXPECT_GT(S.Mem->freeCodeBytes(), 512u);
  EXPECT_EQ(S.Mem->freeCodeBytes(), S.Mem->mark() - First);
}

TEST_P(GrowthTest, ConcurrentGrowthAndAllocation) {
  // Threads emit growing functions and allocate data cells in one arena.
  // No two regions or cells may overlap, and every function must run.
  constexpr unsigned Threads = 4, PerThread = 24;
  struct Made {
    SimAddr Lo = 0;
    size_t Bytes = 0;
    CodePtr Code;
    unsigned N = 0; ///< additions; 0 for a data cell
  };
  std::vector<std::vector<Made>> Out(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      VCode V(*B.Tgt);
      GenerateOptions Opts;
      Opts.InitialBytes = 64;
      for (unsigned I = 0; I < PerThread; ++I) {
        unsigned N = 200 + 150 * ((T * PerThread + I) % 8);
        SimAddr Region = 0;
        GenerateResult R = generateWithRetry(
            V,
            [&](size_t Bytes) {
              CodeMem CM = B.Mem->allocCode(Bytes);
              Region = CM.Guest;
              return CM;
            },
            [&](CodeMem CM) { return emitAdds(V, CM, N); }, Opts);
        Out[T].push_back({Region, R.RegionBytes, R.Code, N});
        Out[T].push_back({B.Mem->alloc(48, 8), 48, CodePtr{}, 0});
      }
    });
  for (std::thread &Th : Ts)
    Th.join();

  std::vector<Made> All;
  for (const auto &V : Out)
    All.insert(All.end(), V.begin(), V.end());
  std::sort(All.begin(), All.end(),
            [](const Made &X, const Made &Y) { return X.Lo < Y.Lo; });
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LE(All[I - 1].Lo + All[I - 1].Bytes, All[I].Lo)
        << "ranges " << I - 1 << " and " << I << " overlap";
  for (const Made &M : All) {
    if (!M.N)
      continue;
    ASSERT_TRUE(M.Code.isValid());
    EXPECT_GE(M.Bytes, M.Code.SizeBytes);
    EXPECT_EQ(B.Cpu->call(M.Code.Entry, {TypedValue::fromInt(4)}).asInt32(),
              expectAdds(M.N, 4));
  }
}

INSTANTIATE_TEST_SUITE_P(Substrates, GrowthTest,
                         ::testing::ValuesIn(allSubstrateNames()),
                         [](const auto &Info) { return Info.param; });

#ifdef __x86_64__
// Only a native arena has executable pages.
TEST(GrowthHostTest, GrownPagesNotExecutableBeforePublish) {
  Substrate B = makeSubstrate("host");
  const unsigned N = 6000;
  VCode V(*B.Tgt);
  // Growth takes over pages that held published code before a release.
  SimAddr Mark = B.Mem->mark();
  CodePtr Old = emitAdds(V, B.Mem->allocCode(16 * PageBytes), N);
  ASSERT_TRUE(B.Mem->isExecutable(Old.Entry + 4 * PageBytes));
  B.Mem->release(Mark);

  GenerateOptions Opts;
  Opts.InitialBytes = PageBytes;
  SimAddr Region = 0;
  size_t Largest = 0;
  GenerateResult R = generateWithRetry(
      V,
      [&](size_t Bytes) {
        CodeMem CM = B.Mem->allocCode(Bytes);
        Region = CM.Guest;
        return CM;
      },
      [&](CodeMem CM) {
        return emitAdds(V, CM, N, [&](unsigned, Reg) {
          Largest = std::max(Largest, CM.Growth->Size);
          for (SimAddr P = Region; P < Region + CM.Growth->Size;
               P += PageBytes)
            ASSERT_FALSE(B.Mem->isExecutable(P))
                << "page " << (P - Region) / PageBytes
                << " executable before publish";
        });
      },
      Opts);
  ASSERT_TRUE(R.ok()) << R.Err.Detail;
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_GE(Largest, 2 * PageBytes) << "the probes never saw a grown region";

  SimAddr UsedEnd = alignTo(Region + R.Code.SizeBytes, PageBytes);
  for (SimAddr P = Region; P < UsedEnd; P += PageBytes)
    EXPECT_TRUE(B.Mem->isExecutable(P))
        << "used page " << (P - Region) / PageBytes << " not published";
  for (SimAddr P = UsedEnd; P < Region + R.RegionBytes; P += PageBytes)
    EXPECT_FALSE(B.Mem->isExecutable(P))
        << "unused page " << (P - Region) / PageBytes << " published";
  EXPECT_EQ(B.Cpu->call(R.Code.Entry, {TypedValue::fromInt(1)}).asInt32(),
            expectAdds(N, 1));
}
#endif

} // namespace
