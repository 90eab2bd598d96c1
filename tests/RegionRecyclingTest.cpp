//===- tests/RegionRecyclingTest.cpp - The arena owns free code memory ----===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// sim::Memory recycles code regions (freeCode, then a best-fit allocCode)
// and CodeCache keeps only keys, versions and a per-shard LRU list. On
// every substrate:
//
//  - a region one cache frees is served to another cache on the same
//    arena;
//  - release(Mark) drops freed regions above the mark, so the rewound
//    break never hands one out twice;
//  - eviction pops the least recently looked-up key: a key hit between
//    inserts survives, the oldest key not hit goes;
//  - caches on several threads share one free list, and no region is
//    ever handed to two owners at once;
//  - when the arena runs out mid-churn, each failed install is a
//    classified ArenaExhausted error counted in Failures, pinned code
//    keeps running, and once evictions free regions a later install
//    succeeds from them.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/CodeCache.h"
#include "core/Generate.h"
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

class RegionRecyclingTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }

  /// Installs f(a) = a + K + 1 under key "k<K>" in \p Cache, starting
  /// from a \p Bytes region.
  static CodeCache::Handle install(Substrate &S, CodeCache &Cache, unsigned K,
                                   size_t Bytes = 512) {
    return Cache.lookupOrGenerate(
        "k" + std::to_string(K), [&](CodeCache::RegionAlloc &RA) {
          VCode V(*S.Tgt);
          GenerateOptions Opts;
          Opts.InitialBytes = Bytes;
          return generateWithRetry(
              V, [&](size_t N) { return RA(N); },
              [&](CodeMem CM) {
                Reg Arg[1];
                V.lambda("%i", Arg, LeafHint, CM);
                V.addii(Arg[0], Arg[0], int32_t(K) + 1);
                V.reti(Arg[0]);
                return V.end();
              },
              Opts);
        });
  }

  static int32_t call(Substrate &S, const CodeCache::Handle &H, int32_t A) {
    return S.Cpu->call(H.code().Entry, {TypedValue::fromInt(A)}).asInt32();
  }

  static SimAddr regionOf(const CodeCache::Handle &H) {
    return H.pin()->RegionAddr;
  }

  Substrate B;
};

TEST_P(RegionRecyclingTest, RegionFreedByOneCacheServesAnother) {
  CodeCache First(*B.Mem, CodeCache::Options(1, 1));
  CodeCache Second(*B.Mem, CodeCache::Options(1, 1));
  CodeCache::Handle H0 = install(B, First, 0);
  ASSERT_TRUE(H0.valid()) << H0.error().Detail;
  SimAddr Freed = regionOf(H0);
  size_t FreedBytes = H0.regionBytes();
  H0 = CodeCache::Handle();
  // Installing a second key evicts the first; nothing pins it, so its
  // region goes back to the arena.
  ASSERT_TRUE(install(B, First, 1).valid());
  EXPECT_EQ(First.stats().Evictions, 1u);
  EXPECT_EQ(B.Mem->freeCodeBytes(), FreedBytes);

  SimAddr Brk = B.Mem->mark();
  CodeCache::Handle H = install(B, Second, 2);
  ASSERT_TRUE(H.valid()) << H.error().Detail;
  EXPECT_EQ(regionOf(H), Freed);
  EXPECT_EQ(B.Mem->regionsReused(), 1u);
  EXPECT_EQ(B.Mem->freeCodeBytes(), 0u);
  EXPECT_EQ(B.Mem->mark(), Brk) << "the break moved for a reused region";
  EXPECT_EQ(call(B, H, 4), 7);
}

TEST_P(RegionRecyclingTest, ReleaseDropsFreedRegionsAboveTheMark) {
  sim::Memory &Mem = *B.Mem;
  CodeMem Low = Mem.allocCode(256);
  SimAddr Mark = Mem.mark();
  CodeMem High = Mem.allocCode(256);
  Mem.freeCode(Low.Guest, Low.Size);
  Mem.freeCode(High.Guest, High.Size);
  EXPECT_EQ(Mem.freeCodeBytes(), Low.Size + High.Size);

  Mem.release(Mark);
  EXPECT_EQ(Mem.freeCodeBytes(), Low.Size) << "the region above the mark "
                                              "must leave the free list";
  // The region below the mark is reused; the next one comes from the
  // rewound break, and so does every one after it: none twice.
  CodeMem A = Mem.allocCode(256);
  CodeMem C = Mem.allocCode(256);
  CodeMem D = Mem.allocCode(256);
  EXPECT_EQ(A.Guest, Low.Guest);
  EXPECT_EQ(C.Guest, High.Guest);
  EXPECT_GE(D.Guest, C.Guest + C.Size);
  EXPECT_EQ(Mem.regionsReused(), 1u);
  EXPECT_EQ(Mem.freeCodeBytes(), 0u);
}

TEST_P(RegionRecyclingTest, EvictionPopsTheLeastRecentlyLookedUpKey) {
  CodeCache Cache(*B.Mem, CodeCache::Options(1, 2));
  ASSERT_TRUE(install(B, Cache, 0).valid());
  ASSERT_TRUE(install(B, Cache, 1).valid());
  ASSERT_TRUE(install(B, Cache, 0).valid()); // hit: k0 is now the newest
  ASSERT_TRUE(install(B, Cache, 2).valid()); // evicts k1, not k0
  EXPECT_TRUE(Cache.lookup("k0").valid());
  EXPECT_FALSE(Cache.lookup("k1").valid());
  EXPECT_TRUE(Cache.lookup("k2").valid());

  ASSERT_TRUE(install(B, Cache, 3).valid()); // k0 is now the oldest
  EXPECT_FALSE(Cache.lookup("k0").valid());
  EXPECT_TRUE(Cache.lookup("k2").valid());
  EXPECT_TRUE(Cache.lookup("k3").valid());

  CodeCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 4u);
  EXPECT_EQ(St.Generations, 4u);
  EXPECT_EQ(St.Evictions, 2u);
}

TEST_P(RegionRecyclingTest, CachesOnSeveralThreadsShareTheFreeList) {
  // Four threads, each with its own two-entry cache over one arena, churn
  // installs. Evicted regions go back to the arena and any cache reuses
  // them; a region a thread holds a Handle on must never be served again.
  constexpr unsigned Threads = 4, PerThread = 24;
  std::mutex LiveM;
  std::map<SimAddr, size_t> Live; ///< regions some thread holds, base->size
  std::atomic<unsigned> Wrong{0}, Overlaps{0};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      CodeCache Cache(*B.Mem, CodeCache::Options(1, 2));
      std::unique_ptr<sim::Cpu> Cpu = B.makeCpu();
      Cpu->setStackTop(B.Mem->allocStack());
      for (unsigned I = 0; I < PerThread; ++I) {
        unsigned K = 100 * T + I;
        CodeCache::Handle H = install(B, Cache, K);
        if (!H.valid()) {
          Wrong.fetch_add(1);
          continue;
        }
        SimAddr A = regionOf(H);
        {
          std::lock_guard<std::mutex> Lock(LiveM);
          auto Next = Live.lower_bound(A);
          if ((Next != Live.end() && Next->first < A + H.regionBytes()) ||
              (Next != Live.begin() &&
               std::prev(Next)->first + std::prev(Next)->second > A))
            Overlaps.fetch_add(1);
          Live.emplace(A, H.regionBytes());
        }
        if (Cpu->call(H.code().Entry, {TypedValue::fromInt(1)}).asInt32() !=
            int32_t(K) + 2)
          Wrong.fetch_add(1);
        std::lock_guard<std::mutex> Lock(LiveM);
        Live.erase(A);
      }
    });
  for (std::thread &Th : Ts)
    Th.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Overlaps.load(), 0u);
  EXPECT_GT(B.Mem->regionsReused(), 0u);
}

TEST_P(RegionRecyclingTest, ExhaustionMidChurnIsClassifiedAndRecovers) {
  // A 1 MiB arena of 64 KiB regions, a cache of four entries, and a pin
  // on every install: evictions free nothing, so the arena runs out.
  constexpr size_t Region = 64 * 1024;
  auto Arena = GetParam() == "host"
                   ? std::make_unique<sim::Memory>(sim::Memory::Native,
                                                   1 << 20, 4096)
                   : std::make_unique<sim::Memory>(1 << 20, 0x10000000, 4096);
  Substrate S = makeSubstrate(GetParam(), std::move(Arena));
  CodeCache Cache(*S.Mem, CodeCache::Options(1, 4));
  std::vector<std::pair<unsigned, CodeCache::Handle>> Pinned;
  unsigned K = 0;
  CodeCache::Handle Failed;
  for (; K < 32; ++K) {
    CodeCache::Handle H = install(S, Cache, K, Region);
    if (!H.valid()) {
      Failed = H;
      break;
    }
    Pinned.emplace_back(K, H);
  }
  ASSERT_LT(K, 32u) << "the arena never ran out";
  ASSERT_GT(Pinned.size(), 4u) << "no eviction before the arena ran out";
  EXPECT_EQ(Failed.error().Kind, CgErrKind::ArenaExhausted)
      << Failed.error().Detail;
  // Every further install fails the same way while the pins hold.
  for (unsigned J = 1; J <= 2; ++J)
    EXPECT_EQ(install(S, Cache, K + J, Region).error().Kind,
              CgErrKind::ArenaExhausted);
  CodeCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Failures, 3u);
  EXPECT_EQ(St.Misses, St.Generations + St.Failures);
  EXPECT_EQ(St.Evictions, Pinned.size() - 4);
  EXPECT_EQ(S.Mem->freeCodeBytes(), 0u) << "a failed install freed a region";

  // Pinned code, evicted or not, keeps running.
  for (const auto &[Key, H] : Pinned)
    EXPECT_EQ(call(S, H, 10), int32_t(Key) + 11) << "k" << Key;

  // Dropping the pins frees the evicted entries' regions; the failed key
  // then installs from one of them without moving the break.
  size_t Bytes = Pinned.front().second.regionBytes();
  SimAddr Brk = S.Mem->mark();
  Pinned.clear();
  EXPECT_EQ(S.Mem->freeCodeBytes(), St.Evictions * Bytes);
  CodeCache::Handle After = install(S, Cache, K, Region);
  ASSERT_TRUE(After.valid()) << After.error().Detail;
  EXPECT_EQ(call(S, After, 10), int32_t(K) + 11);
  EXPECT_EQ(S.Mem->regionsReused(), 1u);
  EXPECT_EQ(S.Mem->mark(), Brk);
  St = Cache.stats();
  EXPECT_EQ(St.Failures, 3u);
  EXPECT_EQ(St.Misses, St.Generations + St.Failures);
}

INSTANTIATE_TEST_SUITE_P(Substrates, RegionRecyclingTest,
                         ::testing::ValuesIn(allSubstrateNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
