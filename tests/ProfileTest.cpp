//===- tests/ProfileTest.cpp - CodeMap / sampler / export tests -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The introspection subsystem (src/profile/): CodeMap lifecycle and
// boundary lookups, consistency under 8-thread churn (the TSan target),
// v_end integration, cache and DBT installs listed under their keys,
// arenas at the same simulated base keeping their own entries, virtual-PC
// sampler attribution on a known-hot loop, native samples
// credited to a region removed mid-session, structural validation of the
// perf-map and jitdump exports by test-side readers, and disassembler
// round-trips. Every test skips cleanly under -DVCODE_TELEMETRY=OFF, where
// the whole subsystem compiles out.
//
//===----------------------------------------------------------------------===//

#include "core/CodeCache.h"
#include "core/VCode.h"
#include "dbt/TranslationEngine.h"
#include "dpf/Engines.h"
#include "profile/CodeMap.h"
#include "profile/Disasm.h"
#include "profile/JitDump.h"
#include "profile/Profiler.h"
#include "sim/Memory.h"
#include "substrate/Substrate.h"
#include "support/Telemetry.h"
#include "x64/X64Disasm.h"
#include <ctime>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

using namespace vcode;
using sim::TypedValue;

namespace {

/// Every test runs against a clean process-global map and sampler; the
/// whole suite skips when the subsystem is compiled out.
class ProfileTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!telemetry::compiledIn())
      GTEST_SKIP() << "built with -DVCODE_TELEMETRY=OFF";
    profile::CodeMap::instance().resetForTest();
    profile::resetSamplerForTest();
    profile::CodeMap::instance().setCaptureBytes(false);
  }
  void TearDown() override {
    if (!telemetry::compiledIn())
      return;
    profile::closeJitExports();
    profile::CodeMap::instance().resetForTest();
    profile::resetSamplerForTest();
  }
};

/// Host address of \p Buf, the storage a hand-published entry claims.
template <size_t N> uintptr_t hostOf(uint8_t (&Buf)[N]) {
  return reinterpret_cast<uintptr_t>(Buf);
}

/// Host address of simulated address \p A in \p Mem (what the CodeMap
/// keys on).
uintptr_t hostOf(sim::Memory &Mem, SimAddr A) {
  return uintptr_t(Mem.hostPtr(A, 1));
}

/// Publishes sum(n) = 0 + 1 + ... + (n-1) from \p Mem under \p Name: about
/// 4 instructions per iteration, nearly all of them inside one loop.
CodePtr emitSumLoop(Target &Tgt, sim::Memory &Mem, const std::string &Name) {
  VCode V(Tgt);
  Reg Arg[1];
  CodeMem CM = Mem.allocCode(4096);
  CM.Name = &Name;
  V.lambda("%i", Arg, LeafHint, CM);
  Reg S = V.getreg(Type::I), I = V.getreg(Type::I);
  V.setInt(Type::I, S, 0);
  V.setInt(Type::I, I, 0);
  Label L = V.genLabel();
  V.label(L);
  V.binop(BinOp::Add, Type::I, S, S, I);
  V.binopImm(BinOp::Add, Type::I, I, I, 1);
  V.branch(Cond::Lt, Type::I, I, Arg[0], L);
  V.ret(Type::I, S);
  return V.end();
}

TEST_F(ProfileTest, CodeMapLifecycle) {
  auto &M = profile::CodeMap::instance();
  static uint8_t Buf[64];
  const uintptr_t H = hostOf(Buf);
  uint64_t Gen = M.publish(0x1000, 64, 0x1000, H, "f1", "mips", Tier::Tier0);
  EXPECT_GT(Gen, 0u);
  auto St = M.stats();
  EXPECT_EQ(St.Published, 1u);
  EXPECT_EQ(St.Live, 1u);

  auto E = M.lookup(H + 0x20);
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Name, "f1");
  EXPECT_STREQ(E->Target, "mips");
  EXPECT_EQ(E->Addr, 0x1000u);
  EXPECT_EQ(E->Bytes, 64u);
  EXPECT_EQ(E->Generation, Gen);

  EXPECT_EQ(M.findByName("f1"), E);

  M.remove(H);
  M.remove(H); // absent: no-op, must not double-count
  St = M.stats();
  EXPECT_EQ(St.Live, 0u);
  EXPECT_EQ(St.Removed, 1u);
  EXPECT_FALSE(M.lookup(H + 0x20));
  EXPECT_TRUE(M.entries().empty());
}

TEST_F(ProfileTest, CodeMapBoundaryLookups) {
  auto &M = profile::CodeMap::instance();
  // Two back-to-back regions: every PC must land in exactly one.
  static uint8_t Buf[0x60];
  const uintptr_t H = hostOf(Buf);
  M.publish(0x2000, 0x40, 0x2000, H, "lo", "mips", Tier::Tier0);
  M.publish(0x2040, 0x20, 0x2040, H + 0x40, "hi", "mips", Tier::Tier0);

  EXPECT_FALSE(M.lookup(H - 1));
  ASSERT_TRUE(M.lookup(H));
  EXPECT_EQ(M.lookup(H)->Name, "lo");
  EXPECT_EQ(M.lookup(H + 0x3F)->Name, "lo");
  EXPECT_EQ(M.lookup(H + 0x40)->Name, "hi"); // first byte of the next region
  EXPECT_EQ(M.lookup(H + 0x5F)->Name, "hi");
  EXPECT_FALSE(M.lookup(H + 0x60));
}

TEST_F(ProfileTest, CodeMapOverlapEvictsAndFoldsHeat) {
  auto &M = profile::CodeMap::instance();
  static uint8_t Buf[0x180];
  const uintptr_t H = hostOf(Buf);
  M.publish(0x4000, 0x100, 0x4000, H, "old", "mips", Tier::Tier0);
  auto Old = M.lookup(H);
  ASSERT_TRUE(Old);
  Old->Samples.fetch_add(5, std::memory_order_relaxed);

  // The arena reuses freed code regions: a publish overlapping a live
  // entry evicts it, and its heat survives in the retired tally.
  M.publish(0x4080, 0x100, 0x4080, H + 0x80, "new", "mips", Tier::Tier0);
  EXPECT_FALSE(M.findByName("old"));
  EXPECT_EQ(M.lookup(H + 0xFF)->Name, "new");
  auto St = M.stats();
  EXPECT_EQ(St.Published, 2u);
  EXPECT_EQ(St.Removed, 1u);
  EXPECT_EQ(St.Live, 1u);

  bool Found = false;
  for (const auto &P : M.retiredHeat())
    if (P.first == "old") {
      Found = true;
      EXPECT_EQ(P.second, 5u);
    }
  EXPECT_TRUE(Found) << "retired heat lost the evicted entry's samples";
}

// A retry driver or code cache republishes where it just released: the
// new entry replaces the old one, and a reader still holding the old
// entry sees it unchanged.
TEST_F(ProfileTest, CodeMapRepublishInPlace) {
  auto &M = profile::CodeMap::instance();
  static uint8_t Buf[64], Other[64];
  const uintptr_t Host = hostOf(Buf);
  M.publish(0x8000, 64, 0x8000, Host, "a", "x64", Tier::Tier0);
  auto A = M.lookup(Host + 8);
  ASSERT_TRUE(A);
  for (int I = 0; I < 3; ++I)
    M.publish(0x8000, 64, 0x8000, Host, "b" + std::to_string(I), "x64",
              Tier::Tier0);
  EXPECT_EQ(A->Name, "a");
  EXPECT_EQ(M.lookup(Host + 8)->Name, "b2");
  auto St = M.stats();
  EXPECT_EQ(St.Published, 4u);
  EXPECT_EQ(St.Removed, 3u);
  EXPECT_EQ(St.Live, 1u);

  // Same guest address, other host storage (another arena): a second
  // region, not a replacement.
  M.publish(0x8000, 64, 0x8000, hostOf(Other), "c", "x64", Tier::Tier0);
  EXPECT_EQ(M.lookup(Host + 8)->Name, "b2");
  EXPECT_EQ(M.lookup(hostOf(Other) + 8)->Name, "c");
  M.remove(Host);
  EXPECT_FALSE(M.lookup(Host + 8));
  EXPECT_EQ(M.lookup(hostOf(Other) + 8)->Name, "c");
  M.remove(hostOf(Other));
  EXPECT_EQ(M.stats().Live, 0u);
}

/// The TSan target: concurrent publish/lookup/remove across 8 threads with
/// a dedicated reader thread walking the entries the whole time. Every
/// writer publishes at the same simulated addresses, as arenas at one
/// default base do, but into its own host storage, so the final census is
/// exact.

TEST_F(ProfileTest, CodeMapChurnEightThreads) {
  auto &M = profile::CodeMap::instance();
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 1500;
  constexpr unsigned kSlots = 8;

  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    uint64_t Walks = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      for (const auto &E : M.entries()) {
        // Entries are fixed at publish: reading through a concurrent
        // evict must always see consistent metadata.
        ASSERT_NE(E->Bytes, 0u);
        ASSERT_FALSE(E->Name.empty());
      }
      ++Walks;
    }
    EXPECT_GT(Walks, 0u);
  });

  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < kThreads; ++T)
    Writers.emplace_back([&M, T] {
      std::vector<uint8_t> Arena(kSlots * 0x100);
      const uintptr_t Base = reinterpret_cast<uintptr_t>(Arena.data());
      for (unsigned I = 0; I < kIters; ++I) {
        uint64_t Off = (I % kSlots) * 0x100;
        M.publish(0x10000000 + Off, 0x80, 0x10000000 + Off, Base + Off,
                  "churn:" + std::to_string(T) + ":" +
                      std::to_string(I % kSlots),
                  "mips", Tier::Tier0);
        auto E = M.lookup(Base + Off + 0x40);
        ASSERT_TRUE(E);
        E->Samples.fetch_add(1, std::memory_order_relaxed);
        if (I % 3 != 0)
          M.remove(Base + Off); // else: left live, overlap-evicted on reuse
      }
      for (unsigned S = 0; S < kSlots; ++S)
        M.remove(Base + S * 0x100);
    });
  for (auto &W : Writers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();

  auto St = M.stats();
  EXPECT_EQ(St.Published, uint64_t(kThreads) * kIters);
  EXPECT_EQ(St.Live, 0u);
  EXPECT_EQ(St.Published - St.Removed, St.Live);
  EXPECT_TRUE(M.entries().empty());

  // Every one of the 12000 lookups bumped a counter; all of that heat
  // must have folded into the retired tally (bounded set of names here).
  uint64_t Retired = 0;
  for (const auto &P : M.retiredHeat())
    Retired += P.second;
  EXPECT_EQ(Retired, uint64_t(kThreads) * kIters);
}

TEST_F(ProfileTest, VEndPublishesNamedEntry) {
  auto &M = profile::CodeMap::instance();
  M.setCaptureBytes(true);
  Substrate B = makeSubstrate("mips");

  VCode V(*B.Tgt);
  Reg Arg[1];
  const std::string Name = "test:plus1";
  CodeMem CM = B.Mem->allocCode(4096);
  CM.Name = &Name;
  V.lambda("%i", Arg, LeafHint, CM);
  V.addii(Arg[0], Arg[0], 1);
  V.reti(Arg[0]);
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());

  auto E = M.findByName("test:plus1");
  ASSERT_TRUE(E) << "v_end did not publish into the CodeMap";
  EXPECT_STREQ(E->Target, "mips");
  EXPECT_EQ(E->Entry, Fn.Entry);
  EXPECT_GT(E->Bytes, 0u);
  EXPECT_EQ(M.lookup(hostOf(*B.Mem, Fn.Entry)).get(), E.get());
  ASSERT_FALSE(E->Code.empty()); // capture was on
  EXPECT_EQ(E->Code.size(), E->Bytes);

  // The published bytes round-trip through the registered disassembler.
  std::string Text;
  profile::DumpStats S = profile::dumpEntry(*E, Text);
  EXPECT_TRUE(S.HaveDisasm);
  EXPECT_TRUE(S.HaveBytes);
  EXPECT_EQ(S.Undecodable, 0u);
  EXPECT_EQ(S.Instrs, E->Bytes / 4);
  EXPECT_NE(Text.find("test:plus1"), std::string::npos);
}

/// A cached install is listed under its cache key from the moment v_end
/// publishes it: Tier-0 on install, Tier-1 once promoted (the old region
/// unregistered), and its heat retires under the key on eviction.
TEST_F(ProfileTest, CachedInstallListedUnderKey) {
  auto &M = profile::CodeMap::instance();
  Substrate S = makeSubstrate("mips");
  CodeCache Cache(*S.Mem, CodeCache::Options(/*Shards=*/1,
                                             /*MaxEntriesPerShard=*/1));
  dpf::DpfEngine Eng(*S.Tgt, *S.Mem);
  Eng.setTier(Tier::Tier0); // independent of VCODE_TIER
  auto Filters = dpf::makeTcpIpFilters(3);
  std::string Key = Eng.sharedCacheKey(Filters);

  ASSERT_FALSE(Eng.installShared(Cache, Filters)); // generates
  CodeCache::Handle H = Cache.lookup(Key);
  ASSERT_TRUE(H);
  auto E = M.findByName(Key);
  ASSERT_TRUE(E) << "cached install not listed under its key";
  EXPECT_EQ(E->Entry, H.code().Entry);
  EXPECT_EQ(E->GenTier, Tier::Tier0);
  EXPECT_STREQ(E->Target, "mips");
  uint64_t OldAddr = E->Addr;
  uintptr_t OldHost = E->Host;

  ASSERT_TRUE(Eng.promoteShared());
  auto P = M.findByName(Key);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Entry, H.code().Entry);
  EXPECT_EQ(P->GenTier, Tier::Tier1);
  EXPECT_NE(P->Addr, OldAddr);
  EXPECT_FALSE(M.lookup(OldHost)) << "promoted-away region still listed";

  // Evict: a second set pushes the first out of the one-slot shard, and
  // dropping the last handles frees its region.
  P->Samples.fetch_add(7, std::memory_order_relaxed);
  Eng.installShared(Cache, dpf::makeTcpIpFilters(4));
  H = CodeCache::Handle();
  EXPECT_FALSE(M.findByName(Key));
  uint64_t Heat = 0;
  for (const auto &R : M.retiredHeat())
    if (R.first == Key)
      Heat += R.second;
  EXPECT_EQ(Heat, 7u);
}

/// A DBT translation is listed under its cache key with the guest-PC
/// range it was lifted from.
TEST_F(ProfileTest, TranslationListedWithGuestRange) {
  if (!dbt::TranslationEngine::hostSupported())
    GTEST_SKIP() << "binary translation needs an x86-64 host with mmap";
  auto &M = profile::CodeMap::instance();
  Substrate S = makeSubstrate("dbt");
  dbt::TranslationEngine &Eng = *S.Engine;
  if (!Eng.available())
    GTEST_SKIP() << "guest arena above 4 GiB";

  VCode V(*S.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, S.Mem->allocCode(4096));
  V.binopImm(BinOp::Mul, Type::I, Arg[0], Arg[0], 3);
  V.ret(Type::I, Arg[0]);
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());

  CodeCache::Handle H = Eng.translate(Fn.Entry, 0);
  ASSERT_TRUE(H);
  auto E = M.lookup(H.code().Entry);
  ASSERT_TRUE(E) << "translation not listed";
  // Keyed by entry PC, the guest range it was lifted from and that range's
  // code stamp.
  char Key[96];
  std::snprintf(Key, sizeof(Key), "dbt:%llx:%llx-%llx:s%llu",
                (unsigned long long)Fn.Entry, (unsigned long long)E->GuestLo,
                (unsigned long long)E->GuestHi,
                (unsigned long long)S.Mem->codeStamp(E->GuestLo, E->GuestHi));
  EXPECT_EQ(E->Name, Key);
  EXPECT_STREQ(E->Target, "x64");
  EXPECT_LT(E->GuestLo, E->GuestHi);
  EXPECT_LE(E->GuestLo, Fn.Entry);
  EXPECT_LT(Fn.Entry, E->GuestHi);
}

/// Every simulated arena maps at the same default base, so two arenas'
/// first functions share a simulated address. Keyed by host address, both
/// stay live and each lookup resolves to its own entry.
TEST_F(ProfileTest, CodeMapArenasAtSameBaseKeepOwnEntries) {
  auto &M = profile::CodeMap::instance();
  Substrate A = makeSubstrate("mips"), B = makeSubstrate("mips");
  CodePtr FA = emitSumLoop(*A.Tgt, *A.Mem, "arena:a");
  CodePtr FB = emitSumLoop(*B.Tgt, *B.Mem, "arena:b");
  ASSERT_TRUE(FA.isValid() && FB.isValid());
  ASSERT_EQ(FA.Entry, FB.Entry) << "the arenas should share addresses";

  auto St = M.stats();
  EXPECT_EQ(St.Published, 2u);
  EXPECT_EQ(St.Removed, 0u);
  EXPECT_EQ(St.Live, 2u);
  auto EA = M.findByName("arena:a"), EB = M.findByName("arena:b");
  ASSERT_TRUE(EA);
  ASSERT_TRUE(EB);
  EXPECT_EQ(M.lookup(hostOf(*A.Mem, FA.Entry)), EA);
  EXPECT_EQ(M.lookup(hostOf(*B.Mem, FB.Entry)), EB);
}

/// A CodeCache retiring its region unregisters only that region, not
/// another arena's entry at the same simulated address.
TEST_F(ProfileTest, CodeMapCacheRetireKeepsOtherArenasEntry) {
  auto &M = profile::CodeMap::instance();
  auto Install = [&](Substrate &S, CodeCache &Cache, const std::string &Key) {
    return Cache.lookupOrGenerate(Key, [&](CodeCache::RegionAlloc &RA) {
      VCode V(*S.Tgt);
      return generateWithRetry(
          V, [&](size_t N) { return RA(N); },
          [&](CodeMem CM) {
            Reg Arg[1];
            V.lambda("%i", Arg, LeafHint, CM);
            V.addii(Arg[0], Arg[0], 1);
            V.reti(Arg[0]);
            return V.end();
          });
    });
  };
  Substrate SB = makeSubstrate("mips");
  CodeCache CacheB(*SB.Mem);
  CodeCache::Handle HB;
  {
    Substrate SA = makeSubstrate("mips");
    CodeCache CacheA(*SA.Mem);
    CodeCache::Handle HA = Install(SA, CacheA, "cache:a");
    HB = Install(SB, CacheB, "cache:b");
    ASSERT_TRUE(HA);
    ASSERT_TRUE(HB);
    ASSERT_EQ(HA.pin()->RegionAddr, HB.pin()->RegionAddr)
        << "the arenas should share addresses";
    EXPECT_TRUE(M.findByName("cache:a"));
    EXPECT_EQ(M.stats().Live, 2u);
  } // cache A retires its region
  auto EB = M.findByName("cache:b");
  ASSERT_TRUE(EB) << "retiring arena A's region dropped arena B's entry";
  EXPECT_FALSE(M.findByName("cache:a"));
  EXPECT_EQ(M.lookup(hostOf(*SB.Mem, HB.code().Entry)), EB);
  EXPECT_EQ(M.stats().Live, 1u);
}

TEST_F(ProfileTest, VirtualSamplerAttributesHotLoop) {
  auto &M = profile::CodeMap::instance();
  Substrate S = makeSubstrate("mips");

  // 1.5M iterations is ~6M instructions — well past the 4096-instruction
  // sampling period.
  CodePtr Fn = emitSumLoop(*S.Tgt, *S.Mem, "hot:sum");
  ASSERT_TRUE(Fn.isValid());

  profile::startSampler(); // native timer may not arm; virtual always does
  ASSERT_TRUE(profile::samplerActive());
  const int64_t N = 1'500'000;
  TypedValue R = S.Cpu->call(Fn.Entry, {TypedValue::fromInt(N)});
  profile::stopSampler();
  EXPECT_FALSE(profile::samplerActive());
  EXPECT_EQ(uint32_t(R.asInt32()), uint32_t(N * (N - 1) / 2));

  profile::SamplerStats PS = profile::samplerStats();
  EXPECT_GE(PS.VirtualSamples, 100u);
  // The acceptance bar: >= 95% of samples attribute to live entries. Here
  // essentially every sampled PC is inside the loop.
  EXPECT_GE(PS.VirtualAttributed * 100, PS.VirtualSamples * 95)
      << PS.VirtualAttributed << " of " << PS.VirtualSamples
      << " samples attributed";
  auto E = M.findByName("hot:sum");
  ASSERT_TRUE(E);
  EXPECT_GE(E->Samples.load(std::memory_order_relaxed),
            PS.VirtualAttributed);

  // Sampling is a session: with the sampler stopped, the clock keeps
  // crossing the period boundary but no samples accrue.
  S.Cpu->call(Fn.Entry, {TypedValue::fromInt(100'000)});
  profile::SamplerStats PS2 = profile::samplerStats();
  EXPECT_EQ(PS2.VirtualSamples, PS.VirtualSamples);
}

/// Two mips substrates at the same base run functions at the same
/// simulated address: each one's samples go to its own entry.
TEST_F(ProfileTest, VirtualSamplerAttributesPerSubstrate) {
  auto &M = profile::CodeMap::instance();
  Substrate A = makeSubstrate("mips"), B = makeSubstrate("mips");
  CodePtr FA = emitSumLoop(*A.Tgt, *A.Mem, "hot:a");
  CodePtr FB = emitSumLoop(*B.Tgt, *B.Mem, "hot:b");
  ASSERT_TRUE(FA.isValid() && FB.isValid());
  ASSERT_EQ(FA.Entry, FB.Entry) << "the arenas should share addresses";
  auto EA = M.findByName("hot:a"), EB = M.findByName("hot:b");
  ASSERT_TRUE(EA);
  ASSERT_TRUE(EB);

  profile::startSampler();
  A.Cpu->call(FA.Entry, {TypedValue::fromInt(500'000)});
  const uint64_t HeatA = EA->Samples.load(std::memory_order_relaxed);
  EXPECT_GT(HeatA, 0u);
  EXPECT_EQ(EB->Samples.load(std::memory_order_relaxed), 0u)
      << "samples of substrate A charged to B";
  B.Cpu->call(FB.Entry, {TypedValue::fromInt(250'000)});
  profile::stopSampler();
  const uint64_t HeatB = EB->Samples.load(std::memory_order_relaxed);
  EXPECT_EQ(EA->Samples.load(std::memory_order_relaxed), HeatA)
      << "samples of substrate B charged to A";
  EXPECT_GT(HeatB, 0u);
  EXPECT_EQ(profile::samplerStats().VirtualAttributed, HeatA + HeatB);
}

/// Native samples wait in the SIGPROF ring until a drain attributes them.
/// A region removed before the session ends must still be credited with
/// the samples taken while it ran, under its own name.
TEST_F(ProfileTest, NativeSamplesAttributedBeforeRemoval) {
#if !defined(__linux__) || !defined(__x86_64__)
  GTEST_SKIP() << "native sampling is Linux/x86-64 only";
#else
  auto &M = profile::CodeMap::instance();
  Substrate S = makeSubstrate("host");

  CodePtr Fn = emitSumLoop(*S.Tgt, *S.Mem, "hot:native");
  ASSERT_TRUE(Fn.isValid());
  auto E = M.findByName("hot:native");
  ASSERT_TRUE(E);

  if (!profile::startSampler()) {
    profile::stopSampler();
    GTEST_SKIP() << "cannot arm the profiling timer here";
  }
  // About 300 ms of CPU, nearly all of it inside the generated loop.
  auto CpuMs = [] {
    timespec T;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
    return double(T.tv_sec) * 1e3 + double(T.tv_nsec) / 1e6;
  };
  const double Start = CpuMs();
  while (CpuMs() - Start < 300)
    S.Cpu->call(Fn.Entry, {TypedValue::fromInt(1'000'000)});
  M.remove(E->Host);
  profile::stopSampler();

  uint64_t Heat = 0;
  for (const auto &R : M.retiredHeat())
    if (R.first == "hot:native")
      Heat += R.second;
  EXPECT_GT(Heat, 0u) << profile::samplerStats().NativeSamples
                      << " native samples, none credited to the region";
#endif
}

TEST_F(ProfileTest, PerfMapStructure) {
  auto &M = profile::CodeMap::instance();
  std::string Path = ::testing::TempDir() + "vcode_profiletest_perf.map";
  ASSERT_TRUE(profile::enablePerfMap(Path.c_str()));
  EXPECT_EQ(profile::perfMapPath(), Path);

  static uint8_t SimBuf[0x40], HostBuf[32];
  uintptr_t S = hostOf(SimBuf), H = hostOf(HostBuf);
  M.publish(0x7000, sizeof(SimBuf), 0x7000, S, "sim fn", "mips",
            Tier::Tier0);
  M.publish(0x8000, sizeof(HostBuf), 0x8000, H, "hosted_fn", "x64",
            Tier::Tier1);
  profile::closeJitExports();

  // Test-side reader: every line is "<hex addr> <hex size> <name>" with
  // the host address, simulated regions included (perf samples host
  // RIPs). Names may contain spaces — everything after the second field.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  std::vector<std::string> Lines;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 2u);

  uint64_t A0, S0, A1, S1;
  char Name1[64];
  ASSERT_EQ(std::sscanf(Lines[0].c_str(), "%llx %llx",
                        (unsigned long long *)&A0,
                        (unsigned long long *)&S0),
            2);
  EXPECT_EQ(A0, uint64_t(S));
  EXPECT_EQ(S0, sizeof(SimBuf));
  EXPECT_NE(Lines[0].find("sim fn"), std::string::npos);
  ASSERT_EQ(std::sscanf(Lines[1].c_str(), "%llx %llx %63s",
                        (unsigned long long *)&A1,
                        (unsigned long long *)&S1, Name1),
            3);
  EXPECT_EQ(A1, uint64_t(H));
  EXPECT_EQ(S1, sizeof(HostBuf));
  EXPECT_STREQ(Name1, "hosted_fn");
}

TEST_F(ProfileTest, JitdumpStructure) {
#if !defined(__linux__) || !defined(__x86_64__)
  GTEST_SKIP() << "jitdump is a Linux/x86-64 perf interface";
#else
  auto &M = profile::CodeMap::instance();
  M.setCaptureBytes(true);
  std::string Path = ::testing::TempDir() + "vcode_profiletest.dump";
  if (!profile::enableJitDump(Path.c_str()))
    GTEST_SKIP() << "cannot create a jitdump here";
  EXPECT_EQ(profile::jitDumpPath(), Path);

  static uint8_t CodeBuf[16] = {0x48, 0x89, 0xd8, 0xc3, 0x90, 0x90,
                                0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
                                0x90, 0x90, 0x90, 0x90};
  uintptr_t H = reinterpret_cast<uintptr_t>(CodeBuf);
  M.publish(0x9000, sizeof(CodeBuf), 0x9000, H, "jitfn", "x64",
            Tier::Tier0);
  profile::closeJitExports();

  // Test-side reader for the jitdump-specification.txt layout.
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  std::string D = SS.str();
  ASSERT_GE(D.size(), size_t(40 + 56));

  auto U32 = [&](size_t Off) {
    uint32_t V;
    std::memcpy(&V, D.data() + Off, 4);
    return V;
  };
  auto U64 = [&](size_t Off) {
    uint64_t V;
    std::memcpy(&V, D.data() + Off, 8);
    return V;
  };
  // File header: magic "JiTD", version 1, 40-byte size, EM_X86_64.
  EXPECT_EQ(U32(0), 0x4A695444u);
  EXPECT_EQ(U32(4), 1u);
  EXPECT_EQ(U32(8), 40u);
  EXPECT_EQ(U32(12), 62u);

  // One JIT_CODE_LOAD record: header + load + NUL name + code bytes.
  size_t R = 40;
  EXPECT_EQ(U32(R + 0), 0u); // record id
  size_t NameLen = std::strlen("jitfn") + 1;
  EXPECT_EQ(U32(R + 4), 56u + NameLen + sizeof(CodeBuf));
  EXPECT_EQ(U64(R + 24), uint64_t(H));        // vma
  EXPECT_EQ(U64(R + 32), uint64_t(H));        // code addr
  EXPECT_EQ(U64(R + 40), sizeof(CodeBuf));    // code size
  ASSERT_GE(D.size(), R + 56 + NameLen + sizeof(CodeBuf));
  EXPECT_STREQ(D.data() + R + 56, "jitfn");
  EXPECT_EQ(std::memcmp(D.data() + R + 56 + NameLen, CodeBuf,
                        sizeof(CodeBuf)),
            0);
#endif
}

TEST_F(ProfileTest, X64DisasmKnownEncodings) {
  // mov rax, rbx — REX.W + 89 /r.
  const uint8_t Mov[] = {0x48, 0x89, 0xd8};
  std::string Text;
  EXPECT_EQ(x64::decodeOne(Mov, sizeof(Mov), 0x1000, Text), 3u);
  EXPECT_NE(Text.find("mov"), std::string::npos);
  EXPECT_NE(Text.find("rax"), std::string::npos);
  EXPECT_NE(Text.find("rbx"), std::string::npos);

  const uint8_t Ret[] = {0xc3};
  Text.clear();
  EXPECT_EQ(x64::decodeOne(Ret, 1, 0x1000, Text), 1u);
  EXPECT_NE(Text.find("ret"), std::string::npos);

  // 0x06 (push es) does not exist in 64-bit mode and the backend never
  // emits it: the decoder must refuse, which is what makes the vcodegen
  // round-trip check able to fail.
  const uint8_t Bad[] = {0x06, 0x00, 0x00};
  Text.clear();
  EXPECT_EQ(x64::decodeOne(Bad, sizeof(Bad), 0x1000, Text), 0u);

  // Truncated instruction: a REX prefix with no opcode byte after it.
  const uint8_t Trunc[] = {0x48};
  Text.clear();
  EXPECT_EQ(x64::decodeOne(Trunc, 1, 0x1000, Text), 0u);
}

TEST_F(ProfileTest, ReportSectionsPresent) {
  auto &M = profile::CodeMap::instance();
  static uint8_t Buf[0x40];
  M.publish(0xA000, sizeof(Buf), 0xA000, hostOf(Buf), "rpt:fn", "mips",
            Tier::Tier0);
  auto E = M.lookup(hostOf(Buf));
  ASSERT_TRUE(E);
  E->Samples.fetch_add(3, std::memory_order_relaxed);

  std::string Out;
  M.appendReport(Out);
  EXPECT_NE(Out.find("codemap:"), std::string::npos);
  EXPECT_NE(Out.find("rpt:fn"), std::string::npos);

  std::string Prof;
  profile::appendProfileReport(Prof);
  EXPECT_NE(Prof.find("profile:"), std::string::npos);
}

} // namespace
