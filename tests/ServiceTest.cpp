//===- tests/ServiceTest.cpp - Classifier service churn/differential tests --===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The DPF-at-scale service layer (src/service): the seeded Zipf traffic
// generator's distribution shape and reproducibility, the traffic/filter
// ground-truth agreement, and — the point of the suite — seeded
// churn-under-dispatch runs where install/evict threads race dispatch
// threads over the shared CodeCache while every verdict is checked against
// ground truth and sampled against the reference trie interpreter.
// Bit-identical verdicts under eviction pressure, exactly-once generation
// accounting, and promotion under concurrent dispatch are all asserted on
// the cache's exact counters. CI also runs this suite under TSan.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "service/ClassifierService.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::service;
using namespace vcode::test;

namespace {

//===----------------------------------------------------------------------===//
// Zipf generator
//===----------------------------------------------------------------------===//

TEST(ZipfTest, DistributionShapeAtFixedSeed) {
  VCODE_SEEDED(0x21f1);
  const unsigned N = 10;
  const double S = 1.0;
  ZipfGen G(N, S, TestSeed);
  const unsigned Draws = 200000;
  std::vector<unsigned> Hist(N, 0);
  for (unsigned I = 0; I < Draws; ++I) {
    unsigned R = G.next();
    ASSERT_LT(R, N);
    ++Hist[R];
  }
  // Every rank's empirical frequency within 5% relative + small absolute
  // slack of its analytic probability (200k draws make this tight).
  for (unsigned R = 0; R < N; ++R) {
    double Want = G.probabilityOf(R);
    double Got = double(Hist[R]) / Draws;
    EXPECT_NEAR(Got, Want, Want * 0.05 + 0.002) << "rank " << R;
  }
  // The defining skew: rank 0 carries the most mass, monotone after it.
  for (unsigned R = 1; R < N; ++R)
    EXPECT_GE(Hist[R - 1], Hist[R]) << "rank " << R;
  // s = 0 degenerates to uniform.
  ZipfGen U(4, 0.0, TestSeed);
  for (unsigned R = 0; R < 4; ++R)
    EXPECT_DOUBLE_EQ(U.probabilityOf(R), 0.25);
}

TEST(ZipfTest, ReproducibleAcrossInstances) {
  VCODE_SEEDED(0x21f2);
  ZipfGen A(64, 1.2, TestSeed);
  ZipfGen B(64, 1.2, TestSeed);
  for (int I = 0; I < 10000; ++I)
    ASSERT_EQ(A.next(), B.next()) << "draw " << I;
  // A different seed must give a different stream.
  ZipfGen C(64, 1.2, TestSeed + 1);
  ZipfGen D(64, 1.2, TestSeed);
  int Same = 0;
  for (int I = 0; I < 1000; ++I)
    Same += C.next() == D.next();
  EXPECT_LT(Same, 1000);
}

//===----------------------------------------------------------------------===//
// Traffic generator ground truth
//===----------------------------------------------------------------------===//

TEST(TrafficTest, PacketsMatchExpectedVerdict) {
  VCODE_SEEDED(0x21f3);
  sim::Memory Mem;
  const unsigned Sets = 6, FlowsPerSet = 5;
  std::vector<dpf::Trie> Tries;
  for (unsigned S = 0; S < Sets; ++S)
    Tries.push_back(dpf::Trie::build(makeSetFilters(S, FlowsPerSet)));
  TrafficGen G(Mem, Sets, FlowsPerSet, 1.1, TestSeed);
  bool SawMiss = false, SawHit = false;
  for (int I = 0; I < 5000; ++I) {
    TrafficGen::Pkt P = G.next();
    ASSERT_LT(P.Set, Sets);
    // The generator's claimed verdict is what the set's reference trie
    // actually returns for the packet bytes it wrote.
    ASSERT_EQ(Tries[P.Set].classify(Mem, P.Addr), P.ExpectId) << "pkt " << I;
    // And no other set accepts it (per-set destination IPs disjoint).
    for (unsigned S = 0; S < Sets; ++S) {
      if (S != P.Set) {
        ASSERT_EQ(Tries[S].classify(Mem, P.Addr), -1);
      }
    }
    SawMiss |= P.ExpectId < 0;
    SawHit |= P.ExpectId >= 0;
  }
  EXPECT_TRUE(SawMiss) << "the deliberate-miss flow never drawn";
  EXPECT_TRUE(SawHit);
}

//===----------------------------------------------------------------------===//
// Churn-under-dispatch service runs
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ChurnUnderDispatchDifferential) {
  VCODE_SEEDED(0x21f4);
  Substrate B = makeSubstrate("mips");
  ClassifierService::Config C;
  C.Sets = 12;
  C.FlowsPerSet = 6;
  C.DispatchThreads = 3;
  C.ChurnThreads = 2;
  C.DurationSec = 0.4;
  C.DiffSampleEvery = 7; // sample densely; the run is short
  C.Seed = TestSeed;
  // Eviction pressure on: one entry per shard, 8 shards, 12 live sets.
  C.CacheShards = 8;
  C.CacheEntriesPerShard = 1;
  ClassifierService S(*B.Tgt, *B.Mem, [&B] { return B.makeCpu(); }, C);
  ClassifierService::Report R = S.run();

  // Bit-identical verdicts under eviction pressure: ground truth on every
  // dispatch, the trie differential on every 7th.
  EXPECT_EQ(R.VerdictErrors, 0u);
  EXPECT_EQ(R.Mismatches, 0u);
  EXPECT_TRUE(R.ok());
  EXPECT_GT(R.Dispatches, 0u);
  EXPECT_GT(R.DiffChecks, 0u);
  EXPECT_GE(R.Installs, uint64_t(C.Sets)); // prepopulate alone
  // 12 keys into 8 single-entry shards: eviction must have happened.
  EXPECT_GT(R.Cache.Evictions, 0u);
  // Exactly-once accounting survived the churn.
  EXPECT_TRUE(R.countersReconcile())
      << "installs " << R.Installs << " hits " << R.Cache.Hits << " misses "
      << R.Cache.Misses << " generations " << R.Cache.Generations
      << " failures " << R.Cache.Failures;
  EXPECT_EQ(R.Cache.Failures, 0u);
}

TEST(ServiceTest, ExactlyOnceGenerationWithoutEviction) {
  VCODE_SEEDED(0x21f5);
  Substrate B = makeSubstrate("mips");
  ClassifierService::Config C;
  C.Sets = 8;
  C.FlowsPerSet = 5;
  C.DispatchThreads = 2;
  C.ChurnThreads = 2;
  C.DurationSec = 0.3;
  C.Seed = TestSeed;
  // Cache big enough for every set: reinstalls must all be hits.
  C.CacheShards = 4;
  C.CacheEntriesPerShard = 64;
  ClassifierService S(*B.Tgt, *B.Mem, [&B] { return B.makeCpu(); }, C);
  ClassifierService::Report R = S.run();

  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.countersReconcile());
  // Exactly-once generation: every distinct filter set compiled once, no
  // matter how many times churn reinstalled it.
  EXPECT_EQ(R.Cache.Generations, uint64_t(C.Sets));
  EXPECT_EQ(R.Cache.Evictions, 0u);
  EXPECT_EQ(R.Cache.Misses, uint64_t(C.Sets));
  EXPECT_EQ(R.Cache.Hits, R.Installs - C.Sets);
}

TEST(ServiceTest, PromotionUnderChurn) {
  VCODE_SEEDED(0x21f6);
  Substrate B = makeSubstrate("mips");
  ClassifierService::Config C;
  C.Sets = 2;
  C.FlowsPerSet = 4;
  C.DispatchThreads = 2;
  C.ChurnThreads = 0; // entries must survive to accumulate heat
  C.DurationSec = 0.3;
  C.Seed = TestSeed;
  C.GenTier = Tier::Tier0; // promotion only lifts Tier-0 code
  C.HotThreshold = 50;
  ClassifierService S(*B.Tgt, *B.Mem, [&B] { return B.makeCpu(); }, C);
  ClassifierService::Report R = S.run();

  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.countersReconcile());
  EXPECT_GT(R.Dispatches, 100u);
  // Both sets cross a threshold of 50 within the run; each entry promotes
  // exactly once (the cache's promote gate), under concurrent dispatch.
  EXPECT_GE(R.Cache.Promotions, 1u);
  EXPECT_LE(R.Cache.Promotions, uint64_t(C.Sets));
}

TEST(ServiceTest, ReportSLOFieldsPopulated) {
  VCODE_SEEDED(0x21f7);
  Substrate B = makeSubstrate("mips");
  ClassifierService::Config C;
  C.Sets = 4;
  C.FlowsPerSet = 4;
  C.DispatchThreads = 2;
  C.ChurnThreads = 1;
  C.DurationSec = 0.25;
  C.Seed = TestSeed;
  ClassifierService S(*B.Tgt, *B.Mem, [&B] { return B.makeCpu(); }, C);
  ClassifierService::Report R = S.run();

  EXPECT_TRUE(R.ok());
  // The histogram recorded every install, and its percentiles are sane.
  telemetry::Histogram::Snapshot Inst = S.installLatency();
  EXPECT_EQ(Inst.Count, R.Installs);
  EXPECT_GT(R.InstallP50Us, 0.0);
  EXPECT_LE(R.InstallP50Us, R.InstallP99Us);
  EXPECT_LE(R.InstallP99Us, R.InstallP999Us);
  EXPECT_LE(R.InstallP999Us, R.InstallMaxUs);
  EXPECT_GT(R.DispatchPerSec, 0.0);
  EXPECT_GT(R.InstallsPerSec, 0.0);
  EXPECT_GT(R.HitRatio, 0.0); // churn reinstalls into a big-enough cache
  EXPECT_GT(R.WallSec, 0.0);
}

} // namespace
