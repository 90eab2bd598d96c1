//===- tests/DpfStressTest.cpp - DPF stress and fuzz tests ---------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Beyond the Table 3 workload: filters that branch at several fields
// (multi-level dispatch in the compiled trie), masked fields, dynamic
// filter-set changes ("new protocols ... downloaded into the packet filter
// driver"), and randomized filter sets checked against a host reference.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dpf/Engines.h"
#include "support/Rng.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::dpf;
using namespace vcode::test;

namespace {

class DpfStressTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

int refClassify(const std::vector<Filter> &Filters, const sim::Memory &M,
                SimAddr Msg) {
  for (const Filter &F : Filters) {
    bool Match = true;
    for (const Atom &A : F.Atoms) {
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

TEST_P(DpfStressTest, TwoLevelDispatch) {
  // Filters diverge at BOTH the destination IP (3 subnets) and the port
  // (5 ports each): the compiled trie dispatches twice.
  std::vector<Filter> Filters;
  int Id = 0;
  for (uint32_t Net = 0; Net < 3; ++Net)
    for (uint32_t P = 0; P < 5; ++P) {
      Filter F;
      F.Id = Id++;
      F.Atoms.push_back(Atom{pkt::VersionOff, 1, 0xff, 0x45});
      F.Atoms.push_back(Atom{pkt::ProtoOff, 1, 0xff, 6});
      F.Atoms.push_back(Atom{pkt::DstIpOff, 4, 0xffffffff, 0x0a000001 + Net});
      F.Atoms.push_back(Atom{pkt::DstPortOff, 2, 0xffff, 5000 + P});
      Filters.push_back(std::move(F));
    }

  MpfEngine Mpf(*B.Tgt, *B.Mem);
  PathFinderEngine Pf(*B.Tgt, *B.Mem);
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  Mpf.install(Filters);
  Pf.install(Filters);
  Dpf.install(Filters);

  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  for (uint32_t Net = 0; Net < 4; ++Net)
    for (uint32_t P = 0; P < 7; ++P) {
      writeTcpPacket(*B.Mem, Msg, uint16_t(5000 + P), 0x0a000001 + Net);
      int Want = refClassify(Filters, *B.Mem, Msg);
      EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), Want) << Net << ":" << P;
      EXPECT_EQ(Pf.classify(*B.Cpu, Msg), Want) << Net << ":" << P;
      EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), Want) << Net << ":" << P;
    }
}

TEST_P(DpfStressTest, MaskedFields) {
  // Classify on the top nibble of the first byte and the low 12 bits of
  // the port (mask-heavy filters).
  std::vector<Filter> Filters;
  for (int I = 0; I < 4; ++I) {
    Filter F;
    F.Id = I;
    F.Atoms.push_back(Atom{pkt::VersionOff, 1, 0xf0, 0x40});
    F.Atoms.push_back(Atom{pkt::DstPortOff, 2, 0x0fff, uint32_t(0x100 + I)});
    Filters.push_back(std::move(F));
  }
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  MpfEngine Mpf(*B.Tgt, *B.Mem);
  Dpf.install(Filters);
  Mpf.install(Filters);

  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  for (uint32_t Port : {0x100u, 0x101u, 0x103u, 0x1103u, 0xf102u, 0x200u}) {
    writeTcpPacket(*B.Mem, Msg, uint16_t(Port));
    int Want = refClassify(Filters, *B.Mem, Msg);
    EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), Want) << std::hex << Port;
    EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), Want) << std::hex << Port;
  }
  // High-nibble mismatch (version 5) must reject.
  writeTcpPacket(*B.Mem, Msg, 0x100);
  B.Mem->write<uint8_t>(Msg + pkt::VersionOff, 0x55);
  EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), -1);
}

TEST_P(DpfStressTest, DynamicReinstall) {
  // Filters come and go at runtime; each install recompiles the
  // classifier (the whole point of *dynamic* packet filters).
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);

  for (unsigned N : {1u, 3u, 7u, 2u, 12u}) {
    std::vector<Filter> Filters = makeTcpIpFilters(N, 7000);
    Dpf.install(Filters);
    writeTcpPacket(*B.Mem, Msg, uint16_t(7000 + N - 1));
    EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), int(N - 1));
    writeTcpPacket(*B.Mem, Msg, uint16_t(7000 + N));
    EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), -1)
        << "stale filter survived reinstall";
  }
}

TEST_P(DpfStressTest, RandomFilterSetsAgainstReference) {
  Rng R(2024);
  for (int Trial = 0; Trial < 12; ++Trial) {
    // Random filter sets over 3 fields with random fan-out.
    unsigned NumFilters = 1 + unsigned(R.below(12));
    std::vector<Filter> Filters;
    std::vector<uint16_t> Ports;
    for (unsigned I = 0; I < NumFilters; ++I) {
      Filter F;
      F.Id = int(I);
      F.Atoms.push_back(Atom{pkt::VersionOff, 1, 0xff, 0x45});
      F.Atoms.push_back(
          Atom{pkt::ProtoOff, 1, 0xff, uint32_t(R.chance(1, 2) ? 6 : 17)});
      uint16_t Port = uint16_t(1000 + R.below(40));
      F.Atoms.push_back(Atom{pkt::DstPortOff, 2, 0xffff, Port});
      Ports.push_back(Port);
      // Duplicate (proto, port) pairs would be duplicate filters; the
      // reference takes the first, the trie fatals. Skip duplicates.
      bool Dup = false;
      for (unsigned J = 0; J + 1 < Filters.size() + 1 && J < I; ++J)
        if (Filters[J].Atoms[1].Value == F.Atoms[1].Value &&
            Filters[J].Atoms[2].Value == F.Atoms[2].Value)
          Dup = true;
      if (!Dup)
        Filters.push_back(std::move(F));
    }
    for (size_t I = 0; I < Filters.size(); ++I)
      Filters[I].Id = int(I);

    MpfEngine Mpf(*B.Tgt, *B.Mem);
    PathFinderEngine Pf(*B.Tgt, *B.Mem);
    DpfEngine Dpf(*B.Tgt, *B.Mem);
    Mpf.install(Filters);
    Pf.install(Filters);
    Dpf.install(Filters);

    SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
    for (int Probe = 0; Probe < 25; ++Probe) {
      uint16_t Port = uint16_t(1000 + R.below(45));
      writeTcpPacket(*B.Mem, Msg, Port);
      if (R.chance(1, 3))
        B.Mem->write<uint8_t>(Msg + pkt::ProtoOff, 17);
      int Want = refClassify(Filters, *B.Mem, Msg);
      ASSERT_EQ(Mpf.classify(*B.Cpu, Msg), Want)
          << "mpf trial " << Trial << " probe " << Probe;
      ASSERT_EQ(Pf.classify(*B.Cpu, Msg), Want)
          << "pathfinder trial " << Trial << " probe " << Probe;
      ASSERT_EQ(Dpf.classify(*B.Cpu, Msg), Want)
          << "dpf trial " << Trial << " probe " << Probe;
    }
  }
}

TEST_P(DpfStressTest, EvictionPressurePinnedHandlesSurvive) {
  // A cache sized to a fraction of the live filter sets: 1 shard with 2
  // entries, 6 engines each pinning their own set. Installs are serial,
  // so the LRU accounting below is deterministic.
  CodeCache Cache(*B.Mem, CodeCache::Options(1, 2));
  const unsigned Sets = 6, PerSet = 4;
  std::vector<std::unique_ptr<DpfEngine>> Engines;
  std::vector<std::vector<Filter>> Sets_;
  for (unsigned S = 0; S < Sets; ++S) {
    Sets_.push_back(
        makeTcpIpFilters(PerSet, uint16_t(2000 + 100 * S), 0x0a000001 + S));
    Engines.push_back(std::make_unique<DpfEngine>(*B.Tgt, *B.Mem));
    Engines.back()->installShared(Cache, Sets_.back());
  }
  // Capacity 2: installs 3..6 each evicted one entry.
  CodeCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Misses, uint64_t(Sets));
  EXPECT_EQ(St.Generations, uint64_t(Sets));
  EXPECT_EQ(St.Evictions, uint64_t(Sets - 2));
  EXPECT_EQ(Cache.size(), 2u);

  // Pinned handles survive eviction: every engine still classifies its
  // own (long-evicted) set correctly — the pin kept the code region from
  // being freed to the arena.
  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  for (unsigned S = 0; S < Sets; ++S) {
    writeTcpPacket(*B.Mem, Msg, uint16_t(2000 + 100 * S + 1),
                   0x0a000001 + S);
    EXPECT_EQ(Engines[S]->classify(*B.Cpu, Msg), 1) << "set " << S;
    writeTcpPacket(*B.Mem, Msg, uint16_t(2000 + 100 * S + PerSet),
                   0x0a000001 + S);
    EXPECT_EQ(Engines[S]->classify(*B.Cpu, Msg), -1) << "set " << S;
  }

  // Reinstalling an evicted set is a miss that regenerates (and evicts
  // again); reinstalling a still-cached set is a hit. The counters must
  // reconcile exactly: every miss generated, every install hit or missed.
  DpfEngine Re0(*B.Tgt, *B.Mem);
  EXPECT_FALSE(Re0.installShared(Cache, Sets_[0])); // evicted -> regenerate
  DpfEngine Re5(*B.Tgt, *B.Mem);
  EXPECT_TRUE(Re5.installShared(Cache, Sets_[5])); // still cached -> hit
  St = Cache.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, uint64_t(Sets) + 1);
  EXPECT_EQ(St.Generations, uint64_t(Sets) + 1);
  EXPECT_EQ(St.Failures, 0u);
  EXPECT_EQ(St.Hits + St.Misses, uint64_t(Sets) + 2); // one per install
  EXPECT_EQ(St.Evictions, uint64_t(Sets - 2) + 1);
  // Every evicted version is still pinned by its engine, so no region has
  // been freed to the arena yet — eviction defers to the pin.
  EXPECT_EQ(B.Mem->freeCodeBytes(), 0u);
  EXPECT_EQ(B.Mem->regionsReused(), 0u);

  writeTcpPacket(*B.Mem, Msg, 2001, 0x0a000001);
  EXPECT_EQ(Re0.classify(*B.Cpu, Msg), 1);

  // Dropping an engine releases the last pin on its evicted version; the
  // region returns to the arena and the next generation recycles it.
  Engines[1].reset();
  DpfEngine Fresh(*B.Tgt, *B.Mem);
  Fresh.installShared(Cache,
                      makeTcpIpFilters(PerSet, 9000, 0x0a0000f0));
  EXPECT_GT(B.Mem->regionsReused(), 0u);
  writeTcpPacket(*B.Mem, Msg, 9002, 0x0a0000f0);
  EXPECT_EQ(Fresh.classify(*B.Cpu, Msg), 2);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DpfStressTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
