//===- tests/DpfTest.cpp - Packet filter engine tests ------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Semantic equivalence tests for the three Table 3 engines: every engine
// must classify every message identically (matching filter id or -1), for
// the paper's TCP/IP workload and assorted edge cases, under every
// DPF dispatch strategy. Also checks the expected performance ordering
// DPF < PATHFINDER < MPF in per-message simulated cycles.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dpf/Engines.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::dpf;
using namespace vcode::test;

namespace {

class DpfTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

/// Reference (host) classifier.
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

TEST_P(DpfTest, AllEnginesAgreeOnTcpIpWorkload) {
  std::vector<Filter> Filters = makeTcpIpFilters(10, 1024);

  MpfEngine Mpf(*B.Tgt, *B.Mem);
  PathFinderEngine Pf(*B.Tgt, *B.Mem);
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  Mpf.install(Filters);
  Pf.install(Filters);
  Dpf.install(Filters);

  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  // Matching ports, missing ports, wrong proto, wrong IP.
  for (uint16_t Port : {1024, 1028, 1033, 1034, 1023, 80, 0, 65535}) {
    writeTcpPacket(*B.Mem, Msg, Port);
    int Want = refClassify(Filters, *B.Mem, Msg);
    EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), Want) << "mpf port " << Port;
    EXPECT_EQ(Pf.classify(*B.Cpu, Msg), Want) << "pathfinder port " << Port;
    EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), Want) << "dpf port " << Port;
  }
  // Wrong protocol field.
  writeTcpPacket(*B.Mem, Msg, 1025);
  B.Mem->write<uint8_t>(Msg + pkt::ProtoOff, 17); // UDP
  EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Pf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), -1);
  // Wrong destination address.
  writeTcpPacket(*B.Mem, Msg, 1025, /*DstIp=*/0x0a0000ff);
  EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Pf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), -1);
}

TEST_P(DpfTest, AllDispatchStrategiesAgree) {
  // Sparse ports force interesting dispatch shapes.
  std::vector<Filter> Filters = makeTcpIpFilters(10, 1024);
  const uint16_t Sparse[] = {7,    80,   443,  1024, 8080,
                             9999, 1234, 5060, 179,  6667};
  for (size_t I = 0; I < Filters.size(); ++I)
    Filters[I].Atoms.back().Value = Sparse[I];

  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  const DpfEngine::Dispatch Strategies[] = {
      DpfEngine::Dispatch::Auto, DpfEngine::Dispatch::Chain,
      DpfEngine::Dispatch::Binary, DpfEngine::Dispatch::Hash,
      DpfEngine::Dispatch::Table};
  for (DpfEngine::Dispatch S : Strategies) {
    DpfEngine E(*B.Tgt, *B.Mem, S);
    E.install(Filters);
    for (uint32_t Port : {7u, 80u, 443u, 1024u, 8080u, 9999u, 1234u, 5060u,
                          179u, 6667u, 81u, 442u, 444u, 0u, 65535u, 1025u}) {
      writeTcpPacket(*B.Mem, Msg, uint16_t(Port));
      int Want = refClassify(Filters, *B.Mem, Msg);
      EXPECT_EQ(E.classify(*B.Cpu, Msg), Want)
          << "strategy " << int(S) << " port " << Port;
    }
  }
}

TEST_P(DpfTest, SingleFilterAndNoFilters) {
  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  std::vector<Filter> One = makeTcpIpFilters(1, 2000);
  for (auto *E : {static_cast<Engine *>(nullptr)}) // silence unused warn
    (void)E;

  MpfEngine Mpf(*B.Tgt, *B.Mem);
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  PathFinderEngine Pf(*B.Tgt, *B.Mem);
  Mpf.install(One);
  Dpf.install(One);
  Pf.install(One);
  writeTcpPacket(*B.Mem, Msg, 2000);
  EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), 0);
  EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), 0);
  EXPECT_EQ(Pf.classify(*B.Cpu, Msg), 0);
  writeTcpPacket(*B.Mem, Msg, 2001);
  EXPECT_EQ(Mpf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Dpf.classify(*B.Cpu, Msg), -1);
  EXPECT_EQ(Pf.classify(*B.Cpu, Msg), -1);
}

TEST_P(DpfTest, PerformanceOrderingHolds) {
  // The whole point of Table 3: DPF beats PATHFINDER beats MPF.
  std::vector<Filter> Filters = makeTcpIpFilters(10, 1024);
  MpfEngine Mpf(*B.Tgt, *B.Mem);
  PathFinderEngine Pf(*B.Tgt, *B.Mem);
  DpfEngine Dpf(*B.Tgt, *B.Mem);
  Mpf.install(Filters);
  Pf.install(Filters);
  Dpf.install(Filters);

  SimAddr Msg = B.Mem->alloc(pkt::HeaderBytes, 8);
  writeTcpPacket(*B.Mem, Msg, 1033); // the last filter: MPF's worst case

  auto Cycles = [&](Engine &E) {
    E.classify(*B.Cpu, Msg);
    return B.Cpu->lastStats().Cycles;
  };
  // Warm the caches, then measure.
  Cycles(Mpf);
  Cycles(Pf);
  Cycles(Dpf);
  uint64_t M = Cycles(Mpf), P = Cycles(Pf), D = Cycles(Dpf);
  EXPECT_LT(D, P);
  EXPECT_LT(P, M);
  // DPF is "over an order of magnitude more efficient than previous
  // systems" — allow slack but insist on a big gap.
  EXPECT_GT(double(M) / double(D), 5.0);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DpfTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
