//===- perfbench/tests/SelfTest.cpp - The benchmark's own tests -----------===//
//
// Checks the benchmark's arithmetic and inputs, not the system under test:
// the percentile helper, span self-time accounting, open-loop lateness and
// backlog, set-up repetition, the host-speed probe, the oracles, and that
// one seed always yields the same corpus and traffic. Run through
// `python3 perfbench/run.py --self-test`, which also checks that the
// deterministic metrics repeat across two processes.
//
//===----------------------------------------------------------------------===//

#include "Fixtures.h"
#include "HostSpeed.h"
#include "Oracle.h"
#include "Stats.h"
#include "Trace.h"
#include "mips/MipsTarget.h"
#include "sim/MipsSim.h"
#include "tcc/Tcc.h"
#include <cstdio>
#include <thread>

using namespace perfbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #Cond);             \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

void testPercentiles() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  CHECK(percentileSorted(V, 50) == 50);
  CHECK(percentileSorted(V, 99) == 99);
  CHECK(percentileSorted(V, 100) == 100);
  CHECK(samplesBeyond(100, 90) == 10);
  CHECK(samplesBeyond(100, 99) == 1);
  CHECK(highestTailPercentile(19) == 0);
  CHECK(highestTailPercentile(20) == 50);
  CHECK(highestTailPercentile(100) == 90);
  CHECK(highestTailPercentile(999) == 90);
  CHECK(highestTailPercentile(1000) == 99);
  CHECK(highestTailPercentile(10000) == 99.9);
  CHECK(highestTailPercentile(1000000) == 99.999);
  std::vector<double> W = {5, 1, 4, 2, 3};
  Summary S = summarize(W);
  CHECK(S.N == 5 && S.P50 == 3 && S.Mean == 3 && S.TailPct == 0);
  CHECK(S.Tail == 5);

  // Sustained values: a run at 10 us per op whose first quarter ran at
  // 5 us (neighbours quiet) and whose last tenth stalled at 50 us still
  // reads 10; the whole-run median would too, but not once the quiet
  // spell passes half the run.
  std::vector<double> Run;
  for (int I = 0; I < 6400; ++I)
    Run.push_back(I < 1600 ? 5 : I >= 5760 ? 50 : 10);
  CHECK(windowMedians(Run).size() == RunWindows);
  CHECK(sustainedLatency(Run) == 10);
  std::vector<double> Quiet(Run);
  for (int I = 0; I < 3500; ++I)
    Quiet[I] = 5;
  CHECK(median(Quiet) == 5 && sustainedLatency(Quiet) == 10);
  std::vector<double> Rates;
  for (int I = 0; I < 10; ++I)
    Rates.push_back(I < 3 ? 200 : 100); // 30% of windows ran fast
  CHECK(sustainedRate(Rates) == 100);
  CHECK(windowMedians({1, 2, 3}).size() == 3); // short runs: one per sample
}

void testSelfTime() {
  SpanLog L(1, 16);
  L.open(SpanName::Request, 7, 0);
  L.open(SpanName::Lambda, 7, 10);
  CHECK(L.close(30) == 20);
  L.open(SpanName::End, 7, 40);
  L.open(SpanName::AllocCode, 7, 41); // grandchild: covers part of End
  CHECK(L.close(43) == 2);
  CHECK(L.close(45) == 5);
  CHECK(L.close(100) == 100);
  CHECK(L.depth() == 0);
  CHECK(L.totals(SpanName::Request).Total == 100);
  CHECK(L.totals(SpanName::Request).Self == 75); // 100 - (20 + 5)
  CHECK(L.totals(SpanName::End).Self == 3);
  CHECK(L.totals(SpanName::Lambda).Self == 20);
  CHECK(L.totals(SpanName::Request).Count == 1);
  const auto &K = L.kept();
  CHECK(K.size() == 4);
  // Kept in closing order: Lambda, AllocCode, End, Request.
  CHECK(K[0].Parent == K[3].Id && K[2].Parent == K[3].Id);
  CHECK(K[1].Parent == K[2].Id && K[3].Parent == 0);
  CHECK(K[0].Req == 7);
  // Spans beyond the keep limit still count.
  SpanLog Small(2, 1);
  Small.open(SpanName::Batch, 0, 0);
  Small.close(5);
  Small.open(SpanName::Batch, 0, 5);
  Small.close(7);
  CHECK(Small.kept().size() == 1 && Small.dropped() == 1);
  CHECK(Small.totals(SpanName::Batch).Total == 7);
  CHECK(Small.close(9) == 0); // nothing open
}

void testOpenLoop() {
  Schedule S;
  S.T0 = 1000;
  S.Period = 100;
  CHECK(S.due(0) == 1000 && S.due(3) == 1300);
  CHECK(S.dueBy(999) == 0 && S.dueBy(1000) == 1 && S.dueBy(1250) == 3);
  CHECK(S.lateness(1, 1100) == 0);
  CHECK(S.lateness(1, 1250) == 150);
  CHECK(S.lateness(1, 1050) == 0); // early start is not negative lateness
  CHECK(S.backlog(1, 1250) == 1);  // request 2 is due and waiting
  CHECK(S.backlog(1, 1100) == 0);
  CHECK(S.backlog(0, 1999) == 9);
}

void testSetupReps() {
  // Instant set-ups repeat up to the cap; slow ones stop at the minimum.
  std::unique_ptr<int> Fix;
  Summary Fast = timedSetup(Fix, [] { return std::make_unique<int>(1); });
  CHECK(Fast.N == SetupMaxReps && Fix && *Fix == 1);
  Summary Slow = timedSetup(Fix, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return std::make_unique<int>(2);
  });
  CHECK(Slow.N == SetupMinReps && Slow.P50 >= 0.04);
  // Batch rates over windows: 1 us per message is a million per second.
  DispatchTally D;
  D.BatchUsPerMsg.assign(4 * RunWindows, 1.0);
  CHECK(D.msgsPerSec() == 1e6);
}

void testHostSpeed() {
  // A probe within ProbeEveryMs of the last one is skipped; the factor is
  // the reference over the measured ns per step.
  probeIfDue();
  const size_t N = hostFactors().size();
  probeIfDue();
  CHECK(N >= 1 && hostFactors().size() == N);
  CHECK(hostFactor() == hostFactors().back());
  CHECK(hostFactor() > 0.1 && hostFactor() < 10);
  double Ns = probeNs();
  CHECK(Ns > 0.1 && Ns < 1000);
}

void testOracles() {
  using vcode::BinOp;
  using vcode::Type;
  CHECK(canonical(Type::I, 0x1ffffffffull, 4) == ~uint64_t(0));
  CHECK(canonical(Type::U, 0x1ffffffffull, 8) == 0xffffffffull);
  CHECK(evalBinop(BinOp::Rsh, Type::I, uint64_t(-8), 1, 4) == uint64_t(-4));
  CHECK(evalBinop(BinOp::Rsh, Type::U, 0xfffffff8u, 1, 4) == 0x7ffffffcu);
  CHECK(evalCvt(Type::I, Type::UL, uint64_t(-1), 8) == ~uint64_t(0));
  CHECK(evalCvt(Type::U, Type::UL, 0xffffffffu, 8) == 0xffffffffu);

  // A hand-written stream: s0 = s1 + s2; if (s0 == s3) skip; cell0 = s0.
  Stream S;
  S.Ty = Type::I;
  S.Init = {0, 2, 3, 5};
  StreamInsn Add;
  Add.Kind = StreamInsn::Bin;
  Add.D = 0, Add.A = 1, Add.B = 2;
  StreamInsn G;
  G.Kind = StreamInsn::Guard;
  G.C = vcode::Cond::Eq, G.A = 0, G.B = 3, G.Skip = 1;
  StreamInsn St;
  St.Kind = StreamInsn::Store;
  St.A = 1, St.Cell = 0;
  S.Insns = {Add, G, St};
  StreamResult R = evalStream(S, 4);
  CHECK(R.Slot[0] == 5 && R.Scratch[0] == 0); // guard taken
  S.Init[3] = 6;
  R = evalStream(S, 4);
  CHECK(R.Scratch[0] == 2); // guard not taken
  CHECK(streamVcodeInsns(S, false) == 15 + 3);

  // tcc programs agree with the compiler on the MIPS simulator.
  vcode::sim::Memory Mem(8 << 20);
  vcode::mips::MipsTarget Tgt;
  vcode::sim::MipsSim Cpu(Mem);
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng Rg(Seed);
    TccProgram P = makeTccProgram(Rg, 2 + unsigned(Seed % 30));
    vcode::tcc::Tcc C(Tgt, Mem);
    C.setTier(vcode::Tier::Tier0);
    C.compile(P.Source);
    int32_t Got = C.run(Cpu, "f", {P.Args[0], P.Args[1], P.Args[2]});
    if (Got != P.Expected)
      std::printf("tcc seed %llu: got %d want %d\n  %s\n",
                  (unsigned long long)Seed, Got, P.Expected,
                  P.Source.c_str());
    CHECK(Got == P.Expected);
  }
}

bool sameStream(const Stream &A, const Stream &B) {
  if (A.Ty != B.Ty || A.Init != B.Init || A.Insns.size() != B.Insns.size())
    return false;
  for (size_t I = 0; I < A.Insns.size(); ++I) {
    const StreamInsn &X = A.Insns[I], &Y = B.Insns[I];
    if (X.Kind != Y.Kind || X.Bop != Y.Bop || X.Uop != Y.Uop || X.C != Y.C ||
        X.Ty2 != Y.Ty2 || X.D != Y.D || X.A != Y.A || X.B != Y.B ||
        X.Cell != Y.Cell || X.Skip != Y.Skip || X.Imm != Y.Imm)
      return false;
  }
  return true;
}

void testDeterminism() {
  for (uint64_t Seed : {1ull, 2ull, 977ull}) {
    Rng A(Seed), B(Seed);
    Stream SA = makeStream(A, vcode::Type::L, 500, 8, true);
    Stream SB = makeStream(B, vcode::Type::L, 500, 8, true);
    CHECK(sameStream(SA, SB));
    CHECK(makeTccProgram(A, 20).Source == makeTccProgram(B, 20).Source);
    Traffic TA = makeTraffic(Seed, 4096), TB = makeTraffic(Seed, 4096);
    CHECK(TA.Set == TB.Set && TA.Expect == TB.Expect && TA.Hdr == TB.Hdr);
  }
  Traffic T1 = makeTraffic(1, 4096), T2 = makeTraffic(2, 4096);
  CHECK(T1.Set != T2.Set);
  // Ground truth of the traffic: the flow's id, or -1 for the miss flow.
  bool InRange = true;
  for (int8_t E : T1.Expect)
    InRange = InRange && E >= -1 && E < int(FlowsPerSet);
  CHECK(InRange);
}

} // namespace

int main() {
  testPercentiles();
  testSelfTime();
  testOpenLoop();
  testSetupReps();
  testHostSpeed();
  testOracles();
  testDeterminism();
  std::printf("%s (%d failure(s))\n", Failures ? "FAILED" : "ok", Failures);
  return Failures ? 1 : 0;
}
