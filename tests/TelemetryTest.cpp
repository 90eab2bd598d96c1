//===- tests/TelemetryTest.cpp - Telemetry layer tests ---------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Covers the support/Telemetry.h contract: counter and histogram
// registration and aggregation across threads, phase spans recording
// nanoseconds into histograms, instance-counter attach/retire folding,
// thread-local batched counters (exact totals, exact at-exit report),
// Chrome trace-JSON well-formedness (parseable structure, monotonically
// ordered ts per tid), and — in VCODE_TELEMETRY=OFF builds — that the
// hot-path macros compile to constexpr-empty statements and the emission
// core and dispatch paths register nothing.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "core/VCode.h"
#include "dpf/Engines.h"
#include "mips/MipsTarget.h"
#include "sim/Memory.h"
#include "sim/MipsSim.h"
#ifdef __x86_64__
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"
#endif

#include <gtest/gtest.h>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace vcode;
namespace vt = vcode::telemetry;

namespace {

/// Generates one trivial mips function (exercises the instrumented
/// v_lambda .. v_end path).
CodePtr genOne(mips::MipsTarget &Tgt, sim::Memory &Mem, int Ops) {
  VCode V(Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, true, Mem.allocCode(1 << 14));
  Reg T = V.getreg(Type::I);
  V.movi(T, Arg[0]);
  for (int I = 0; I < Ops; ++I)
    V.addii(T, T, 1);
  V.reti(T);
  return V.end();
}

TEST(Telemetry, CounterNameIdentity) {
  vt::Counter &A = vt::registry().counter("test.identity.a");
  vt::Counter &B = vt::registry().counter("test.identity.b");
  EXPECT_NE(&A, &B);
  EXPECT_EQ(&A, &vt::registry().counter("test.identity.a"));
}

TEST(Telemetry, CounterAggregatesAcrossThreads) {
  vt::Counter &C = vt::registry().counter("test.mt.counter");
  C.reset();
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([&C] {
      for (int I = 0; I < kIters; ++I)
        C.inc();
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(kThreads) * kIters);
}

TEST(Telemetry, HistogramNamePointsAtRegistryKey) {
  vt::Histogram &H = vt::registry().histogram("test.hist.name");
  EXPECT_STREQ(H.name(), "test.hist.name");
  // Stable across re-lookup (trace events keep the pointer).
  EXPECT_EQ(H.name(), vt::registry().histogram("test.hist.name").name());
  // Instance-owned histograms report under their own name; unregistered
  // ones have none.
  vt::Histogram Owned("test.hist.owned_ns");
  EXPECT_STREQ(Owned.name(), "test.hist.owned_ns");
  vt::Histogram Bare;
  EXPECT_EQ(Bare.name(), nullptr);
}

TEST(Telemetry, InstanceCounterAttachAndRetire) {
  const char *Name = "test.instance.counter";
  uint64_t Before = vt::registry().counterValue(Name);
  {
    vt::Counter C1(Name);
    C1.add(41);
    EXPECT_EQ(C1.value(), 41u); // per-instance exact
    {
      vt::Counter C2(Name);
      C2.inc();
      EXPECT_EQ(C2.value(), 1u); // instances never cross-contaminate
      EXPECT_EQ(vt::registry().counterValue(Name), Before + 42);
    }
    // C2 destroyed: its total folds into the registry's retired totals.
    EXPECT_EQ(vt::registry().counterValue(Name), Before + 42);
  }
  EXPECT_EQ(vt::registry().counterValue(Name), Before + 42);
}

TEST(Telemetry, ReportListsCountersAndTimers) {
  vt::registry().counter("test.report.counter").add(7);
  vt::registry().histogram("test.report.span").record(10);
  std::ostringstream OS;
  vt::report(OS);
  std::string R = OS.str();
  EXPECT_NE(R.find("vcode telemetry report"), std::string::npos);
  EXPECT_NE(R.find("test.report.counter"), std::string::npos);
  EXPECT_NE(R.find("test.report.span"), std::string::npos);
  EXPECT_EQ(R.find("timers:"), std::string::npos) << "spans are histograms";
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

// Minimal structural checks without a JSON library: balanced braces,
// expected fields, and per-tid monotone "ts" values extracted textually.
TEST(Telemetry, TraceJsonWellFormed) {
  vt::resetAll();
  bool WasTracing = vt::tracingEnabled(), WasTiming = vt::timingEnabled();
  vt::setTracing(true);

  constexpr int kThreads = 4, kSpans = 50;
  std::vector<std::thread> Ts;
  for (int W = 0; W < kThreads; ++W)
    Ts.emplace_back([] {
      vt::Histogram &H = vt::registry().histogram("test.trace.phase");
      for (int I = 0; I < kSpans; ++I) {
        uint64_t T0 = vt::now();
        vt::span(H, T0, vt::now());
      }
    });
  for (std::thread &W : Ts)
    W.join();
  vt::setTracing(false);

  EXPECT_EQ(vt::registry().eventsRecorded(), uint64_t(kThreads) * kSpans);

  std::ostringstream OS;
  vt::writeChromeTrace(OS);
  std::string J = OS.str();

  // Envelope: events array plus the dropped-event count (0 here — the
  // ring was not overrun).
  EXPECT_EQ(J.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(J.find("\n],\"droppedEvents\":0}\n"), std::string::npos) << "tail";
  size_t Opens = 0, Closes = 0;
  for (char C : J) {
    Opens += C == '{';
    Closes += C == '}';
  }
  EXPECT_EQ(Opens, Closes);
  EXPECT_EQ(Opens, 1u + uint64_t(kThreads) * kSpans); // envelope + events

  // Per-event structure and per-tid ts monotonicity.
  std::map<long, double> LastTs;
  size_t Events = 0, Pos = 0;
  while ((Pos = J.find("{\"name\":\"", Pos)) != std::string::npos &&
         Pos != 0) {
    ++Events;
    size_t TidPos = J.find("\"tid\":", Pos);
    size_t TsPos = J.find("\"ts\":", Pos);
    size_t DurPos = J.find("\"dur\":", Pos);
    ASSERT_NE(TidPos, std::string::npos);
    ASSERT_NE(TsPos, std::string::npos);
    ASSERT_NE(DurPos, std::string::npos);
    long Tid = std::strtol(J.c_str() + TidPos + 6, nullptr, 10);
    double Ts = std::strtod(J.c_str() + TsPos + 5, nullptr);
    double Dur = std::strtod(J.c_str() + DurPos + 6, nullptr);
    EXPECT_GE(Dur, 0.0);
    EXPECT_GE(Ts, 0.0);
    auto It = LastTs.find(Tid);
    if (It != LastTs.end()) {
      EXPECT_GE(Ts, It->second) << "ts must be monotone within tid " << Tid;
    }
    LastTs[Tid] = Ts;
    ++Pos;
  }
  EXPECT_EQ(Events, uint64_t(kThreads) * kSpans);
  EXPECT_EQ(LastTs.size(), size_t(kThreads));

  vt::setTracing(WasTracing);
  vt::setTiming(WasTiming);
  vt::resetAll();
}

TEST(Telemetry, TraceEmptyWithoutTracing) {
  vt::resetAll();
  std::ostringstream OS;
  vt::writeChromeTrace(OS);
  EXPECT_EQ(OS.str(), "{\"traceEvents\":[\n],\"droppedEvents\":0}\n");
}

//===----------------------------------------------------------------------===//
// Log-bucketed latency histograms (always available, like counters)
//===----------------------------------------------------------------------===//

TEST(Telemetry, HistogramBucketBoundaries) {
  using H = vt::Histogram;
  // Values below kSub get exact unit buckets.
  for (uint64_t V = 0; V < H::kSub; ++V) {
    EXPECT_EQ(H::bucketOf(V), unsigned(V));
    EXPECT_EQ(H::bucketLo(unsigned(V)), V);
  }
  // Every bucket's lower bound maps back to the bucket, one below maps to
  // the previous one, and bucketOf is monotone across the boundary.
  for (unsigned Idx = 1; Idx < H::kBuckets; ++Idx) {
    uint64_t Lo = H::bucketLo(Idx);
    ASSERT_EQ(H::bucketOf(Lo), Idx) << "bucket " << Idx;
    ASSERT_EQ(H::bucketOf(Lo - 1), Idx - 1) << "bucket " << Idx;
    ASSERT_GT(Lo, H::bucketLo(Idx - 1)) << "bucket " << Idx;
  }
  // The last bucket holds the top of the range; its hi saturates.
  EXPECT_EQ(H::bucketOf(~uint64_t(0)), H::kBuckets - 1);
  EXPECT_EQ(H::bucketHi(H::kBuckets - 1), ~uint64_t(0));
  // Relative bucket width is bounded by 1/kSub (12.5%) above kSub.
  for (unsigned Idx = H::kSub; Idx + 1 < H::kBuckets; ++Idx) {
    uint64_t Lo = H::bucketLo(Idx), Hi = H::bucketHi(Idx);
    ASSERT_LE((Hi - Lo) * H::kSub, Lo) << "bucket " << Idx << " too wide";
  }
}

TEST(Telemetry, HistogramPercentileMath) {
  vt::Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  vt::Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.Sum, 500500u);
  EXPECT_EQ(S.Max, 1000u);
  EXPECT_DOUBLE_EQ(S.mean(), 500.5);
  // Percentile error is bounded by the bucket width (12.5% relative).
  EXPECT_NEAR(S.percentile(50), 500, 500 * 0.125);
  EXPECT_NEAR(S.percentile(99), 990, 990 * 0.125);
  // The tail clamps to the recorded max, never past it.
  EXPECT_LE(S.percentile(99.9), 1000);
  EXPECT_LE(S.percentile(100), 1000);
  EXPECT_GE(S.percentile(100), S.percentile(1));
  // Degenerate cases.
  vt::Histogram Empty;
  EXPECT_EQ(Empty.snapshot().percentile(50), 0);
  EXPECT_EQ(Empty.snapshot().mean(), 0);
  vt::Histogram One;
  One.record(42);
  EXPECT_EQ(One.snapshot().percentile(50), 42);
  EXPECT_EQ(One.snapshot().percentile(99.9), 42);
}

TEST(Telemetry, HistogramMergeAcrossShards) {
  // Two shards with disjoint ranges merge into one distribution whose
  // aggregates are the element-wise sums.
  vt::Histogram A, B;
  for (uint64_t V = 1; V <= 500; ++V)
    A.record(V);
  for (uint64_t V = 501; V <= 1000; ++V)
    B.record(V);
  vt::Histogram::Snapshot M = A.snapshot();
  M.merge(B.snapshot());
  vt::Histogram Whole;
  for (uint64_t V = 1; V <= 1000; ++V)
    Whole.record(V);
  vt::Histogram::Snapshot W = Whole.snapshot();
  EXPECT_EQ(M.Count, W.Count);
  EXPECT_EQ(M.Sum, W.Sum);
  EXPECT_EQ(M.Max, W.Max);
  for (unsigned I = 0; I < vt::Histogram::kBuckets; ++I)
    ASSERT_EQ(M.Counts[I], W.Counts[I]) << "bucket " << I;
  EXPECT_DOUBLE_EQ(M.percentile(50), W.percentile(50));
}

TEST(Telemetry, HistogramRegistryAttachAndReport) {
  static const char *Name = "test.hist.attach_ns";
  uint64_t Before = vt::registry().histogramSnapshot(Name).Count;
  {
    vt::Histogram H(Name); // instance-owned: attaches for reporting
    H.record(100);
    H.record(200);
    EXPECT_EQ(vt::registry().histogramSnapshot(Name).Count, Before + 2);
    // Folded into retired totals when the instance dies.
  }
  EXPECT_EQ(vt::registry().histogramSnapshot(Name).Count, Before + 2);
  // The global registry histogram merges with the retired instance data
  // under the same name.
  vt::registry().histogram(Name).record(300);
  vt::Histogram::Snapshot S = vt::registry().histogramSnapshot(Name);
  EXPECT_EQ(S.Count, Before + 3);
  EXPECT_EQ(S.Max, 300u);
  // And the text report lists it with percentiles.
  std::ostringstream OS;
  vt::report(OS);
  EXPECT_NE(OS.str().find("histograms:"), std::string::npos);
  EXPECT_NE(OS.str().find("test.hist.attach_ns"), std::string::npos);
}

TEST(Telemetry, HistogramConcurrentRecord) {
  vt::Histogram H;
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < kThreads; ++T)
    Ts.emplace_back([&H, T] {
      for (int I = 0; I < kIters; ++I)
        H.record(uint64_t(T * kIters + I));
    });
  for (auto &T : Ts)
    T.join();
  vt::Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, uint64_t(kThreads) * kIters);
  EXPECT_EQ(S.Max, uint64_t(kThreads) * kIters - 1);
  uint64_t N = uint64_t(kThreads) * kIters;
  EXPECT_EQ(S.Sum, N * (N - 1) / 2);
}

//===----------------------------------------------------------------------===//
// Build-config-specific behavior
//===----------------------------------------------------------------------===//

/// Classifies \p PerThread messages on each of \p Threads threads plus
/// \p OnMain on the calling thread, through one DPF engine on \p Cpu's
/// substrate (one Cpu per thread, built by \p MakeCpu). Returns the number
/// of classifications made.
template <typename MakeCpuFn>
uint64_t classifyOnThreads(Target &Tgt, sim::Memory &Mem, MakeCpuFn MakeCpu,
                           unsigned Threads, unsigned PerThread,
                           unsigned OnMain) {
  dpf::DpfEngine E(Tgt, Mem);
  E.install(dpf::makeTcpIpFilters(4, 1024));
  SimAddr Pkt = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(Mem, Pkt, 1025);
  auto Run = [&](unsigned N) {
    auto Cpu = MakeCpu();
    for (unsigned I = 0; I < N; ++I)
      if (E.classify(*Cpu, Pkt) != 1)
        std::abort();
  };
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back(Run, PerThread);
  for (std::thread &T : Ts)
    T.join();
  Run(OnMain);
  return uint64_t(Threads) * PerThread + OnMain;
}

#if VCODE_TELEMETRY_ENABLED

void bumpBatched(uint64_t N) { VCODE_TM_COUNT_BATCHED("test.batched", N); }

// Per-thread cells flush every kFlushEvery adds and at thread exit, and
// the registry reads a live thread's unflushed cell, so totals are exact
// both after the workers join and for the still-running caller.
TEST(Telemetry, BatchedCountExactAfterJoin) {
  vt::resetAll();
  constexpr unsigned kThreads = 8;
  const uint64_t kAdds = 2 * vt::BatchedCount::kFlushEvery + 123;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < kThreads; ++T)
    Ts.emplace_back([&] {
      for (uint64_t I = 0; I < kAdds; ++I)
        bumpBatched(1);
      bumpBatched(1000); // amounts, not just adds, are batched
    });
  for (std::thread &T : Ts)
    T.join();
  const uint64_t Joined = kThreads * (kAdds + 1000);
  EXPECT_EQ(vt::registry().counterValue("test.batched"), Joined);

  bumpBatched(5); // stays in this thread's cell
  EXPECT_EQ(vt::registry().counterValue("test.batched"), Joined + 5);
  std::ostringstream OS;
  vt::report(OS);
  EXPECT_NE(OS.str().find("test.batched"), std::string::npos);
  EXPECT_NE(OS.str().find(std::to_string(Joined + 5)), std::string::npos);

  vt::resetAll(); // clears the live cell too
  EXPECT_EQ(vt::registry().counterValue("test.batched"), 0u);
  bumpBatched(2);
  EXPECT_EQ(vt::registry().counterValue("test.batched"), 2u);
  vt::resetAll();
}

#ifdef __x86_64__
/// Death-test child: turns the at-exit report on, classifies 15777
/// messages natively on three workers and the main thread, and exits.
void classifyNativeAndExit() {
  char Arg0[] = "telemetry", Arg1[] = "--telemetry-report";
  char *Argv[] = {Arg0, Arg1, nullptr};
  vt::handleArgs(2, Argv);
  vt::resetAll();
  sim::Memory Mem(sim::Memory::Native);
  x64::X64Target Tgt;
  uint64_t N = classifyOnThreads(
      Tgt, Mem, [&] { return std::make_unique<x64::NativeCpu>(Mem); }, 3,
      5000, 777);
  std::exit(N == 15777 ? 0 : 1);
}

// The --telemetry-report printed at exit bills every native DPF dispatch
// exactly once, counted on three workers and on the main thread (whose
// cells are still live when exit() starts).
TEST(TelemetryDeathTest, ReportTotalsMatchNativeDispatches) {
  EXPECT_EXIT(classifyNativeAndExit(), ::testing::ExitedWithCode(0),
              "dpf\\.dispatches +15777\n.*native\\.calls +15777\n");
}
#endif

TEST(Telemetry, EmissionCoreCounters) {
  vt::resetAll();
  sim::Memory Mem;
  mips::MipsTarget Tgt;
  const int Ops = 64;
  CodePtr P = genOne(Tgt, Mem, Ops);
  ASSERT_TRUE(P.isValid());
  EXPECT_EQ(vt::registry().counterValue("core.functions"), 1u);
  EXPECT_EQ(vt::registry().counterValue("mips.functions"), 1u);
  EXPECT_EQ(vt::registry().counterValue("core.bytes_emitted"), P.SizeBytes);
  EXPECT_EQ(vt::registry().counterValue("core.instrs_emitted"),
            P.SizeBytes / 4);
  vt::resetAll();
}

void spanOnce() {
  VCODE_TM_TICK(T0);
  VCODE_TM_SPAN("test.span.gate", T0);
}

TEST(Telemetry, SpanHonorsRuntimeGate) {
  vt::Histogram &H = vt::registry().histogram("test.span.gate");
  H.reset();
  bool WasOn = vt::timingEnabled();
  vt::setTiming(false);
  spanOnce();
  EXPECT_EQ(H.snapshot().Count, 0u) << "timing off: no record";
  vt::setTiming(true);
  spanOnce();
  EXPECT_EQ(H.snapshot().Count, 1u);
  vt::setTiming(WasOn);
}

// A span stores nanoseconds, not raw ticks: around a >= 2ms sleep it
// records at least 2e6, and no more than the steady_clock interval that
// encloses it (raw TSC ticks would exceed that by the tick rate in GHz).
TEST(Telemetry, SpanRecordsNanoseconds) {
  vt::Histogram &H = vt::registry().histogram("test.span.sleep");
  H.reset();
  bool WasOn = vt::timingEnabled();
  vt::setTiming(true);
  auto Outer0 = std::chrono::steady_clock::now();
  {
    VCODE_TM_TICK(T0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    VCODE_TM_SPAN("test.span.sleep", T0);
  }
  double OuterNs = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - Outer0)
                       .count();
  vt::setTiming(WasOn);
  vt::Histogram::Snapshot S =
      vt::registry().histogramSnapshot("test.span.sleep");
  ASSERT_EQ(S.Count, 1u);
  EXPECT_GE(S.Sum, 2000000u);
  EXPECT_LE(S.Sum, 2000000000u);
  EXPECT_LE(double(S.Sum), OuterNs * 1.1) << "raw ticks recorded?";
  EXPECT_EQ(S.Max, S.Sum);
}

TEST(Telemetry, EmissionPhaseTimersWhenTimingOn) {
  vt::resetAll();
  bool WasTiming = vt::timingEnabled();
  vt::setTiming(true);
  sim::Memory Mem;
  mips::MipsTarget Tgt;
  ASSERT_TRUE(genOne(Tgt, Mem, 16).isValid());
  EXPECT_EQ(vt::registry().histogramSnapshot("core.emit").Count, 1u);
  EXPECT_EQ(vt::registry().histogramSnapshot("core.backpatch").Count, 1u);
  vt::setTiming(WasTiming);
  vt::resetAll();
}

#else // !VCODE_TELEMETRY_ENABLED

// The compile-out proof: in an OFF build every hot-path macro must expand
// to a constexpr-empty statement — if any of them still touched the
// registry (a runtime construct), this function could not be constexpr
// and the static_assert below would fail to compile.
constexpr int compiledOutProbe() {
  VCODE_TM_COUNT("off.counter", 1);
  VCODE_TM_COUNT_BATCHED("off.batched", 1);
  VCODE_TM_TICK(T0);
  VCODE_TM_SPAN("off.span", T0);
  VCODE_TM_SPAN_AT("off.span2", T0, T0);
  VCODE_TM_STMT(vt::registry().counter("off.stmt").inc());
  return 7;
}
static_assert(compiledOutProbe() == 7,
              "VCODE_TM_* macros must compile to nothing when telemetry "
              "is off");

// The batched counter is not even declared complete in an OFF build: no
// cell, flush or registration code can be compiled in.
template <typename T, typename = void>
struct IsComplete : std::false_type {};
template <typename T>
struct IsComplete<T, std::void_t<decltype(sizeof(T))>> : std::true_type {};
static_assert(!IsComplete<vt::BatchedCount>::value,
              "telemetry::BatchedCount must not exist when telemetry is off");

TEST(Telemetry, HotPathCompiledOut) {
  vt::resetAll();
  sim::Memory Mem;
  mips::MipsTarget Tgt;
  ASSERT_TRUE(genOne(Tgt, Mem, 64).isValid());
  // The emission core registered nothing: no counters, no phase spans.
  EXPECT_EQ(vt::registry().counterValue("core.functions"), 0u);
  EXPECT_EQ(vt::registry().counterValue("core.instrs_emitted"), 0u);
  EXPECT_EQ(vt::registry().histogramSnapshot("core.emit").Count, 0u);
  std::ostringstream OS;
  vt::report(OS);
  EXPECT_NE(OS.str().find("compiled out"), std::string::npos);
  vt::resetAll();
}

// The dispatch paths' batched counters leave nothing behind either.
TEST(Telemetry, BatchedCountersCompiledOut) {
  vt::resetAll();
  sim::Memory Mem;
  mips::MipsTarget Tgt;
  classifyOnThreads(
      Tgt, Mem,
      [&] {
        auto Cpu = std::make_unique<sim::MipsSim>(Mem);
        Cpu->setStackTop(Mem.allocStack());
        return Cpu;
      },
      2, 100, 10);
  EXPECT_EQ(vt::registry().counterValue("dpf.dispatches"), 0u);
  EXPECT_EQ(vt::registry().counterValue("sim.calls"), 0u);
  EXPECT_EQ(vt::registry().counterValue("sim.instrs"), 0u);
#ifdef __x86_64__
  sim::Memory NMem(sim::Memory::Native);
  x64::X64Target XTgt;
  classifyOnThreads(
      XTgt, NMem, [&] { return std::make_unique<x64::NativeCpu>(NMem); }, 2,
      100, 10);
  EXPECT_EQ(vt::registry().counterValue("native.calls"), 0u);
  EXPECT_EQ(vt::registry().counterValue("dpf.dispatches"), 0u);
#endif
}

#endif // VCODE_TELEMETRY_ENABLED

} // namespace
