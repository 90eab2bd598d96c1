//===- bench/bench_telemetry.cpp - E12: telemetry primitive costs ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Measures the raw cost of the telemetry primitives that ride on the
// emission hot path (EXPERIMENTS.md E12): sharded counter increments
// (single-threaded and contended), the tick source, phase spans into
// their histograms under each runtime gate, and event-ring appends with
// tracing on. The acceptance bar for the layer is set elsewhere
// (bench_codegen ON vs OFF); this benchmark explains *why* that bar holds
// by pricing each primitive.
//
// In a VCODE_TELEMETRY=OFF build the macro benchmarks measure literal
// empty statements and should report sub-nanosecond loop overhead only.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include <benchmark/benchmark.h>

using namespace vcode;
namespace vt = vcode::telemetry;

namespace {

//===----------------------------------------------------------------------===//
// Counter costs
//===----------------------------------------------------------------------===//

// Direct handle increment: the steady-state cost once the macro's
// function-local static is resolved. Run with ->Threads(N) to measure the
// sharded-slot contention behavior (8 slots, cache-line padded).
void BM_CounterInc(benchmark::State &State) {
  vt::Counter &C = vt::registry().counter("bench.counter");
  for (auto _ : State)
    C.inc();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterInc)->Threads(1)->Threads(4)->Threads(8);

// The macro as the hot path sees it: static-local lookup + increment.
void BM_CounterMacro(benchmark::State &State) {
  for (auto _ : State)
    VCODE_TM_COUNT("bench.counter.macro", 1);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterMacro)->Threads(1)->Threads(8);

//===----------------------------------------------------------------------===//
// Tick source and phase spans
//===----------------------------------------------------------------------===//

// tick() honors the runtime timing gate: with timing off it returns 0
// without reading the clock — the cost every client pays in an ON build
// that never asked for a report.
void BM_TickGateOff(benchmark::State &State) {
  vt::setTiming(false);
  for (auto _ : State)
    benchmark::DoNotOptimize(vt::tick());
}
BENCHMARK(BM_TickGateOff);

void BM_TickGateOn(benchmark::State &State) {
  vt::setTiming(true);
  for (auto _ : State)
    benchmark::DoNotOptimize(vt::tick());
  vt::setTiming(false);
}
BENCHMARK(BM_TickGateOn);

// A phase span as the instrumented code writes it. Gate off, the tick is 0
// and the span records nothing; gate on, it reads the clock twice and
// records the interval in nanoseconds into the span's histogram (one
// histogram shared by every thread).
void BM_SpanGateOff(benchmark::State &State) {
  vt::setTiming(false);
  for (auto _ : State) {
    VCODE_TM_TICK(T0);
    VCODE_TM_SPAN("bench.span.off", T0);
  }
}
BENCHMARK(BM_SpanGateOff);

void BM_SpanGateOn(benchmark::State &State) {
  vt::setTiming(true);
  for (auto _ : State) {
    VCODE_TM_TICK(T0);
    VCODE_TM_SPAN("bench.span.on", T0);
  }
  vt::setTiming(false);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanGateOn)->Threads(1)->Threads(4);

//===----------------------------------------------------------------------===//
// Event ring (tracing on)
//===----------------------------------------------------------------------===//

// Full span with tracing enabled: histogram record + lock-free ring
// append. This is the most expensive configuration the hot path can run in.
void BM_SpanTracing(benchmark::State &State) {
  vt::setTracing(true);
  for (auto _ : State) {
    VCODE_TM_TICK(T0);
    VCODE_TM_SPAN("bench.span.trace", T0);
  }
  vt::setTracing(false);
  vt::setTiming(false);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanTracing)->Threads(1)->Threads(4);

} // namespace

int main(int argc, char **argv) {
  argc = vcode::telemetry::handleArgs(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
