//===- perfbench/bench/Trace.h - In-memory span recorder --------*- C++ -*-===//
//
// Spans around the public calls the benchmark makes into each layer. A
// span has a name, start, end, parent span and request id; spans of one
// thread nest. Every closed span updates its layer's count, total time and
// self time (duration minus the part its child spans cover) at once, and
// the first MaxKeptSpans spans per thread are also kept verbatim and
// written out once, at exit, as a Chrome trace.
//
// Tracing is off unless the run was started with --trace 1; off, every
// call below is one predictable branch.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Clock.h"
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark records.
enum class SpanName : uint8_t {
  Request,       ///< bench.request: one compile request (codegen)
  Batch,         ///< bench.batch: one dispatch batch
  AllocCode,     ///< sim.alloc_code: Memory::allocCode
  Lambda,        ///< core.lambda
  EmitMips,      ///< mips.emit (VCodeT<MipsTarget>)
  EmitSparc,     ///< sparc.emit
  EmitAlpha,     ///< alpha.emit
  EmitX64,       ///< x64.emit
  EmitVirtual,   ///< core.virtual_emit (VCode facade, any target)
  EmitTier1,     ///< core.tier1_emit (VRegLayer record + finish)
  End,           ///< core.end
  DpfInstall,    ///< dpf.install: DpfEngine::install
  InstallShared, ///< dpf.install_shared: DpfEngine::installShared
  TccCompile,    ///< tcc.compile
  Classify,      ///< dpf.classify: Engine::classify
  TrieClassify,  ///< dpf.trie_classify: Trie::classify (oracle)
  CpuCall,       ///< sim.call: Cpu::call while checking results
  Translate,     ///< dbt.translate: TranslationEngine::translate
  Retire,        ///< service.retire: dropping an installed engine
  Check,         ///< bench.check: the benchmark's own result checks
  NumNames
};

const char *spanNameStr(SpanName N);

/// Per-layer totals, in ticks.
struct LayerTotals {
  uint64_t Count = 0;
  uint64_t Total = 0;
  uint64_t Self = 0;
};

/// One thread's span log. The arithmetic lives here with explicit
/// timestamps so it can be tested without a clock.
class SpanLog {
public:
  struct Span {
    SpanName Name;
    uint64_t Id, Parent, Req; ///< Parent 0: a root span
    uint64_t Start, End;
  };

  explicit SpanLog(uint32_t Tid = 0, size_t MaxKept = 0)
      : Tid(Tid), MaxKept(MaxKept) {}

  void open(SpanName N, uint64_t Req, uint64_t Now);
  /// Closes the innermost open span; returns its duration.
  uint64_t close(uint64_t Now);

  const LayerTotals &totals(SpanName N) const {
    return Acc[size_t(N)];
  }
  const std::vector<Span> &kept() const { return Kept; }
  uint64_t dropped() const { return Dropped; }
  uint32_t tid() const { return Tid; }
  size_t depth() const { return Stack.size(); }

private:
  struct Open {
    SpanName Name;
    uint64_t Id, Req, Start;
    uint64_t ChildTicks = 0;
  };
  uint32_t Tid;
  size_t MaxKept;
  uint64_t NextId = 1;
  uint64_t Dropped = 0;
  std::vector<Open> Stack;
  std::vector<Span> Kept;
  LayerTotals Acc[size_t(SpanName::NumNames)];
};

/// Process-wide recorder over per-thread SpanLogs.
namespace trace {

/// Turns recording on or off; call before any worker thread starts.
void setEnabled(bool On);
inline bool Enabled = false;

SpanLog &threadLog();

/// Totals of \p N summed over every thread's log.
LayerTotals totals(SpanName N);
/// Forgets every span and total recorded so far.
void reset();
/// Writes the kept spans as a Chrome trace (chrome://tracing, Perfetto).
/// Returns false when the file cannot be written.
bool writeChromeTrace(const std::string &Path);
/// Spans recorded in total (kept or not).
uint64_t spanCount();

} // namespace trace

/// RAII span: opens on construction, closes on destruction (also while an
/// exception unwinds through it).
class Scope {
public:
  explicit Scope(SpanName N, uint64_t Req = 0) : Live(trace::Enabled) {
    if (Live)
      trace::threadLog().open(N, Req, ticks());
  }
  ~Scope() {
    if (Live)
      trace::threadLog().close(ticks());
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  const bool Live;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
