//===- perfbench/bench/Trace.cpp - In-memory span recorder ----------------===//

#include "Trace.h"
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

double nsPerTick() {
  static const double Ratio = [] {
    auto W0 = std::chrono::steady_clock::now();
    uint64_t T0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto W1 = std::chrono::steady_clock::now();
    uint64_t T1 = ticks();
    double Ns = std::chrono::duration<double, std::nano>(W1 - W0).count();
    return T1 > T0 ? Ns / double(T1 - T0) : 1.0;
  }();
  return Ratio;
}

const char *spanNameStr(SpanName N) {
  static const char *Names[] = {
      "bench.request",      "bench.batch",
      "sim.alloc_code",     "core.lambda",       "mips.emit",
      "sparc.emit",         "alpha.emit",        "x64.emit",
      "core.virtual_emit",  "core.tier1_emit",   "core.end",
      "dpf.install",        "dpf.install_shared", "tcc.compile",
      "dpf.classify",       "dpf.trie_classify", "sim.call",
      "dbt.translate",      "service.retire",    "bench.check",
  };
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                size_t(SpanName::NumNames));
  return Names[size_t(N)];
}

void SpanLog::open(SpanName N, uint64_t Req, uint64_t Now) {
  Open O;
  O.Name = N;
  O.Id = (uint64_t(Tid) << 40) | NextId++;
  O.Req = Req;
  O.Start = Now;
  Stack.push_back(O);
}

uint64_t SpanLog::close(uint64_t Now) {
  if (Stack.empty())
    return 0;
  Open O = Stack.back();
  Stack.pop_back();
  uint64_t Dur = Now > O.Start ? Now - O.Start : 0;
  LayerTotals &A = Acc[size_t(O.Name)];
  ++A.Count;
  A.Total += Dur;
  A.Self += Dur > O.ChildTicks ? Dur - O.ChildTicks : 0;
  uint64_t Parent = 0;
  if (!Stack.empty()) {
    Stack.back().ChildTicks += Dur;
    Parent = Stack.back().Id;
  }
  if (Kept.size() < MaxKept)
    Kept.push_back(Span{O.Name, O.Id, Parent, O.Req, O.Start, Now});
  else
    ++Dropped;
  return Dur;
}

namespace trace {

namespace {
constexpr size_t MaxKeptSpans = 50000;

std::mutex LogsM;
std::vector<std::unique_ptr<SpanLog>> Logs;
thread_local SpanLog *Mine = nullptr;
} // namespace

void setEnabled(bool On) { Enabled = On; }

SpanLog &threadLog() {
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(LogsM);
    Logs.push_back(
        std::make_unique<SpanLog>(uint32_t(Logs.size() + 1), MaxKeptSpans));
    Mine = Logs.back().get();
  }
  return *Mine;
}

LayerTotals totals(SpanName N) {
  std::lock_guard<std::mutex> Lock(LogsM);
  LayerTotals T;
  for (const auto &L : Logs) {
    const LayerTotals &X = L->totals(N);
    T.Count += X.Count;
    T.Total += X.Total;
    T.Self += X.Self;
  }
  return T;
}

void reset() {
  std::lock_guard<std::mutex> Lock(LogsM);
  for (auto &L : Logs)
    *L = SpanLog(L->tid(), MaxKeptSpans);
}

uint64_t spanCount() {
  std::lock_guard<std::mutex> Lock(LogsM);
  uint64_t N = 0;
  for (const auto &L : Logs)
    N += L->kept().size() + L->dropped();
  return N;
}

bool writeChromeTrace(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(LogsM);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = ~uint64_t(0), Dropped = 0;
  for (const auto &L : Logs) {
    Dropped += L->dropped();
    for (const SpanLog::Span &S : L->kept())
      Base = std::min(Base, S.Start);
  }
  std::fprintf(F, "{\"droppedSpans\": %llu, \"traceEvents\": [",
               (unsigned long long)Dropped);
  bool First = true;
  for (const auto &L : Logs) {
    for (const SpanLog::Span &S : L->kept()) {
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"req\":%llu}}",
                   First ? "" : ",", spanNameStr(S.Name), L->tid(),
                   ticksToUs(S.Start - Base), ticksToUs(S.End - S.Start),
                   (unsigned long long)S.Id, (unsigned long long)S.Parent,
                   (unsigned long long)S.Req);
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace trace
} // namespace perfbench
