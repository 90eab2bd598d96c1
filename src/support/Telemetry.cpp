//===- support/Telemetry.cpp - Telemetry registry and exporters -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include "profile/CodeMap.h"
#include "support/Error.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace vcode {
namespace telemetry {

unsigned detail::nextThreadId() {
  static std::atomic<unsigned> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

double calibrateTicksPerNs() {
#if defined(__x86_64__) || defined(__i386__)
  // Measure the TSC against steady_clock over a ~2ms window. Runs once,
  // the first time anything converts ticks; setTiming(true) does so before
  // any span can.
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
  uint64_t C0 = now();
  while (Clock::now() - T0 < std::chrono::milliseconds(2)) {
  }
  uint64_t C1 = now();
  Clock::time_point T1 = Clock::now();
  double Ns = std::chrono::duration<double, std::nano>(T1 - T0).count();
  double R = double(C1 - C0) / Ns;
  return R > 0 ? R : 1.0;
#else
  // now() returns steady_clock ticks directly.
  using P = std::chrono::steady_clock::period;
  return double(P::den) / (1e9 * double(P::num));
#endif
}

} // namespace

double ticksToNs(uint64_t Ticks) {
  static const double TicksPerNs = calibrateTicksPerNs();
  return double(Ticks) / TicksPerNs;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

struct Event {
  const char *Name;
  unsigned Tid;
  uint64_t Start;
  uint64_t End;
};

constexpr uint64_t kRingSize = 1u << 16; // 64K events, power of two

} // namespace

struct Registry::Impl {
  mutable std::mutex M; ///< guards the maps below (registration is cold)
  // std::map: node-based, so element addresses and key c_str() pointers
  // stay stable for the life of the process (Histogram::name() relies on
  // it).
  std::map<std::string, Counter> Counters;
  std::map<std::string, Histogram> Histograms;
  std::map<std::string, std::vector<Counter *>> Attached;
  std::map<std::string, uint64_t> Retired;
  std::map<std::string, std::vector<Histogram *>> AttachedHists;
  std::map<std::string, Histogram::Snapshot> RetiredHists;
  std::vector<BatchedCount *> Batches; ///< live threads' batch cells

  /// \p C's value plus its live batch cells' unflushed counts.
  uint64_t withPending(const Counter &C) const {
    uint64_t V = C.value();
#if VCODE_TELEMETRY_ENABLED
    for (const BatchedCount *B : Batches)
      if (&B->target() == &C)
        V += B->pending();
#endif
    return V;
  }

  // Event ring: single atomic cursor, slots overwritten on wrap. Writes to
  // a slot are unsynchronized by design (tracing is an opt-in debugging
  // mode); with 64K slots, concurrent writers collide only after the ring
  // wraps within one reader window. The 2MB backing store is allocated
  // lazily on the first event, so processes that never trace (and the
  // first cold code-generation run, which a perf test may be timing)
  // never touch it.
  std::atomic<Event *> Ring{nullptr};
  std::vector<Event> RingStorage; ///< guarded by M until published to Ring
  std::atomic<uint64_t> Head{0};

  Event *ensureRing() {
    std::lock_guard<std::mutex> L(M);
    if (RingStorage.empty())
      RingStorage.resize(size_t(kRingSize));
    Event *P = RingStorage.data();
    Ring.store(P, std::memory_order_release);
    return P;
  }
};

Registry::Registry() : I(new Impl) {}

Counter::Counter(const char *Name) : AttachedName(Name) {
  registry().attach(Name, this);
}

Counter::~Counter() {
  if (AttachedName)
    registry().detach(AttachedName, this);
}

#if VCODE_TELEMETRY_ENABLED
BatchedCount::BatchedCount(Counter &Target) : Target(Target) {
  registry().attach(this);
}

BatchedCount::~BatchedCount() {
  flush();
  registry().detach(this);
}
#endif

Histogram::Histogram(const char *Name) : Name(Name) {
  registry().attach(Name, this);
}

// Registry-owned histograms are named too, but live in the leaked registry
// and are never destroyed: only instance-owned ones detach here.
Histogram::~Histogram() {
  if (Name)
    registry().detach(Name, this);
}

double Histogram::Snapshot::percentile(double P) const {
  if (!Count)
    return 0;
  if (P < 0)
    P = 0;
  if (P > 100)
    P = 100;
  // Rank of the percentile sample, 1-based (p0 -> first sample).
  double Rank = P / 100.0 * double(Count);
  if (Rank < 1)
    Rank = 1;
  uint64_t Cum = 0;
  for (unsigned I = 0; I < kBuckets; ++I) {
    uint64_t N = Counts[I];
    if (!N)
      continue;
    if (double(Cum + N) >= Rank) {
      // Interpolate within [bucketLo, bucketHi) by the rank's position
      // among this bucket's samples, then clamp to the recorded max (the
      // top bucket's nominal width can far exceed any real sample).
      double Lo = double(bucketLo(I));
      double Hi = double(bucketHi(I));
      double Frac = (Rank - double(Cum)) / double(N);
      double V = Lo + (Hi - Lo) * Frac;
      return V > double(Max) ? double(Max) : V;
    }
    Cum += N;
  }
  return double(Max);
}

Registry &registry() {
  // Leaked singleton: atexit report/trace handlers may run after static
  // destructors, so the registry must never be destroyed.
  static Registry *R = new Registry;
  return *R;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> L(I->M);
  return I->Counters[std::string(Name)];
}

Histogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> L(I->M);
  auto [It, Inserted] = I->Histograms.try_emplace(std::string(Name));
  // Set the back-pointer only on first insertion: event recording reads
  // Name without the lock, so it must never be re-written once the
  // histogram has been handed out.
  if (Inserted)
    It->second.Name = It->first.c_str();
  return It->second;
}

Histogram::Snapshot Registry::histogramSnapshot(std::string_view Name) const {
  std::lock_guard<std::mutex> L(I->M);
  std::string Key(Name);
  Histogram::Snapshot S;
  if (auto It = I->Histograms.find(Key); It != I->Histograms.end())
    S.merge(It->second.snapshot());
  if (auto It = I->AttachedHists.find(Key); It != I->AttachedHists.end())
    for (const Histogram *H : It->second)
      S.merge(H->snapshot());
  if (auto It = I->RetiredHists.find(Key); It != I->RetiredHists.end())
    S.merge(It->second);
  return S;
}

uint64_t Registry::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> L(I->M);
  std::string Key(Name);
  uint64_t V = 0;
  if (auto It = I->Counters.find(Key); It != I->Counters.end())
    V += I->withPending(It->second);
  if (auto It = I->Attached.find(Key); It != I->Attached.end())
    for (const Counter *C : It->second)
      V += C->value();
  if (auto It = I->Retired.find(Key); It != I->Retired.end())
    V += It->second;
  return V;
}

void Registry::attach(const char *Name, Counter *C) {
  std::lock_guard<std::mutex> L(I->M);
  I->Attached[Name].push_back(C);
}

void Registry::detach(const char *Name, Counter *C) {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->Attached.find(Name);
  if (It == I->Attached.end())
    return;
  std::vector<Counter *> &V = It->second;
  V.erase(std::remove(V.begin(), V.end(), C), V.end());
  I->Retired[Name] += C->value();
}

#if VCODE_TELEMETRY_ENABLED
void Registry::attach(BatchedCount *B) {
  std::lock_guard<std::mutex> L(I->M);
  I->Batches.push_back(B);
}

void Registry::detach(BatchedCount *B) {
  std::lock_guard<std::mutex> L(I->M);
  I->Batches.erase(std::remove(I->Batches.begin(), I->Batches.end(), B),
                   I->Batches.end());
}
#endif

void Registry::attach(const char *Name, Histogram *H) {
  std::lock_guard<std::mutex> L(I->M);
  I->AttachedHists[Name].push_back(H);
}

void Registry::detach(const char *Name, Histogram *H) {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->AttachedHists.find(Name);
  if (It == I->AttachedHists.end())
    return;
  std::vector<Histogram *> &V = It->second;
  V.erase(std::remove(V.begin(), V.end(), H), V.end());
  I->RetiredHists[Name].merge(H->snapshot());
}

void Registry::recordEvent(const char *Name, unsigned Tid, uint64_t StartTick,
                           uint64_t EndTick) {
  Event *R = I->Ring.load(std::memory_order_acquire);
  if (!R)
    R = I->ensureRing();
  uint64_t Idx = I->Head.fetch_add(1, std::memory_order_relaxed);
  Event &E = R[Idx & (kRingSize - 1)];
  E.Name = Name;
  E.Tid = Tid;
  E.Start = StartTick;
  E.End = EndTick;
}

uint64_t Registry::eventsRecorded() const {
  return I->Head.load(std::memory_order_relaxed);
}

uint64_t Registry::eventCapacity() const { return kRingSize; }

void Registry::reset() {
  std::lock_guard<std::mutex> L(I->M);
  for (auto &[Name, C] : I->Counters)
    C.reset();
#if VCODE_TELEMETRY_ENABLED
  for (BatchedCount *B : I->Batches)
    B->clear();
#endif
  for (auto &[Name, V] : I->Attached)
    for (Counter *C : V)
      C->reset();
  for (auto &[Name, H] : I->Histograms)
    H.reset();
  for (auto &[Name, V] : I->AttachedHists)
    for (Histogram *H : V)
      H->reset();
  I->Retired.clear();
  I->RetiredHists.clear();
  I->Head.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Text report
//===----------------------------------------------------------------------===//

namespace {

void printDuration(char *Buf, size_t N, double Ns) {
  if (Ns >= 1e9)
    std::snprintf(Buf, N, "%.3fs", Ns / 1e9);
  else if (Ns >= 1e6)
    std::snprintf(Buf, N, "%.3fms", Ns / 1e6);
  else if (Ns >= 1e3)
    std::snprintf(Buf, N, "%.2fus", Ns / 1e3);
  else
    std::snprintf(Buf, N, "%.0fns", Ns);
}

} // namespace

void Registry::report(std::ostream &OS) const {
  char Line[256];
  OS << "== vcode telemetry report ==\n";
  OS << "hot-path instrumentation: "
     << (compiledIn() ? "compiled in (VCODE_TELEMETRY=ON)"
                      : "compiled out (VCODE_TELEMETRY=OFF)")
     << "\n";
  OS << "phase timing: "
     << (timingEnabled()
             ? "on"
             : "off (--telemetry-report/--trace-json/setTiming enable it)")
     << "; tracing: " << (tracingEnabled() ? "on" : "off") << "\n";

  // Merge global, live instance, and retired counter values by name.
  std::map<std::string, uint64_t> Merged;
  {
    std::lock_guard<std::mutex> L(I->M);
    for (const auto &[Name, C] : I->Counters)
      Merged[Name] += I->withPending(C);
    for (const auto &[Name, V] : I->Attached)
      for (const Counter *C : V)
        Merged[Name] += C->value();
    for (const auto &[Name, V] : I->Retired)
      Merged[Name] += V;
  }
  if (!Merged.empty()) {
    OS << "counters:\n";
    for (const auto &[Name, V] : Merged) {
      std::snprintf(Line, sizeof(Line), "  %-36s %12llu\n", Name.c_str(),
                    (unsigned long long)V);
      OS << Line;
    }
  }

  std::lock_guard<std::mutex> L(I->M);
  // Merge global, live instance, and retired histograms by name. Values
  // recorded into histograms are nanoseconds by convention (every span's
  // are).
  std::map<std::string, Histogram::Snapshot> MergedHists;
  for (const auto &[Name, H] : I->Histograms)
    MergedHists[Name].merge(H.snapshot());
  for (const auto &[Name, V] : I->AttachedHists)
    for (const Histogram *H : V)
      MergedHists[Name].merge(H->snapshot());
  for (const auto &[Name, S] : I->RetiredHists)
    MergedHists[Name].merge(S);
  bool AnyHist = false;
  for (const auto &[Name, S] : MergedHists)
    AnyHist |= S.Count != 0;
  if (AnyHist) {
    std::snprintf(Line, sizeof(Line),
                  "histograms:%27s %10s %10s %10s %10s %10s %10s\n", "",
                  "count", "total", "p50", "p90", "p99", "max");
    OS << Line;
    for (const auto &[Name, S] : MergedHists) {
      if (!S.Count)
        continue;
      char Total[32], P50[32], P90[32], P99[32], Max[32];
      printDuration(Total, sizeof(Total), double(S.Sum));
      printDuration(P50, sizeof(P50), S.percentile(50));
      printDuration(P90, sizeof(P90), S.percentile(90));
      printDuration(P99, sizeof(P99), S.percentile(99));
      printDuration(Max, sizeof(Max), double(S.Max));
      std::snprintf(Line, sizeof(Line),
                    "  %-36s %10llu %10s %10s %10s %10s %10s\n", Name.c_str(),
                    (unsigned long long)S.Count, Total, P50, P90, P99, Max);
      OS << Line;
    }
  }

  // Published-code heat map (src/profile/CodeMap.h); empty when nothing
  // was published or the profiler is compiled out.
  std::string CodeMapText;
  profile::CodeMap::instance().appendReport(CodeMapText);
  OS << CodeMapText;

  uint64_t Recorded = I->Head.load(std::memory_order_relaxed);
  uint64_t Dropped = Recorded > kRingSize ? Recorded - kRingSize : 0;
  std::snprintf(Line, sizeof(Line),
                "trace events: %llu recorded, %llu dropped (capacity %llu%s)\n",
                (unsigned long long)Recorded, (unsigned long long)Dropped,
                (unsigned long long)kRingSize,
                Dropped ? ", oldest overwritten" : "");
  OS << Line;
}

//===----------------------------------------------------------------------===//
// Chrome trace_event export
//===----------------------------------------------------------------------===//

namespace {

void appendJsonEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    char C = *S;
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (uint8_t(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(uint8_t(C)));
      Out += Buf;
    } else {
      Out += C;
    }
  }
}

} // namespace

void Registry::writeChromeTrace(std::ostream &OS) const {
  const Event *R = I->Ring.load(std::memory_order_acquire);
  uint64_t Head = I->Head.load(std::memory_order_relaxed);
  uint64_t N = R ? std::min(Head, kRingSize) : 0;
  std::vector<Event> Events(R, R + size_t(N));

  // chrome://tracing wants per-tid monotone timestamps; the ring is in
  // global append order, so sort by (tid, start).
  std::sort(Events.begin(), Events.end(), [](const Event &A, const Event &B) {
    return A.Tid != B.Tid ? A.Tid < B.Tid : A.Start < B.Start;
  });

  uint64_t Base = ~uint64_t(0);
  for (const Event &E : Events)
    Base = std::min(Base, E.Start);

  std::string Out;
  Out.reserve(Events.size() * 96 + 64);
  Out += "{\"traceEvents\":[";
  char Buf[128];
  bool First = true;
  for (const Event &E : Events) {
    double TsUs = ticksToNs(E.Start - Base) / 1e3;
    double DurUs = ticksToNs(E.End - E.Start) / 1e3;
    if (!First)
      Out += ",";
    First = false;
    Out += "\n{\"name\":\"";
    appendJsonEscaped(Out, E.Name ? E.Name : "?");
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"cat\":\"vcode\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  E.Tid, TsUs, DurUs);
    Out += Buf;
  }
  // Overwritten ring slots are dropped from the export; say how many so
  // a truncated trace is distinguishable from a complete one.
  uint64_t Dropped = Head > kRingSize ? Head - kRingSize : 0;
  std::snprintf(Buf, sizeof(Buf), "\n],\"droppedEvents\":%llu}\n",
                (unsigned long long)Dropped);
  Out += Buf;
  OS << Out;
}

//===----------------------------------------------------------------------===//
// Free-function conveniences and CLI plumbing
//===----------------------------------------------------------------------===//

void report(std::ostream &OS) { registry().report(OS); }
void writeChromeTrace(std::ostream &OS) { registry().writeChromeTrace(OS); }
void resetAll() { registry().reset(); }

namespace {

// Set before the atexit handler is registered; both outlive main. The
// string is constructed during static initialization, so the handler
// (registered later, during main) runs before its destructor.
bool GWantReport = false;
std::string GTraceFile;

void atExitFlush() {
  if (!GTraceFile.empty()) {
    std::ofstream OS(GTraceFile);
    if (!OS) {
      std::fprintf(stderr, "telemetry: cannot open '%s' for the trace\n",
                   GTraceFile.c_str());
    } else {
      registry().writeChromeTrace(OS);
      uint64_t Recorded = registry().eventsRecorded();
      uint64_t Cap = registry().eventCapacity();
      std::fprintf(
          stderr,
          "telemetry: wrote %llu trace events (%llu dropped) to %s "
          "(load in chrome://tracing)\n",
          (unsigned long long)std::min(Recorded, Cap),
          (unsigned long long)(Recorded > Cap ? Recorded - Cap : 0),
          GTraceFile.c_str());
    }
  }
  if (GWantReport)
    registry().report(std::cerr);
}

} // namespace

int handleArgs(int Argc, char **Argv) {
  bool WantReport = false;
  const char *TraceFile = nullptr;

  int Out = 1;
  for (int Idx = 1; Idx < Argc; ++Idx) {
    const char *A = Argv[Idx] ? Argv[Idx] : "";
    if (std::strcmp(A, "--telemetry-report") == 0) {
      WantReport = true;
      continue;
    }
    if (std::strncmp(A, "--trace-json=", 13) == 0) {
      TraceFile = A + 13;
      if (!*TraceFile)
        fatal("bad --trace-json value '' (expected a file path)");
      continue;
    }
    Argv[Out++] = Argv[Idx];
  }
  if (Out < Argc)
    Argv[Out] = nullptr;

  if (WantReport) {
    GWantReport = true;
    setTiming(true); // the report should include phase spans
  }
  if (TraceFile) {
    GTraceFile = TraceFile;
    setTracing(true);
  }
  if (GWantReport || !GTraceFile.empty()) {
    static bool Registered = (std::atexit(atExitFlush), true);
    (void)Registered;
  }
  return Out;
}

} // namespace telemetry
} // namespace vcode
