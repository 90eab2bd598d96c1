//===- profile/Profiler.cpp - Sampling profiler for generated code --------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#if VCODE_TELEMETRY_ENABLED

#include "profile/Disasm.h"
#include "profile/JitDump.h"
#include <algorithm>
#include <atomic>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <vector>

#if defined(__linux__) && defined(__x86_64__)
#include <csignal>
#include <sys/time.h>
#include <ucontext.h>
#define VCODE_PF_NATIVE_SAMPLER 1
#else
#define VCODE_PF_NATIVE_SAMPLER 0
#endif

namespace vcode {
namespace profile {

namespace {

/// Session gate read on every virtual sample.
std::atomic<bool> GActive{false};

/// Native SIGPROF ring. Atomic slots keep the handler async-signal-safe
/// and the drain TSan-clean; slot value 0 means "empty or already
/// drained" (RIP 0 never occurs).
constexpr size_t kRingSlots = 1u << 16;
std::array<std::atomic<uint64_t>, kRingSlots> GRing;
std::atomic<uint64_t> GRingHead{0};
std::atomic<uint64_t> GRingDrained{0}; ///< next index drain will read
std::atomic<bool> GTimerArmed{false};

/// Virtual-sampler tallies (immediate attribution).
std::atomic<uint64_t> GVirtSamples{0};
std::atomic<uint64_t> GVirtAttributed{0};
/// Native tallies, owned by drainNativeRing under GDrainM.
std::mutex GDrainM;
uint64_t GNatSamples = 0, GNatAttributed = 0, GNatDropped = 0;

/// atexit plumbing for --profile-report / --dump-code.
std::atomic<bool> GWantReport{false};
std::mutex GDumpM;
std::string GDumpPattern; ///< empty = no dump; "all" or a name

#if VCODE_PF_NATIVE_SAMPLER
void sigprofHandler(int, siginfo_t *, void *Ctx) {
  // Async-signal-safe: two relaxed atomic ops, no locks, no allocation.
  auto *UC = static_cast<ucontext_t *>(Ctx);
  uint64_t Rip = uint64_t(UC->uc_mcontext.gregs[REG_RIP]);
  if (!Rip)
    return;
  uint64_t H = GRingHead.fetch_add(1, std::memory_order_relaxed);
  GRing[H % kRingSlots].store(Rip, std::memory_order_relaxed);
}
#endif

/// Attributes everything captured since the last drain. Overruns (more
/// ticks than ring slots between drains) count as dropped.
void drainNativeRing() {
  std::lock_guard<std::mutex> L(GDrainM);
  uint64_t Head = GRingHead.load(std::memory_order_relaxed);
  uint64_t From = GRingDrained.load(std::memory_order_relaxed);
  if (Head == From)
    return;
  uint64_t Avail = Head - From;
  if (Avail > kRingSlots) {
    GNatDropped += Avail - kRingSlots;
    From = Head - kRingSlots;
  }
  CodeMap &M = CodeMap::instance();
  for (uint64_t K = From; K < Head; ++K) {
    uint64_t Rip = GRing[K % kRingSlots].exchange(
        0, std::memory_order_relaxed);
    if (!Rip)
      continue; // handler racing ahead of the store; count it dropped
    ++GNatSamples;
    if (auto E = M.lookup(uintptr_t(Rip))) {
      E->Samples.fetch_add(1, std::memory_order_relaxed);
      ++GNatAttributed;
    }
  }
  GRingDrained.store(Head, std::memory_order_relaxed);
}

void dumpMatching(const std::string &Pattern, std::string &Out) {
  CodeMap &M = CodeMap::instance();
  bool All = Pattern == "all";
  uint64_t Matched = 0;
  for (auto &E : M.entries()) {
    if (!All && E->Name != Pattern)
      continue;
    ++Matched;
    dumpEntry(*E, Out);
    Out += '\n';
  }
  if (!Matched) {
    Out += "dump-code: no published function matches '";
    Out += Pattern;
    Out += "'\n";
  }
}

void registerAtExitOnce() {
  static bool Registered = (std::atexit(profileAtExit), true);
  (void)Registered;
}

} // namespace

bool samplerActive() { return GActive.load(std::memory_order_relaxed); }

bool startSampler(unsigned Hz) {
  if (GActive.exchange(true, std::memory_order_relaxed))
    return GTimerArmed.load(std::memory_order_relaxed);
#if VCODE_PF_NATIVE_SAMPLER
  if (Hz == 0)
    Hz = 997;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_sigaction = sigprofHandler;
  SA.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&SA.sa_mask);
  if (sigaction(SIGPROF, &SA, nullptr) == 0) {
    struct itimerval TV;
    TV.it_interval.tv_sec = 0;
    TV.it_interval.tv_usec = long(1000000 / Hz);
    if (TV.it_interval.tv_usec == 0)
      TV.it_interval.tv_usec = 1;
    TV.it_value = TV.it_interval;
    if (setitimer(ITIMER_PROF, &TV, nullptr) == 0) {
      GTimerArmed.store(true, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
#else
  (void)Hz;
  return false; // virtual sampling still on
#endif
}

void stopSampler() {
  if (!GActive.exchange(false, std::memory_order_relaxed))
    return;
#if VCODE_PF_NATIVE_SAMPLER
  if (GTimerArmed.exchange(false, std::memory_order_relaxed)) {
    struct itimerval TV;
    std::memset(&TV, 0, sizeof(TV));
    setitimer(ITIMER_PROF, &TV, nullptr);
    signal(SIGPROF, SIG_IGN);
  }
#endif
  drainNativeRing();
}

void recordVirtualPc(uintptr_t HostPc) {
  GVirtSamples.fetch_add(1, std::memory_order_relaxed);
  if (auto E = CodeMap::instance().lookup(HostPc)) {
    E->Samples.fetch_add(1, std::memory_order_relaxed);
    GVirtAttributed.fetch_add(1, std::memory_order_relaxed);
  }
}

void drainPendingSamples() {
  if (GRingHead.load(std::memory_order_relaxed) !=
      GRingDrained.load(std::memory_order_relaxed))
    drainNativeRing();
}

SamplerStats samplerStats() {
  drainNativeRing();
  std::lock_guard<std::mutex> L(GDrainM);
  SamplerStats S;
  S.VirtualSamples = GVirtSamples.load(std::memory_order_relaxed);
  S.VirtualAttributed = GVirtAttributed.load(std::memory_order_relaxed);
  S.NativeSamples = GNatSamples;
  S.NativeAttributed = GNatAttributed;
  S.NativeDropped = GNatDropped;
  return S;
}

void appendProfileReport(std::string &Out) {
  SamplerStats S = samplerStats(); // drains first
  char Line[256];
  Out += "profile:\n";
  double VirtRate =
      S.VirtualSamples
          ? 100.0 * double(S.VirtualAttributed) / double(S.VirtualSamples)
          : 0.0;
  std::snprintf(Line, sizeof(Line),
                "  virtual-pc samples: %llu (%llu attributed, %.1f%%)\n",
                (unsigned long long)S.VirtualSamples,
                (unsigned long long)S.VirtualAttributed, VirtRate);
  Out += Line;
  std::snprintf(
      Line, sizeof(Line),
      "  native samples: %llu (%llu in generated code, %llu in "
      "runtime, %llu dropped)\n",
      (unsigned long long)S.NativeSamples,
      (unsigned long long)S.NativeAttributed,
      (unsigned long long)(S.NativeSamples - S.NativeAttributed),
      (unsigned long long)S.NativeDropped);
  Out += Line;
  CodeMap::instance().appendReport(Out);
}

void requestProfileReport() {
  registerAtExitOnce();
  GWantReport.store(true, std::memory_order_relaxed);
  startSampler();
}

void requestDumpCode(const std::string &NameOrAll) {
  registerAtExitOnce();
  CodeMap::instance().setCaptureBytes(true);
  std::lock_guard<std::mutex> L(GDumpM);
  GDumpPattern = NameOrAll.empty() ? std::string("all") : NameOrAll;
}

void profileAtExit() {
  stopSampler();
  std::string Pattern;
  {
    std::lock_guard<std::mutex> L(GDumpM);
    Pattern = GDumpPattern;
  }
  if (!Pattern.empty()) {
    std::string Out;
    dumpMatching(Pattern, Out);
    std::fwrite(Out.data(), 1, Out.size(), stdout);
    std::fflush(stdout);
  }
  if (GWantReport.load(std::memory_order_relaxed)) {
    std::string Out;
    appendProfileReport(Out);
    std::cerr << Out; // matches telemetry's at-exit report stream
  }
  closeJitExports();
}

void resetSamplerForTest() {
  stopSampler();
  std::lock_guard<std::mutex> L(GDrainM);
  GVirtSamples.store(0, std::memory_order_relaxed);
  GVirtAttributed.store(0, std::memory_order_relaxed);
  GNatSamples = GNatAttributed = GNatDropped = 0;
  uint64_t Head = GRingHead.load(std::memory_order_relaxed);
  GRingDrained.store(Head, std::memory_order_relaxed);
  for (auto &Slot : GRing)
    Slot.store(0, std::memory_order_relaxed);
}

} // namespace profile
} // namespace vcode

#endif // VCODE_TELEMETRY_ENABLED
