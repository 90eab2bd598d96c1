//===- service/ClassifierService.cpp - DPF classification service -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "service/ClassifierService.h"
#include "profile/CodeMap.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

using namespace vcode;
using namespace vcode::service;

/// One installed classifier. Slots swap these by shared_ptr: a dispatcher
/// that copied the pointer keeps the engine (and, through the engine's
/// cache Handle, the generated code) alive across a concurrent retire or
/// reinstall — the service-level mirror of the cache's pin-based
/// reclamation.
struct ClassifierService::Live {
  Live(Target &T, sim::Memory &M) : Engine(T, M) {}
  dpf::DpfEngine Engine;
};

ClassifierService::ClassifierService(Target &Tgt, sim::Memory &Mem,
                                     CpuFactory MakeCpu, Config C)
    : Tgt(Tgt), Mem(Mem), MakeCpu(std::move(MakeCpu)), Cfg(C),
      Cache(Mem,
            CodeCache::Options(
                C.CacheShards,
                C.CacheEntriesPerShard
                    ? C.CacheEntriesPerShard
                    // Auto: capacity of about half the live sets, so the
                    // steady state is continuous eviction.
                    : std::max<size_t>(1, C.Sets / (2 * std::max(
                                                            1u,
                                                            C.CacheShards))))),
      Slots(C.Sets), SetDispatches(C.Sets, 0) {
  if (Cfg.Sets == 0 || Cfg.FlowsPerSet == 0)
    fatal("service: need at least one set and one filter per set");
  if (Cfg.DispatchThreads == 0)
    fatal("service: need at least one dispatch thread");
  if (Cfg.DiffSampleEvery == 0)
    Cfg.DiffSampleEvery = 1;
  if (!this->MakeCpu)
    fatal("service: a CpuFactory is required");
  Filters.reserve(Cfg.Sets);
  Tries.reserve(Cfg.Sets);
  for (unsigned S = 0; S < Cfg.Sets; ++S) {
    Filters.push_back(makeSetFilters(S, Cfg.FlowsPerSet));
    Tries.push_back(dpf::Trie::build(Filters.back()));
  }
}

void ClassifierService::installSet(unsigned Set) {
  auto L = std::make_shared<Live>(Tgt, Mem);
  L->Engine.setTier(Cfg.GenTier);
  L->Engine.setHotThreshold(Cfg.HotThreshold);
  // Unconditionally timed (not gated like phase spans): the install
  // latency distribution IS the service's product, and now() is one TSC
  // read on either side of a code generation.
  uint64_t T0 = telemetry::now();
  L->Engine.installShared(Cache, Filters[Set]);
  InstallHist.record(uint64_t(telemetry::ticksToNs(telemetry::now() - T0)));
  {
    std::lock_guard<std::mutex> Lock(Slots[Set].M);
    Slots[Set].Cur = std::move(L);
  }
  CtInstalls.inc();
}

void ClassifierService::churnLoop(unsigned Tid) {
  Rng R(Cfg.Seed + 0x1000 + Tid);
  while (!Stop.load(std::memory_order_relaxed)) {
    unsigned Set = unsigned(R.below(Cfg.Sets));
    if (R.chance(1, 4)) {
      // Retire: drop the slot's engine. In-flight dispatchers finish on
      // their copied shared_ptr; the cache entry itself stays (only its
      // pin drops), so a reinstall is a cache hit unless eviction got it.
      std::shared_ptr<Live> Old;
      {
        std::lock_guard<std::mutex> Lock(Slots[Set].M);
        Old = std::move(Slots[Set].Cur);
      }
      if (Old)
        CtRetires.inc();
    } else {
      installSet(Set);
    }
  }
}

void ClassifierService::dispatchLoop(unsigned Tid) {
  std::unique_ptr<sim::Cpu> Cpu = MakeCpu();
  if (!Cpu)
    fatal("service: CpuFactory returned no Cpu");
  Cpu->setStackTop(Mem.allocStack());
  TrafficGen Traffic(Mem, Cfg.Sets, Cfg.FlowsPerSet, Cfg.ZipfS,
                     Cfg.Seed + 0x2000 + Tid);
  // Thread-local per-set tallies, folded into SetDispatches once at exit.
  std::vector<uint64_t> MySetDispatches(Cfg.Sets, 0);
  uint64_t N = 0;
  while (!Stop.load(std::memory_order_relaxed)) {
    TrafficGen::Pkt P = Traffic.next();
    std::shared_ptr<Live> L;
    {
      std::lock_guard<std::mutex> Lock(Slots[P.Set].M);
      L = Slots[P.Set].Cur;
    }
    if (!L) {
      CtSkips.inc(); // the set is mid-retire; the packet has no classifier
      continue;
    }
    ++N;
    ++MySetDispatches[P.Set];
    bool Sampled = N % 16 == 0; // sampled dispatch latency (2 TSC reads)
    uint64_t T0 = Sampled ? telemetry::now() : 0;
    int Verdict = L->Engine.classify(*Cpu, P.Addr);
    if (Sampled)
      DispatchHist.record(
          uint64_t(telemetry::ticksToNs(telemetry::now() - T0)));
    CtDispatches.inc();
    // Ground truth is free: the traffic generator knows which filter (if
    // any) its packet matches. Checked on every dispatch.
    if (Verdict != P.ExpectId)
      CtVerdictErrors.inc();
    // The sampled differential gate: the compiled classifier against the
    // reference trie interpreter, on the live packet bytes.
    if (N % Cfg.DiffSampleEvery == 0) {
      CtDiffChecks.inc();
      if (Tries[P.Set].classify(Mem, P.Addr) != Verdict)
        CtMismatches.inc();
    }
  }
  {
    std::lock_guard<std::mutex> Lock(SetDispatchM);
    for (unsigned S = 0; S < Cfg.Sets; ++S)
      SetDispatches[S] += MySetDispatches[S];
  }
}

void ClassifierService::buildTopSets(Report &R) const {
  // Heat joins through the CodeMap by shared cache key: the live entry
  // (v_end publishes cached code under its key) plus samples folded into
  // the retired tally when churn evicted earlier versions of the same key.
  std::vector<std::pair<std::string, uint64_t>> Retired =
      profile::CodeMap::instance().retiredHeat();
  std::unordered_map<std::string, uint64_t> RetiredByKey(Retired.begin(),
                                                         Retired.end());
  std::vector<Report::HotSet> Sets;
  Sets.reserve(Cfg.Sets);
  for (unsigned S = 0; S < Cfg.Sets; ++S) {
    Report::HotSet H;
    H.Set = S;
    H.Key = dpf::DpfEngine::sharedCacheKey(Tgt, dpf::DpfEngine::Dispatch::Auto,
                                           Filters[S]);
    {
      std::lock_guard<std::mutex> Lock(SetDispatchM);
      H.Dispatches = SetDispatches[S];
    }
    if (std::shared_ptr<const profile::CodeEntry> E =
            profile::CodeMap::instance().findByName(H.Key)) {
      H.Samples = E->Samples.load(std::memory_order_relaxed);
      H.TierNum = unsigned(E->GenTier);
      H.LiveEntry = true;
    }
    auto It = RetiredByKey.find(H.Key);
    if (It != RetiredByKey.end())
      H.Samples += It->second;
    Sets.push_back(std::move(H));
  }
  std::sort(Sets.begin(), Sets.end(),
            [](const Report::HotSet &A, const Report::HotSet &B) {
              if (A.Samples != B.Samples)
                return A.Samples > B.Samples;
              if (A.Dispatches != B.Dispatches)
                return A.Dispatches > B.Dispatches;
              return A.Set < B.Set;
            });
  if (Sets.size() > kTopSets)
    Sets.resize(kTopSets);
  R.TopSets = std::move(Sets);
}

ClassifierService::Report ClassifierService::run() {
  auto Start = std::chrono::steady_clock::now();
  // Every set is installed before the clock starts.
  for (unsigned S = 0; S < Cfg.Sets; ++S)
    installSet(S);

  Stop.store(false, std::memory_order_relaxed);
  std::vector<std::thread> Threads;
  Threads.reserve(Cfg.ChurnThreads + Cfg.DispatchThreads);
  for (unsigned T = 0; T < Cfg.ChurnThreads; ++T)
    Threads.emplace_back([this, T] { churnLoop(T); });
  for (unsigned T = 0; T < Cfg.DispatchThreads; ++T)
    Threads.emplace_back([this, T] { dispatchLoop(T); });
  std::this_thread::sleep_for(std::chrono::duration<double>(Cfg.DurationSec));
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();

  Report R;
  R.WallSec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  R.Installs = CtInstalls.value();
  R.Retires = CtRetires.value();
  R.Dispatches = CtDispatches.value();
  R.DiffChecks = CtDiffChecks.value();
  R.Mismatches = CtMismatches.value();
  R.VerdictErrors = CtVerdictErrors.value();
  R.Skips = CtSkips.value();
  R.Cache = Cache.stats();
  uint64_t Lookups = R.Cache.Hits + R.Cache.Misses;
  R.HitRatio = Lookups ? double(R.Cache.Hits) / double(Lookups) : 0;
  R.InstallsPerSec = R.WallSec > 0 ? double(R.Installs) / R.WallSec : 0;
  R.DispatchPerSec = R.WallSec > 0 ? double(R.Dispatches) / R.WallSec : 0;
  telemetry::Histogram::Snapshot Inst = InstallHist.snapshot();
  R.InstallP50Us = Inst.percentile(50) / 1e3;
  R.InstallP99Us = Inst.percentile(99) / 1e3;
  R.InstallP999Us = Inst.percentile(99.9) / 1e3;
  R.InstallMaxUs = double(Inst.Max) / 1e3;
  telemetry::Histogram::Snapshot Disp = DispatchHist.snapshot();
  R.DispatchP50Us = Disp.percentile(50) / 1e3;
  R.DispatchP99Us = Disp.percentile(99) / 1e3;
  buildTopSets(R);
  return R;
}

void ClassifierService::printReport(const Report &R, const Config &C,
                                    const char *Title) {
  std::printf("%s: %u sets x %u filters, %u dispatch + %u churn threads, "
              "zipf %.2f, %.1fs\n",
              Title, C.Sets, C.FlowsPerSet, C.DispatchThreads, C.ChurnThreads,
              C.ZipfS, C.DurationSec);
  TablePrinter T({"metric", "value"});
  T.addRow({"installs (filter sets)",
            strFormat("%llu (%llu filters)", (unsigned long long)R.Installs,
                      (unsigned long long)(R.Installs * C.FlowsPerSet))});
  T.addRow({"install rate", strFormat("%.0f sets/s", R.InstallsPerSec)});
  T.addRow({"install p50 / p99 / p999",
            strFormat("%.1f / %.1f / %.1f us", R.InstallP50Us, R.InstallP99Us,
                      R.InstallP999Us)});
  T.addRow({"install max", strFormat("%.1f us", R.InstallMaxUs)});
  T.addRow({"dispatch throughput",
            strFormat("%.0f msgs/s", R.DispatchPerSec)});
  T.addRow({"dispatch p50 / p99 (sampled)",
            strFormat("%.2f / %.2f us", R.DispatchP50Us, R.DispatchP99Us)});
  T.addRow({"cache hit ratio",
            strFormat("%.1f%% (%llu hits / %llu misses)", R.HitRatio * 100,
                      (unsigned long long)R.Cache.Hits,
                      (unsigned long long)R.Cache.Misses)});
  T.addRow({"generations / evictions",
            strFormat("%llu / %llu", (unsigned long long)R.Cache.Generations,
                      (unsigned long long)R.Cache.Evictions)});
  T.addRow({"promotions", strFormat("%llu",
                                    (unsigned long long)R.Cache.Promotions)});
  T.addRow({"retires / skips",
            strFormat("%llu / %llu", (unsigned long long)R.Retires,
                      (unsigned long long)R.Skips)});
  T.addRow({"differential checks",
            strFormat("%llu sampled, %llu mismatches",
                      (unsigned long long)R.DiffChecks,
                      (unsigned long long)R.Mismatches)});
  T.addRow({"verdict errors (vs ground truth)",
            strFormat("%llu of %llu", (unsigned long long)R.VerdictErrors,
                      (unsigned long long)R.Dispatches)});
  T.print();

  if (!R.TopSets.empty()) {
    std::printf("hottest filter sets (top %zu of %u):\n", R.TopSets.size(),
                C.Sets);
    TablePrinter H({"set", "samples", "dispatches", "tier", "key"});
    for (const Report::HotSet &S : R.TopSets) {
      // Keys are long; the set id and the filter-set tail identify a row.
      std::string K = S.Key.size() > 40 ? S.Key.substr(0, 37) + "..." : S.Key;
      H.addRow({strFormat("%u", S.Set),
                strFormat("%llu", (unsigned long long)S.Samples),
                strFormat("%llu", (unsigned long long)S.Dispatches),
                S.LiveEntry ? strFormat("tier%u", S.TierNum) : "retired", K});
    }
    H.print();
  }
}
