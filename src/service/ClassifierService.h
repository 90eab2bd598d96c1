//===- service/ClassifierService.h - DPF classification service -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "millions of users" story told as a running system: a packet
/// classification service managing many concurrently-installed DPF filter
/// sets under churn. Worker threads install and retire filter sets through
/// DpfEngine::installShared into one shared CodeCache (sized below the
/// live set count, so LRU eviction and pin-based reclamation are always in
/// play, with hot promotion available on top), while dispatch threads
/// classify Zipf-skewed synthetic traffic (service/Traffic.h) and check
/// every verdict against the workload's ground truth — plus a sampled
/// differential gate against the reference trie interpreter
/// (dpf::Trie::classify), so "fast" is continuously cross-checked against
/// "right".
///
/// The paper's Table 3 measures one filter set, installed once, on a cold
/// timer. A service is judged differently: tail install latency while
/// dispatchers are running, sustained dispatch throughput, and cache
/// behavior under eviction pressure. The service reports exactly that,
/// off the existing telemetry registry: install latency percentiles from
/// the new log-bucketed Histogram ("service.install_ns"), sampled dispatch
/// latency ("service.dispatch_ns"), and the CodeCache's exact counters
/// (hits/misses/generations/evictions/promotions) for the SLO table that
/// bench_dpf_service prints (EXPERIMENTS.md E16).
///
/// Substrate-agnostic: the caller supplies the Target and a CpuFactory,
/// so the same service runs on the MIPS interpreter, the native x86-64
/// backend, or the binary translator.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SERVICE_CLASSIFIERSERVICE_H
#define VCODE_SERVICE_CLASSIFIERSERVICE_H

#include "core/CodeCache.h"
#include "core/Tier.h"
#include "dpf/Engines.h"
#include "service/Traffic.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include "support/Telemetry.h"
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace vcode {
namespace service {

/// Runs one churn-under-dispatch workload and reports SLOs.
class ClassifierService {
public:
  /// Makes a fresh CPU over the service's arena (one per dispatch thread;
  /// threads never share a Cpu), e.g. Substrate::makeCpu.
  using CpuFactory = std::function<std::unique_ptr<sim::Cpu>()>;

  /// Hottest filter sets listed in the report. Heat is profiler samples
  /// when the sampler ran, joined to sets through the CodeMap by shared
  /// cache key; dispatch counts are always tallied.
  static constexpr unsigned kTopSets = 5;

  struct Config {
    unsigned Sets = 32;          ///< concurrently-managed filter sets
    unsigned FlowsPerSet = 10;   ///< filters per set (the paper's 10)
    unsigned DispatchThreads = 2;
    unsigned ChurnThreads = 2;   ///< install/retire workers
    double DurationSec = 1.0;    ///< churn phase length (bounded soak)
    double ZipfS = 1.1;          ///< traffic skew (0 = uniform)
    unsigned DiffSampleEvery = 61; ///< trie differential sampling period
    uint64_t Seed = 42;
    uint64_t HotThreshold = 0;   ///< promote shared classifiers (0 = off)
    Tier GenTier = defaultTier();
    unsigned CacheShards = 8;
    /// Cache capacity per shard; 0 sizes the cache to roughly half the
    /// live sets, so steady-state churn continuously evicts.
    size_t CacheEntriesPerShard = 0;
  };

  /// Outcome of one run(): correctness gates plus the SLO numbers.
  struct Report {
    double WallSec = 0;
    uint64_t Installs = 0;  ///< installShared calls (prepopulate + churn)
    uint64_t Retires = 0;
    uint64_t Dispatches = 0;
    uint64_t DiffChecks = 0;     ///< sampled trie differentials run
    uint64_t Mismatches = 0;     ///< compiled verdict != trie verdict
    uint64_t VerdictErrors = 0;  ///< verdict != workload ground truth
    uint64_t Skips = 0;          ///< dispatches that hit a retired slot
    CodeCache::Stats Cache;
    double HitRatio = 0;         ///< hits / (hits + misses)
    double InstallsPerSec = 0;
    double DispatchPerSec = 0;
    double InstallP50Us = 0, InstallP99Us = 0, InstallP999Us = 0;
    double InstallMaxUs = 0;
    double DispatchP50Us = 0, DispatchP99Us = 0;

    /// One hottest-filter-set row (kTopSets of these, hottest first).
    struct HotSet {
      unsigned Set = 0;        ///< filter-set index
      std::string Key;         ///< shared cache key the set files under
      uint64_t Samples = 0;    ///< profiler heat (live + retired versions)
      uint64_t Dispatches = 0; ///< classify() calls routed to the set
      unsigned TierNum = 0;    ///< generation tier of the live classifier
      bool LiveEntry = false;  ///< a CodeMap entry was live at report time
    };
    std::vector<HotSet> TopSets;

    /// Every verdict matched ground truth and every sampled differential
    /// matched the reference interpreter.
    bool ok() const { return Mismatches == 0 && VerdictErrors == 0; }
    /// The cache's exactly-once accounting survived the churn: every
    /// install was either a hit or a miss, and every miss either
    /// generated or failed.
    bool countersReconcile() const {
      return Cache.Hits + Cache.Misses == Installs &&
             Cache.Misses == Cache.Generations + Cache.Failures;
    }
  };

  /// \p Tgt must outlive the service; \p Mem is the shared arena every
  /// engine generates into and every Cpu executes from (the CodeCache is
  /// built over it).
  ClassifierService(Target &Tgt, sim::Memory &Mem, CpuFactory MakeCpu,
                    Config C);

  /// Runs the workload: prepopulates (when configured), races
  /// ChurnThreads install/retire workers against DispatchThreads
  /// classifiers for DurationSec, joins, and returns the report.
  Report run();

  const Config &config() const { return Cfg; }
  /// Per-service install-latency distribution (ns), for tests that check
  /// the histogram itself.
  telemetry::Histogram::Snapshot installLatency() const {
    return InstallHist.snapshot();
  }

  /// Prints \p R as the SLO table under a "config" header line.
  static void printReport(const Report &R, const Config &C,
                          const char *Title);

private:
  struct Live; ///< one installed engine; retired by dropping the pointer
  struct Slot {
    std::mutex M;
    std::shared_ptr<Live> Cur;
  };

  void installSet(unsigned Set);
  void churnLoop(unsigned Tid);
  void dispatchLoop(unsigned Tid);
  /// Ranks filter sets by profiler heat (joined through the CodeMap) and
  /// per-set dispatch tallies; fills Report::TopSets.
  void buildTopSets(Report &R) const;

  Target &Tgt;
  sim::Memory &Mem;
  CpuFactory MakeCpu;
  Config Cfg;
  CodeCache Cache;

  /// Per-set filters and reference tries, built once; const during the
  /// threaded phase.
  std::vector<std::vector<dpf::Filter>> Filters;
  std::vector<dpf::Trie> Tries;
  std::vector<Slot> Slots;

  /// Per-set dispatch tallies. Dispatch threads count locally and fold
  /// here once at exit, so the hot loop stays free of shared writes.
  mutable std::mutex SetDispatchM;
  std::vector<uint64_t> SetDispatches;

  std::atomic<bool> Stop{false};

  // Instance-owned telemetry: exact per-service values here, and the same
  // numbers aggregated under "service.*" in the process-wide report.
  telemetry::Counter CtInstalls{"service.installs"};
  telemetry::Counter CtRetires{"service.retires"};
  telemetry::Counter CtDispatches{"service.dispatches"};
  telemetry::Counter CtDiffChecks{"service.diff_checks"};
  telemetry::Counter CtMismatches{"service.diff_mismatches"};
  telemetry::Counter CtVerdictErrors{"service.verdict_errors"};
  telemetry::Counter CtSkips{"service.skips"};
  telemetry::Histogram InstallHist{"service.install_ns"};
  telemetry::Histogram DispatchHist{"service.dispatch_ns"};
};

} // namespace service
} // namespace vcode

#endif // VCODE_SERVICE_CLASSIFIERSERVICE_H
