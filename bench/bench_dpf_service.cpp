//===- bench/bench_dpf_service.cpp - E16: DPF at service scale --------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper's Table 3 measures a single ten-filter set, installed once.
// This bench measures DPF the way a kernel would actually run it: a
// classification service managing thousands of filters whose sets are
// concurrently installed and retired through the shared CodeCache
// (eviction pressure on) while dispatch threads classify Zipf-skewed
// traffic — with every verdict checked against the workload's ground
// truth and a sampled differential gate against the reference trie
// interpreter. Prints the SLO table (install latency percentiles off the
// telemetry histogram, dispatch throughput, cache hit ratio) at three
// churn levels for EXPERIMENTS.md E16, and exits nonzero if any
// correctness gate or the install-volume floor fails.
//
// Flags (support/ToolFlags): --filters= (total, split into sets of 10),
// --threads= (dispatch), --churn= (install/retire workers), --duration=
// (seconds per level), --zipf= (skew), --target=mips|host|dbt, --tier=,
// --hot-threshold=. --soak runs a single bounded pass with the gates but
// without the E16 sweep or the install floor — the ctest/CI mode, sized
// to stay brief under sanitizers. Every report ends with the top-N
// hottest filter sets (dispatch tallies always; profiler samples when
// --profile-report has the sampler running).
//
//===----------------------------------------------------------------------===//

#include "service/ClassifierService.h"
#include "substrate/Substrate.h"
#include "support/Error.h"
#include "support/ToolFlags.h"
#include <cstdio>
#include <cstring>

using namespace vcode;
using namespace vcode::service;

namespace {

/// Applies the gates every run must pass; returns false (after printing
/// why) on any violation.
bool checkGates(const ClassifierService::Report &R, const char *What) {
  bool Ok = true;
  if (!R.ok()) {
    std::fprintf(stderr,
                 "FAIL(%s): %llu differential mismatches, %llu verdict "
                 "errors — the compiled classifiers disagreed with the "
                 "reference\n",
                 What, (unsigned long long)R.Mismatches,
                 (unsigned long long)R.VerdictErrors);
    Ok = false;
  }
  if (!R.countersReconcile()) {
    std::fprintf(stderr,
                 "FAIL(%s): cache counters do not reconcile (installs %llu, "
                 "hits %llu, misses %llu, generations %llu, failures %llu)\n",
                 What, (unsigned long long)R.Installs,
                 (unsigned long long)R.Cache.Hits,
                 (unsigned long long)R.Cache.Misses,
                 (unsigned long long)R.Cache.Generations,
                 (unsigned long long)R.Cache.Failures);
    Ok = false;
  }
  if (R.DiffChecks == 0) {
    std::fprintf(stderr, "FAIL(%s): the sampled differential gate never "
                         "ran\n",
                 What);
    Ok = false;
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  tool::ToolOptions Opts;
  Argc = tool::handleArgs(Argc, Argv, Opts);
  bool Soak = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--soak"))
      Soak = true;
    else
      fatal("bench_dpf_service: unknown argument '%s'", Argv[I]);
  }

  ClassifierService::Config C;
  C.FlowsPerSet = 10; // the paper's ten-filter sets
  uint64_t TotalFilters = Opts.FiltersGiven ? Opts.Filters
                          : Soak            ? 320
                                            : 1280;
  C.Sets = unsigned(std::max<uint64_t>(1, TotalFilters / C.FlowsPerSet));
  if (C.Sets > 100000)
    fatal("bench_dpf_service: --filters=%llu is past the arena budget "
          "(at most 1000000 filters)",
          (unsigned long long)TotalFilters);
  C.DispatchThreads = unsigned(Opts.ThreadsGiven ? Opts.Threads : 2);
  C.ChurnThreads = unsigned(Opts.ChurnGiven ? Opts.Churn : 2);
  C.DurationSec = Opts.DurationGiven ? Opts.Duration : (Soak ? 1.0 : 1.5);
  C.ZipfS = Opts.ZipfGiven ? Opts.Zipf : 1.1;
  C.GenTier = Opts.GenTier;
  // Promotion on by default: hot sets cross the threshold quickly under
  // the Zipf skew, so the SLO table shows the tier machinery live.
  C.HotThreshold = Opts.HotGiven ? Opts.HotThreshold : 1000;
  C.Seed = 42;

  // Every run gets a fresh substrate and service, so runs stay independent
  // and the per-run cache counters exact; every dispatch thread gets its
  // own CPU. The first run uses the substrate the banner describes.
  auto newSubstrate = [&] {
    return makeSubstrate(Opts, "bench_dpf_service",
                         Substrate::Mips | Substrate::Host | Substrate::Dbt);
  };
  Substrate First = newSubstrate();
  auto runOnce = [&](const ClassifierService::Config &Cfg) {
    Substrate S = First.Mem ? std::move(First) : newSubstrate();
    ClassifierService Svc(*S.Tgt, *S.Mem, [&S] { return S.makeCpu(); }, Cfg);
    return Svc.run();
  };
  std::printf("== DPF classification service (E16) — %s ==\n",
              First.modelsCycles() ? "mips (simulated)"
              : First.native()     ? "host (native x86-64)"
                                   : "dbt (binary translation)");

  bool AllOk = true;
  if (Soak) {
    // Bounded soak: one pass, correctness gates plus a modest progress
    // floor that holds even under TSan/ASan timing.
    ClassifierService::Report R = runOnce(C);
    ClassifierService::printReport(R, C, "soak");
    AllOk &= checkGates(R, "soak");
    if (R.Installs < C.Sets) {
      std::fprintf(stderr,
                   "FAIL(soak): only %llu installs for %u sets — the churn "
                   "workers made no progress\n",
                   (unsigned long long)R.Installs, C.Sets);
      AllOk = false;
    }
  } else {
    // The E16 sweep: the same service at three churn levels. The
    // acceptance floor (>= 10k filter installs with the differential gate
    // passing) is summed across levels.
    uint64_t FilterInstalls = 0;
    for (unsigned Churn : {1u, 2u, 4u}) {
      ClassifierService::Config Level = C;
      Level.ChurnThreads = Churn;
      ClassifierService::Report R = runOnce(Level);
      char Title[64];
      std::snprintf(Title, sizeof(Title), "churn x%u", Churn);
      ClassifierService::printReport(R, Level, Title);
      std::printf("\n");
      AllOk &= checkGates(R, Title);
      FilterInstalls += R.Installs * Level.FlowsPerSet;
    }
    std::printf("total filter installs across levels: %llu (floor 10000)\n",
                (unsigned long long)FilterInstalls);
    if (FilterInstalls < 10000) {
      std::fprintf(stderr,
                   "FAIL: %llu filter installs under churn (acceptance "
                   "floor: 10000)\n",
                   (unsigned long long)FilterInstalls);
      AllOk = false;
    }
  }

  if (!AllOk)
    return 1;
  std::printf("OK: all correctness gates passed\n");
  return 0;
}
