//===- perfbench/bench/Dispatch.cpp - The dpf_* workloads -----------------===//
//
// One thread, closed loop, execution-bound, read-only. 128 live ten-filter
// sets are installed the way the classification service installs them
// (DpfEngine::installShared into a shared CodeCache, hot promotion on) and
// warmed past the promotion threshold during set-up, so generation costs
// nothing in the timed phase. A seeded Zipf(1.1) stream over sets and
// flows is then classified on one execution substrate per workload:
//
//  - dpf_dbt:    MIPS classifiers on the binary translator, whose 64-entry
//                PC dispatch table the 128 sets overflow;
//  - dpf_native: x64 classifiers run by the host CPU.
//
// dpf_dbt also runs a fixed prefix of the traffic on the MIPS interpreter
// (DEC5000/200 configuration) for the deterministic simulated cost per
// message, Table 3's unit. Every verdict is checked against the traffic's
// ground truth and every 61st also against the reference trie, outside
// the timed batches.
//
//===----------------------------------------------------------------------===//

#include "Fixtures.h"
#include "Oracle.h"
#include "Trace.h"
#include "core/CodeCache.h"
#include "dbt/MipsTranslatingCpu.h"
#include "dpf/Engines.h"
#include "mips/MipsTarget.h"
#include "profile/CodeMap.h"
#include "service/Traffic.h"
#include "sim/MipsSim.h"
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"

using namespace vcode;

namespace perfbench {
namespace {

constexpr size_t TrafficLen = 1 << 16;
/// Messages of the deterministic interpreter pass (dpf_dbt).
constexpr size_t DeterministicMsgs = 16384;

/// Cache capacity above the population: the dispatch workloads never
/// evict (service_churn is the eviction workload).
CodeCache::Options dispatchCacheOptions() { return CodeCache::Options(8, 32); }

/// What set-up recorded about installs, promotions and translations.
struct SetupLog {
  std::vector<double> MissUs;
  std::vector<double> TranslateUs;
  uint64_t Attempts = 0, Generated = 0;
  double CodeBytes = 0;
  uint64_t Wrong = 0, Checked = 0;
};

struct Fixture {
  const Population &Pop;
  std::unique_ptr<sim::Memory> Mem;
  std::unique_ptr<Target> Tgt;
  std::unique_ptr<CodeCache> Cache;
  std::vector<std::unique_ptr<dpf::DpfEngine>> Engines;
  std::unique_ptr<sim::Cpu> Cpu;
  SimAddr Msg = 0, CheckBuf = 0;
  uint8_t *MsgHost = nullptr;

  Fixture(const Population &Pop, Substrate Sub, SetupLog &Log)
      : Pop(Pop) {
    if (Sub == Substrate::Native) {
      Mem = std::make_unique<sim::Memory>(sim::Memory::Native, 32 << 20);
      Tgt = std::make_unique<x64::X64Target>();
    } else {
      Mem = std::make_unique<sim::Memory>(32 << 20);
      Tgt = std::make_unique<mips::MipsTarget>();
    }
    Cache = std::make_unique<CodeCache>(*Mem, dispatchCacheOptions());
    Msg = Mem->alloc(dpf::pkt::HeaderBytes, 8);
    CheckBuf = Mem->alloc(dpf::pkt::HeaderBytes, 8);
    MsgHost = Mem->hostPtr(Msg, dpf::pkt::HeaderBytes);

    for (unsigned S = 0; S < PopulationSets; ++S) {
      auto E = std::make_unique<dpf::DpfEngine>(*Tgt, *Mem);
      E->setTier(Tier::Tier0);
      E->setHotThreshold(HotThreshold);
      uint64_t T0 = ticks();
      bool Hit;
      {
        Scope Sp(SpanName::InstallShared, S);
        Hit = E->installShared(*Cache, Pop.Filters[S]);
      }
      if (!Hit) {
        Log.MissUs.push_back(ticksToUs(ticks() - T0));
        Log.Attempts += E->installAttempts();
        Log.CodeBytes += double(E->codeBytes());
        ++Log.Generated;
      }
      Engines.push_back(std::move(E));
    }

    // Warm every set past the promotion threshold on a substrate that
    // runs the set's code, cycling through its flows and the miss.
    std::unique_ptr<sim::Cpu> Warm;
    if (Sub == Substrate::Native)
      Warm = std::make_unique<x64::NativeCpu>(*Mem);
    else
      Warm = std::make_unique<sim::MipsSim>(*Mem, sim::dec5000Config());
    for (unsigned S = 0; S < PopulationSets; ++S)
      for (uint64_t K = 0; K < HotThreshold + FlowsPerSet + 1; ++K)
        warmOne(*Warm, S, unsigned(K % (FlowsPerSet + 1)), Log);

    if (Sub == Substrate::Native) {
      Cpu = std::move(Warm);
      return;
    }
    // Translate every promoted classifier's entry region, then run each
    // set's flows once more so the blocks behind it translate too.
    auto T = std::make_unique<dbt::MipsTranslatingCpu>(*Mem);
    for (unsigned S = 0; S < PopulationSets; ++S) {
      CodeCache::Handle H =
          Cache->lookup(Engines[S]->sharedCacheKey(Pop.Filters[S]));
      if (!H.valid())
        continue;
      uint64_t T0 = ticks();
      Scope Sp(SpanName::Translate, S);
      T->engine().translate(H.code().Entry, Mem->codeGeneration());
      Log.TranslateUs.push_back(ticksToUs(ticks() - T0));
    }
    for (unsigned S = 0; S < PopulationSets; ++S)
      for (unsigned F = 0; F <= FlowsPerSet; ++F)
        warmOne(*T, S, F, Log);
    Cpu = std::move(T);
  }

  void warmOne(sim::Cpu &C, unsigned S, unsigned Flow, SetupLog &Log) {
    dpf::writeTcpPacket(*Mem, Msg, uint16_t(service::kBasePort + Flow),
                        service::kSetIpBase + S);
    int Got = Engines[S]->classify(C, Msg);
    ++Log.Checked;
    if (Got != (Flow < FlowsPerSet ? int(Flow) : -1))
      ++Log.Wrong;
  }

  void run(const Traffic &T, size_t &Pos, double Seconds, DispatchTally &D) {
    reserveSamples(D.BatchUsPerMsg, Seconds);
    uint64_t Stop = ticks() + nsToTicks(Seconds * 1e9);
    dispatchLoop(
        T, Pos, *Mem, Msg, MsgHost, CheckBuf, Pop,
        [&] { return ticks() < Stop; },
        [&](unsigned Set, SimAddr M) {
          return Engines[Set]->classify(*Cpu, M);
        },
        D);
  }
};

void checkTally(const DispatchTally &D, Report &R) {
  R.attempt(D.Msgs);
  R.fail(D.Wrong, "DPF verdict differs from ground truth");
  R.fail(D.TrieMismatches, "DPF verdict differs from the reference trie");
  R.fail(D.Skips, "message found no installed classifier");
}

} // namespace

void runDispatch(const RunConfig &C, Substrate Sub, Report &R) {
  Population Pop = makePopulation();
  Traffic T = makeTraffic(subSeed(C.Seed, 0x7aff1c), TrafficLen);

  std::unique_ptr<Fixture> F;
  SetupLog Log;
  Summary Setup = timedSetup(F, [&] {
    Log = SetupLog();
    return std::make_unique<Fixture>(Pop, Sub, Log);
  });
  R.attempt(Log.Checked);
  R.fail(Log.Wrong, "DPF verdict differs from ground truth during warm-up");
  CodeCache::Stats CS = F->Cache->stats();
  if (CS.Promotions != PopulationSets)
    R.fail(1, "warm-up did not promote every set to Tier-1");

  // Table 3's unit: simulated DEC5000/200 us per message over a fixed
  // prefix of the traffic on the MIPS interpreter, from cold caches.
  // Deterministic. The pass is also timed, untraced, for the interpreter's
  // host cost per guest instruction.
  double SimUsPerMsg = 0;
  sim::RunStats Det;
  DispatchTally DetTally;
  if (Sub == Substrate::Dbt) {
    trace::setEnabled(false);
    sim::MipsSim Interp(*F->Mem, sim::dec5000Config());
    size_t Pos = 0;
    size_t Done = 0;
    DispatchTally &D = DetTally;
    dispatchLoop(
        T, Pos, *F->Mem, F->Msg, F->MsgHost, F->CheckBuf, Pop,
        [&] { return Done++ < DeterministicMsgs / DispatchBatch; },
        [&](unsigned Set, SimAddr M) {
          return F->Engines[Set]->classify(Interp, M);
        },
        D);
    checkTally(D, R);
    Det = Interp.cumulativeStats();
    SimUsPerMsg = Det.microseconds(Interp.config().ClockMHz) /
                  double(DeterministicMsgs);
    trace::setEnabled(C.Trace);
  }

  double Share = untracedShare(C);
  size_t Pos = 0;
  DispatchTally Ref, Main;
  if (Share > 0) {
    trace::setEnabled(false);
    F->run(T, Pos, C.Seconds * Share, Ref);
    checkTally(Ref, R);
    trace::reset();
    trace::setEnabled(true);
  }
  F->run(T, Pos, C.Seconds * (1 - Share), Main);
  trace::setEnabled(false);
  checkTally(Main, R);

  // Sustained values first: summarize() sorts the batches.
  double Rate = Main.msgsPerSec();
  double UsPerMsg = sustainedLatency(Main.BatchUsPerMsg);
  Summary Lat = summarize(Main.BatchUsPerMsg);
  R.note(std::string(Sub == Substrate::Dbt ? "dbt" : "native") +
             "_msgs_per_s (sustained)",
         Rate, "1/s", Main.Msgs);
  R.note("msg_us_p50 (sustained, per batch of 256)", UsPerMsg, "us", Lat.N);
  R.noteSummary("msg_us_p50 (whole run)", Lat, "us");
  if (Sub == Substrate::Dbt)
    R.note("sim_us_per_msg (MIPS interpreter)", SimUsPerMsg, "us",
           DeterministicMsgs);
  R.noteSummary("setup_s", Setup, "s");
  R.note("peak_rss_mb", peakRssMb(), "MiB");
  R.e2e("setup_s", Setup.P50);
  R.e2e("p50_us", UsPerMsg);
  R.e2e("throughput_per_s", Rate);
  R.e2e("peak_rss_mb", peakRssMb());

  if (!C.Trace)
    return;
  std::vector<double> Miss = Log.MissUs;
  Summary MissS = summarize(Miss);
  auto meanNs = [](SpanName N) {
    LayerTotals L = trace::totals(N);
    return ratio(ticksToNs(L.Total), double(L.Count));
  };
  R.layer("core.retry_ratio",
          ratio(double(Log.Attempts), double(Log.Generated)));
  R.layer("dpf.install_us", MissS.Mean);
  R.layer("dpf.code_bytes", ratio(Log.CodeBytes, double(Log.Generated)));
  R.layer("core.cache_miss_us_p50", MissS.P50);
  R.layer("core.cache_miss_us_p99", MissS.P99);
  R.layer("core.cache_hit_ratio",
          ratio(double(CS.Hits), double(CS.Hits + CS.Misses)));
  R.layer("core.cache_evictions", double(CS.Evictions));
  R.layer("core.cache_promotions", double(CS.Promotions));
  if (Sub == Substrate::Dbt) {
    double Msgs = double(DeterministicMsgs);
    R.layer("sim.cycles_per_msg", double(Det.Cycles) / Msgs);
    R.layer("sim.insns_per_msg", double(Det.Instrs) / Msgs);
    R.layer("sim.icache_misses_per_msg", double(Det.ICacheMisses) / Msgs);
    R.layer("sim.dcache_misses_per_msg", double(Det.DCacheMisses) / Msgs);
    R.layer("dpf.sim_us_per_msg", SimUsPerMsg);
    R.layer("sim.ns_per_guest_insn",
            ratio(ticksToNs(DetTally.Ticks), double(Det.Instrs)));
    auto *D = static_cast<dbt::MipsTranslatingCpu *>(F->Cpu.get());
    R.layer("dbt.translate_us", summarize(Log.TranslateUs).Mean);
    R.layer("dbt.translations",
            double(D->engine().cache()->stats().Generations));
    // DBT minus native per message, both untraced, on the same traffic.
    SetupLog NLog;
    Fixture N(Pop, Substrate::Native, NLog);
    size_t NPos = 0;
    DispatchTally NT;
    N.run(T, NPos, 0.5, NT);
    checkTally(NT, R);
    R.layer("dbt.overhead_ns_per_msg", Ref.nsPerMsg() - NT.nsPerMsg());
  }
  R.layer("dpf.msg_p99_us", Lat.P99);
  R.layer("x64.call_ns", x64CallProbeNs());
  R.layer("dpf.trie_ns_per_msg", meanNs(SpanName::TrieClassify));
  R.layer("sim.arena_high_water_bytes",
          double(F->Mem->mark() - F->Mem->base()));
  profile::CodeMap::Stats CM = profile::CodeMap::instance().stats();
  R.layer("profile.codemap_live_entries",
          double(CM.Published) - double(CM.Removed));
  R.layer("bench.trace_overhead_ratio", ratio(Ref.msgsPerSec(), Rate) - 1);
}

} // namespace perfbench
