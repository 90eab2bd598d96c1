//===- perfbench/bench/Churn.cpp - The service_churn workload -------------===//
//
// Installs beside dispatch: the writes-beside-reads twin of dpf_native, and
// the only workload where CodeCache lookup, eviction, promotion and shard
// locks sit on the blocking path. The same 128 x 10 population is served
// as x64 code run by the host CPU (E16's host substrate) from a shared
// CodeCache sized to half the live sets, with hot promotion on. The MIPS
// interpreter, another of E16's substrates, amplifies the host's speed
// swings about 2.5-fold (dpf_dbt times it, per-layer); host code follows
// them about 1.4-fold.
//
//  - Installs are an open loop: seeded retire-and-reinstall requests fall
//    due on a fixed schedule at OfferedRate, below what two installers can
//    serve. Two installer threads serve them; each install is timed from
//    its due time, so a stall also charges the requests queued behind it.
//  - One closed-loop dispatch thread classifies Zipf traffic with the same
//    checks as dpf_native.
//
// At the end the cache's counters must reconcile exactly:
// Hits + Misses == installs and Misses == Generations + Failures.
//
//===----------------------------------------------------------------------===//

#include "Fixtures.h"
#include "Oracle.h"
#include "Trace.h"
#include "core/CodeCache.h"
#include "dpf/Engines.h"
#include "profile/CodeMap.h"
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"
#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <mutex>
#include <sys/prctl.h>
#include <immintrin.h>
#include <thread>

using namespace vcode;

namespace perfbench {
namespace {

constexpr size_t TrafficLen = 1 << 16;
/// Install requests per second offered to the two installers.
constexpr double OfferedRate = 2000;
constexpr unsigned Installers = 2;
/// Skew of the install requests over sets.
constexpr double InstallZipf = 0.8;

/// One installed classifier; a slot swaps these, and a dispatcher holding
/// a copy keeps the engine (and its pinned code) alive across a retire.
struct Live {
  Live(Target &T, sim::Memory &M) : Engine(T, M) {
    Engine.setTier(Tier::Tier0);
    Engine.setHotThreshold(HotThreshold);
  }
  dpf::DpfEngine Engine;
};

struct Slot {
  std::mutex M;
  std::shared_ptr<Live> Cur;
};

/// What one installer thread measured.
struct InstallTally {
  std::vector<double> LatUs, LateUs, HitUs, MissUs, RetireUs;
  std::vector<std::pair<uint64_t, double>> ByDue; ///< (request, latency)
  uint64_t Backlog = 0, Attempts = 0;
  double CodeBytes = 0;
};

struct Fixture {
  const Population &Pop;
  sim::Memory Mem{sim::Memory::Native, 64 << 20};
  x64::X64Target Tgt;
  // Half the live sets fit: steady churn keeps evicting.
  CodeCache Cache{Mem, CodeCache::Options(8, PopulationSets / 16)};
  std::vector<Slot> Slots;
  std::atomic<uint64_t> Installs{0};
  SimAddr Msg = 0, CheckBuf = 0;
  uint8_t *MsgHost = nullptr;

  explicit Fixture(const Population &Pop) : Pop(Pop), Slots(PopulationSets) {
    Msg = Mem.alloc(dpf::pkt::HeaderBytes, 8);
    CheckBuf = Mem.alloc(dpf::pkt::HeaderBytes, 8);
    MsgHost = Mem.hostPtr(Msg, dpf::pkt::HeaderBytes);
    InstallTally Unused;
    for (unsigned S = 0; S < PopulationSets; ++S)
      install(S, S, Unused);
  }

  /// Installs a fresh engine for \p Set and retires the one it replaces.
  void install(unsigned Set, uint64_t Req, InstallTally &T) {
    auto L = std::make_shared<Live>(Tgt, Mem);
    uint64_t T0 = ticks();
    bool Hit;
    {
      Scope Sp(SpanName::InstallShared, Req);
      Hit = L->Engine.installShared(Cache, Pop.Filters[Set]);
    }
    uint64_t T1 = ticks();
    Installs.fetch_add(1, std::memory_order_relaxed);
    (Hit ? T.HitUs : T.MissUs).push_back(ticksToUs(T1 - T0));
    if (!Hit) {
      T.Attempts += L->Engine.installAttempts();
      T.CodeBytes += double(L->Engine.codeBytes());
    }
    {
      std::lock_guard<std::mutex> Lock(Slots[Set].M);
      Slots[Set].Cur.swap(L);
    }
    Scope Sp(SpanName::Retire, Req);
    L.reset(); // the last reference may also drop on the dispatcher
    T.RetireUs.push_back(ticksToUs(ticks() - T1));
  }
};

/// Waits until \p Due: sleeps while far off, then spins.
void waitUntil(uint64_t Due) {
  for (;;) {
    uint64_t Now = ticks();
    if (Now >= Due)
      return;
    double Ns = ticksToNs(Due - Now);
    if (Ns > 50e3)
      std::this_thread::sleep_for(std::chrono::nanoseconds(int64_t(Ns - 30e3)));
    else
      _mm_pause();
  }
}

/// Claims the next request once it is due. Workers claim only due
/// requests, so a worker that oversleeps delays no request another worker
/// could have served. Returns false when the schedule is exhausted.
bool claimDue(std::atomic<uint64_t> &Next, uint64_t N, const Schedule &Sch,
              uint64_t &J) {
  for (;;) {
    J = Next.load(std::memory_order_relaxed);
    if (J >= N)
      return false;
    waitUntil(Sch.due(J));
    if (Next.compare_exchange_strong(J, J + 1, std::memory_order_relaxed))
      return true;
  }
}

/// Everything one phase (untraced reference or measured) produced.
struct Phase {
  InstallTally Inst;
  DispatchTally Disp;
  double Seconds = 0;
  uint64_t Requests = 0;
};

void runPhase(Fixture &F, const Traffic &T, size_t &Pos,
              const std::vector<uint16_t> &Sets, double Seconds, Phase &P) {
  const uint64_t N = uint64_t(Seconds * OfferedRate);
  reserveSamples(P.Disp.BatchUsPerMsg, Seconds);
  Schedule Sch;
  Sch.Period = double(nsToTicks(1e9 / OfferedRate));
  Sch.T0 = ticks() + nsToTicks(1e6); // 1 ms for the threads to start
  P.Requests = N;
  std::atomic<uint64_t> Next{0};
  std::atomic<bool> Stop{false};
  std::vector<InstallTally> Per(Installers);

  std::thread Dispatcher([&] {
    x64::NativeCpu Cpu(F.Mem);
    dispatchLoop(
        T, Pos, F.Mem, F.Msg, F.MsgHost, F.CheckBuf, F.Pop,
        [&] { return !Stop.load(std::memory_order_relaxed); },
        [&](unsigned Set, SimAddr M) {
          std::shared_ptr<Live> L;
          {
            std::lock_guard<std::mutex> Lock(F.Slots[Set].M);
            L = F.Slots[Set].Cur;
          }
          return L ? L->Engine.classify(Cpu, M) : INT_MIN;
        },
        P.Disp);
  });

  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Installers; ++W)
    Workers.emplace_back([&, W] {
      // Wake from sleeps on time: the default 50 us timer slack would
      // show up as generator lateness.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      InstallTally &IT = Per[W];
      uint64_t J;
      // Each installer scales its latencies by its own vCPU's speed,
      // probed between requests (the other installer serves meanwhile).
      for (probeIfDue(); claimDue(Next, N, Sch, J); probeIfDue()) {
        uint64_t Start = ticks();
        IT.LateUs.push_back(ticksToUs(Sch.lateness(J, Start)));
        IT.Backlog = std::max(IT.Backlog, Sch.backlog(J, Start));
        F.install(Sets[J % Sets.size()], J, IT);
        IT.LatUs.push_back(ticksToUs(ticks() - Sch.due(J)) * hostFactor());
        IT.ByDue.emplace_back(J, IT.LatUs.back());
      }
    });
  double W0 = wallSec();
  for (std::thread &W : Workers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Dispatcher.join();
  P.Seconds = wallSec() - W0;

  for (InstallTally &IT : Per) {
    auto Append = [](std::vector<double> &To, const std::vector<double> &F) {
      To.insert(To.end(), F.begin(), F.end());
    };
    Append(P.Inst.LatUs, IT.LatUs);
    P.Inst.ByDue.insert(P.Inst.ByDue.end(), IT.ByDue.begin(), IT.ByDue.end());
    Append(P.Inst.LateUs, IT.LateUs);
    Append(P.Inst.HitUs, IT.HitUs);
    Append(P.Inst.MissUs, IT.MissUs);
    Append(P.Inst.RetireUs, IT.RetireUs);
    P.Inst.Backlog = std::max(P.Inst.Backlog, IT.Backlog);
    P.Inst.Attempts += IT.Attempts;
    P.Inst.CodeBytes += IT.CodeBytes;
  }
}

void checkPhase(const Phase &P, Report &R) {
  R.attempt(P.Disp.Msgs + P.Inst.LatUs.size());
  R.fail(P.Disp.Wrong, "DPF verdict differs from ground truth");
  R.fail(P.Disp.TrieMismatches, "DPF verdict differs from the reference trie");
  R.fail(P.Disp.Skips, "message found no installed classifier");
  if (P.Inst.LatUs.size() != P.Requests)
    R.fail(P.Requests - P.Inst.LatUs.size(), "install request not served");
}

} // namespace

void runChurn(const RunConfig &C, Report &R) {
  Population Pop = makePopulation();
  Traffic T = makeTraffic(subSeed(C.Seed, 0x7aff1c), TrafficLen);
  // The seeded request stream: which set each install request renews.
  // Zipf(InstallZipf) over sets, hottest first as in the traffic, where
  // the E16 service picks sets uniformly: about a quarter of installs miss
  // the half-size cache, so the median install is a hit, well inside that
  // mode rather than on its boundary with generations. Generation shows in
  // the misses' latencies and the tails, not in the median.
  std::vector<double> Cdf(PopulationSets);
  double Sum = 0;
  for (unsigned S = 0; S < PopulationSets; ++S)
    Cdf[S] = Sum += std::pow(double(S + 1), -InstallZipf);
  std::vector<uint16_t> Sets(1 << 16);
  Rng Rq(subSeed(C.Seed, 0xc4a2));
  for (uint16_t &S : Sets)
    S = uint16_t(std::lower_bound(Cdf.begin(), Cdf.end(), Rq.unit() * Sum) -
                 Cdf.begin());

  std::unique_ptr<Fixture> F;
  Summary Setup =
      timedSetup(F, [&] { return std::make_unique<Fixture>(Pop); });

  double Share = untracedShare(C);
  size_t Pos = 0;
  Phase Ref, Main;
  if (Share > 0) {
    trace::setEnabled(false);
    runPhase(*F, T, Pos, Sets, C.Seconds * Share, Ref);
    checkPhase(Ref, R);
    trace::reset();
    trace::setEnabled(true);
  }
  runPhase(*F, T, Pos, Sets, C.Seconds * (1 - Share), Main);
  trace::setEnabled(false);
  checkPhase(Main, R);

  CodeCache::Stats CS = F->Cache.stats();
  uint64_t Installs = F->Installs.load();
  R.attempt(1);
  if (CS.Hits + CS.Misses != Installs ||
      CS.Misses != CS.Generations + CS.Failures)
    R.fail(1, "cache counters do not reconcile");

  // Sustained values first: summarize() sorts the latencies.
  std::sort(Main.Inst.ByDue.begin(), Main.Inst.ByDue.end());
  std::vector<double> InDueOrder;
  for (const auto &[J, Us] : Main.Inst.ByDue)
    InDueOrder.push_back(Us);
  double P50 = sustainedLatency(InDueOrder);
  double Rate = Main.Disp.msgsPerSec();
  Summary Lat = summarize(Main.Inst.LatUs);
  R.note("install_p50_us (sustained, from due time)", P50, "us", Lat.N);
  R.noteSummary("install_p50_us (whole run)", Lat, "us");
  R.note("install_p99_us", Lat.P99, "us", Lat.N);
  R.note("install_p999_us", percentileSorted(Main.Inst.LatUs, 99.9), "us",
         Lat.N);
  R.note("dispatch_msgs_per_s (sustained)", Rate, "1/s", Main.Disp.Msgs);
  R.note("offered_installs_per_s", OfferedRate, "1/s");
  R.note("served_installs_per_s", ratio(double(Lat.N), Main.Seconds), "1/s",
         Lat.N);
  R.note("cache_hits+misses", double(CS.Hits + CS.Misses), "count",
         Installs);
  R.noteSummary("setup_s", Setup, "s");
  R.note("peak_rss_mb", peakRssMb(), "MiB");
  R.e2e("setup_s", Setup.P50);
  R.e2e("p50_us", P50);
  R.e2e("throughput_per_s", Rate);
  R.e2e("peak_rss_mb", peakRssMb());

  if (!C.Trace)
    return;
  Summary Hit = summarize(Main.Inst.HitUs), Miss = summarize(Main.Inst.MissUs);
  Summary Retire = summarize(Main.Inst.RetireUs);
  Summary Late = summarize(Main.Inst.LateUs);
  R.layer("core.retry_ratio",
          ratio(double(Main.Inst.Attempts), double(Miss.N)));
  R.layer("dpf.install_us", Miss.Mean);
  R.layer("dpf.code_bytes", ratio(Main.Inst.CodeBytes, double(Miss.N)));
  R.layer("core.cache_hit_us_p50", Hit.P50);
  R.layer("core.cache_miss_us_p50", Miss.P50);
  R.layer("core.cache_miss_us_p99", Miss.P99);
  R.layer("core.cache_hit_ratio",
          ratio(double(Hit.N), double(Hit.N + Miss.N)));
  R.layer("core.cache_evictions", double(CS.Evictions));
  R.layer("core.cache_promotions", double(CS.Promotions));
  R.layer("service.retire_us", Retire.Mean);
  R.layer("x64.call_ns", x64CallProbeNs());
  LayerTotals Trie = trace::totals(SpanName::TrieClassify);
  R.layer("dpf.trie_ns_per_msg",
          ratio(ticksToNs(Trie.Total), double(Trie.Count)));
  R.layer("sim.arena_high_water_bytes", double(F->Mem.mark() - F->Mem.base()));
  profile::CodeMap::Stats CM = profile::CodeMap::instance().stats();
  R.layer("profile.codemap_live_entries",
          double(CM.Published) - double(CM.Removed));
  R.layer("service.loadgen_late_p99_us", Late.P99);
  R.layer("service.backlog_max", double(Main.Inst.Backlog));
  R.layer("bench.trace_overhead_ratio",
          ratio(Ref.Disp.msgsPerSec(), Rate) - 1);
  R.layer("service.install_p99_us", Lat.P99);
  R.layer("service.install_p999_us", percentileSorted(Main.Inst.LatUs, 99.9));
}

} // namespace perfbench
