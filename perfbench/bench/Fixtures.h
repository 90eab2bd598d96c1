//===- perfbench/bench/Fixtures.h - Shared workload pieces ------*- C++ -*-===//
//
// Pieces the workloads share: the DPF filter-set population and its
// pre-generated Zipf traffic (drawn with service::TrafficGen), the open-loop
// schedule arithmetic, set-up repetition, and the x64 call probe.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FIXTURES_H
#define PERFBENCH_FIXTURES_H

#include "Clock.h"
#include "HostSpeed.h"
#include "Report.h"
#include "Stats.h"
#include "Trace.h"
#include "dpf/Filter.h"
#include "sim/Memory.h"
#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace perfbench {

/// The DPF population every dispatch workload serves: 128 live ten-filter
/// sets, as the classification service builds them.
inline constexpr unsigned PopulationSets = 128;
inline constexpr unsigned FlowsPerSet = 10;
inline constexpr double TrafficZipf = 1.1;
/// Executions after which a shared classifier is promoted to Tier-1.
inline constexpr uint64_t HotThreshold = 64;
/// Set-up is timed at least SetupMinReps times per run, and again while
/// the repetitions so far took less than SetupMinSec, up to SetupMaxReps;
/// setup_s is the median. Cheap set-ups get more repetitions, so their
/// median is as steady as that of the expensive ones.
inline constexpr unsigned SetupMinReps = 15;
inline constexpr double SetupMinSec = 0.5;
inline constexpr unsigned SetupMaxReps = 255;

struct Population {
  std::vector<std::vector<vcode::dpf::Filter>> Filters;
  std::vector<vcode::dpf::Trie> Tries;
};
Population makePopulation();

/// A pre-generated message stream: per message the set it is for, the
/// verdict its set's classifier must return (-1: no filter matches), and
/// the header bytes.
struct Traffic {
  static constexpr unsigned HdrBytes = 40;
  std::vector<uint16_t> Set;
  std::vector<int8_t> Expect;
  std::vector<uint8_t> Hdr; ///< size() * HdrBytes bytes
  size_t size() const { return Set.size(); }
  const uint8_t *hdr(size_t I) const { return &Hdr[I * HdrBytes]; }
};
/// \p N messages of Zipf(TrafficZipf) traffic over sets and flows.
Traffic makeTraffic(uint64_t Seed, size_t N);

/// An open-loop schedule: request J is due at T0 + J * Period ticks.
struct Schedule {
  uint64_t T0 = 0;
  double Period = 1;
  uint64_t due(uint64_t J) const { return T0 + uint64_t(double(J) * Period); }
  /// Requests due at or before \p Now.
  uint64_t dueBy(uint64_t Now) const {
    return Now < T0 ? 0 : uint64_t(double(Now - T0) / Period) + 1;
  }
  /// How late request \p J started at \p Start (0 when on time).
  uint64_t lateness(uint64_t J, uint64_t Start) const {
    return Start > due(J) ? Start - due(J) : 0;
  }
  /// Requests already due, behind request \p J, when it started at
  /// \p Start: the generator's backlog.
  uint64_t backlog(uint64_t J, uint64_t Start) const {
    uint64_t D = dueBy(Start);
    return D > J + 1 ? D - (J + 1) : 0;
  }
};

/// What a dispatch loop measured and found.
struct DispatchTally {
  std::vector<double> BatchUsPerMsg; ///< scaled us per message, per batch
  uint64_t Msgs = 0, Ticks = 0;      ///< messages and their raw timed ticks
  uint64_t Wrong = 0;                ///< verdicts != ground truth
  uint64_t TrieMismatches = 0;
  uint64_t Skips = 0;                ///< messages with no classifier
  double nsPerMsg() const {
    return Msgs ? ticksToNs(Ticks) / double(Msgs) : 0;
  }
  /// Messages per second sustained over RunWindows windows of batches.
  double msgsPerSec() const;
};

/// Messages per timed batch: two clock reads per batch, not per message.
inline constexpr unsigned DispatchBatch = 256;
/// Every this many messages, the verdict is also checked against the
/// reference trie (outside the timed batch).
inline constexpr unsigned TrieSampleEvery = 61;

/// Classifies \p T's messages in timed batches, starting at \p Pos, while
/// \p KeepGoing() holds. Each message is copied into the arena at \p Msg
/// (its host view \p MsgHost), as a NIC would deliver it, and classified
/// by \p Classify(Set, Msg) -> verdict (INT_MIN: no classifier). Every
/// verdict is checked after its batch against the ground truth, and
/// every TrieSampleEvery-th also against the set's trie on a copy at
/// \p CheckBuf.
template <typename KeepGoingFn, typename ClassifyFn>
void dispatchLoop(const Traffic &T, size_t &Pos, vcode::sim::Memory &Mem,
                  vcode::SimAddr Msg, uint8_t *MsgHost, vcode::SimAddr CheckBuf,
                  const Population &P, KeepGoingFn KeepGoing,
                  ClassifyFn Classify, DispatchTally &D);

/// Builds the fixture with \p Make as often as the SetupMinReps,
/// SetupMinSec and SetupMaxReps rule says, dropping the previous one
/// untimed before each build, and summarizes the wall time of one build in
/// seconds. \p Fix holds the last fixture built.
template <typename T, typename MakeFn>
Summary timedSetup(std::unique_ptr<T> &Fix, MakeFn Make);

/// Median ns of one NativeCpu::call of an empty generated x64 function.
double x64CallProbeNs();

/// Workload entry points; each fills \p R.
void runCodegen(const RunConfig &C, Report &R);
enum class Substrate { Dbt, Native };
void runDispatch(const RunConfig &C, Substrate S, Report &R);
void runChurn(const RunConfig &C, Report &R);

/// Traced runs give part of their time to an untraced reference phase
/// first (for bench.trace_overhead_ratio); this returns that phase's
/// share of the measured time (0 for untraced runs).
double untracedShare(const RunConfig &C);

} // namespace perfbench

template <typename KeepGoingFn, typename ClassifyFn>
void perfbench::dispatchLoop(const Traffic &T, size_t &Pos,
                             vcode::sim::Memory &Mem, vcode::SimAddr Msg,
                             uint8_t *MsgHost, vcode::SimAddr CheckBuf,
                             const Population &P, KeepGoingFn KeepGoing,
                             ClassifyFn Classify, DispatchTally &D) {
  int Verdict[DispatchBatch];
  uint8_t *CheckHost = Mem.hostPtr(CheckBuf, Traffic::HdrBytes);
  uint64_t Batch = 0;
  while (KeepGoing()) {
    const size_t Base = Pos;
    uint64_t T0, T1;
    probeIfDue();
    {
      Scope Sp(SpanName::Batch, ++Batch);
      T0 = ticks();
      for (unsigned K = 0; K < DispatchBatch; ++K) {
        size_t I = (Base + K) % T.size();
        std::memcpy(MsgHost, T.hdr(I), Traffic::HdrBytes);
        Scope C(SpanName::Classify, Batch);
        Verdict[K] = Classify(T.Set[I], Msg);
      }
      T1 = ticks();
    }
    D.Msgs += DispatchBatch;
    D.Ticks += T1 - T0;
    D.BatchUsPerMsg.push_back(ticksToUs(T1 - T0) / DispatchBatch *
                              hostFactor());
    Scope Ck(SpanName::Check, Batch);
    for (unsigned K = 0; K < DispatchBatch; ++K) {
      size_t I = (Base + K) % T.size();
      if (Verdict[K] == INT_MIN) {
        ++D.Skips;
        continue;
      }
      if (Verdict[K] != T.Expect[I])
        ++D.Wrong;
      if ((D.Msgs - DispatchBatch + K) % TrieSampleEvery == 0) {
        std::memcpy(CheckHost, T.hdr(I), Traffic::HdrBytes);
        Scope Tr(SpanName::TrieClassify, Batch);
        if (P.Tries[T.Set[I]].classify(Mem, CheckBuf) != Verdict[K])
          ++D.TrieMismatches;
      }
    }
    Pos = (Base + DispatchBatch) % T.size();
  }
}

template <typename T, typename MakeFn>
perfbench::Summary perfbench::timedSetup(std::unique_ptr<T> &Fix,
                                         MakeFn Make) {
  std::vector<double> Times;
  double Total = 0;
  while (Times.size() < SetupMinReps ||
         (Total < SetupMinSec && Times.size() < SetupMaxReps)) {
    Fix.reset();
    probeIfDue();
    double T0 = wallSec();
    Fix = Make();
    Times.push_back((wallSec() - T0) * hostFactor());
    Total += Times.back();
  }
  return summarize(Times);
}

#endif // PERFBENCH_FIXTURES_H
