//===- perfbench/bench/Stats.h - Percentiles and summaries ------*- C++ -*-===//
//
// Every timing the benchmark prints is a median plus the highest
// percentile that still has at least ten samples beyond it, with the
// sample count; the end-to-end metrics are sustained values (below).
// Percentiles use the nearest-rank definition, so the value reported is
// always one that was measured.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t TailSamples = 10;

/// 1-based nearest rank of percentile \p P among \p N samples. The small
/// slack keeps binary rounding (0.999 * 10000 = 9990.000000000002) from
/// bumping an exact rank to the next sample.
inline size_t nearestRank(size_t N, double P) {
  double Rank = std::ceil(P / 100.0 * double(N) - 1e-9);
  return Rank < 1 ? 1 : std::min(size_t(Rank), N);
}

/// Nearest-rank percentile \p P (0 < P <= 100) of ascending \p Sorted; 0
/// for an empty vector.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  return Sorted[nearestRank(Sorted.size(), P) - 1];
}

/// Number of samples strictly beyond the nearest-rank percentile \p P.
inline size_t samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that keeps at least TailSamples samples beyond it; 0 when even the
/// median does not (fewer than 20 samples).
inline double highestTailPercentile(size_t N) {
  static const double Ladder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (double P : Ladder)
    if (samplesBeyond(N, P) >= TailSamples)
      return P;
  return 0;
}

/// Median, highest well-supported tail percentile, and sample count.
struct Summary {
  size_t N = 0;
  double P50 = 0;
  double TailPct = 0; ///< which percentile Tail is (0: too few samples)
  double Tail = 0;
  double P99 = 0; ///< the fixed 99th percentile (nearest rank)
  double Mean = 0;
};

/// Summarizes \p V (sorted in place).
inline Summary summarize(std::vector<double> &V) {
  Summary S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  S.P50 = percentileSorted(V, 50);
  S.P99 = percentileSorted(V, 99);
  S.TailPct = highestTailPercentile(V.size());
  S.Tail = S.TailPct > 0 ? percentileSorted(V, S.TailPct) : V.back();
  double Sum = 0;
  for (double X : V)
    Sum += X;
  S.Mean = Sum / double(V.size());
  return S;
}

/// Timed samples a run takes per second at most; see reserveSamples().
inline constexpr double MaxSamplesPerSec = 65536;

/// Sizes \p V for \p Seconds of samples and touches its pages up front, so
/// the run's peak RSS does not depend on how many samples a fast or slow
/// host took (a vector growing by doubling jumps by megabytes).
inline void reserveSamples(std::vector<double> &V, double Seconds) {
  V.resize(size_t(Seconds * MaxSamplesPerSec) + 1);
  V.clear();
}

/// \p A / \p B, or 0 when \p B is 0 (a layer the run did not exercise).
inline double ratio(double A, double B) { return B != 0 ? A / B : 0; }

/// Median of \p V (copied); 0 for an empty vector.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return percentileSorted(V, 50);
}

// End-to-end timings are "sustained" values. A run is cut into windows of
// consecutive work, and the reported latency (rate) is the one met in
// SustainedPct percent of the windows. On a shared host, neighbours going
// quiet speed a run up for seconds at a time, and stalls slow it down;
// a median over the whole run follows whichever lasted longer, a
// sustained value follows neither unless it fills most of the run.

/// Windows a run is cut into.
inline constexpr size_t RunWindows = 64;
/// Share of windows, in percent, a sustained value holds in.
inline constexpr double SustainedPct = 80;

/// Calls \p F(Begin, End) on each of RunWindows consecutive equal windows
/// of \p V (in time order); fewer windows when \p V is shorter.
template <typename Fn>
void forEachWindow(const std::vector<double> &V, Fn F) {
  const size_t Per = std::max<size_t>(1, V.size() / RunWindows);
  for (size_t I = 0; I + Per <= V.size(); I += Per)
    F(V.begin() + I, V.begin() + I + Per);
}

/// Medians of \p V (in time order) over its windows.
inline std::vector<double> windowMedians(const std::vector<double> &V) {
  std::vector<double> M;
  forEachWindow(V, [&](auto B, auto E) {
    M.push_back(median(std::vector<double>(B, E)));
  });
  return M;
}

/// The latency met in SustainedPct percent of windows.
inline double sustainedLatency(const std::vector<double> &InTimeOrder) {
  std::vector<double> M = windowMedians(InTimeOrder);
  std::sort(M.begin(), M.end());
  return percentileSorted(M, SustainedPct);
}

/// The rate met or beaten in SustainedPct percent of \p WindowRates.
inline double sustainedRate(std::vector<double> WindowRates) {
  std::sort(WindowRates.begin(), WindowRates.end());
  return percentileSorted(WindowRates, 100 - SustainedPct);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
