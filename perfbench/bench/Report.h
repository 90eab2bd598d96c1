//===- perfbench/bench/Report.h - Header, metrics, result -------*- C++ -*-===//
//
// Collects what a run measured and prints it: the run header first, then
// a human-readable table, and as the last line of standard output one
// JSON object {"correct", "attempted", "failed", "metrics"}. An untraced
// run's metrics are the end-to-end set, a traced run's the per-layer set;
// both sets are fixed lists, so every run of every workload reports every
// name (a layer the workload does not exercise reads 0).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "Stats.h"
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Chrome-trace path for the kept spans
  std::string GitSha = "unknown";
  std::string SrcHash = "unknown";
};

class Report {
public:
  /// An end-to-end metric (reported by untraced runs).
  void e2e(const std::string &Name, double Value);
  /// A per-layer metric (reported by traced runs).
  void layer(const std::string &Name, double Value);
  /// A line of the human-readable table: a workload-specific name, its
  /// value and unit, and the sample count and tail it came from.
  void note(const std::string &Name, double Value, const std::string &Unit,
            size_t Samples = 0, double TailPct = 0, double Tail = 0);
  /// Same, for a Summary of a latency in \p Unit.
  void noteSummary(const std::string &Name, const Summary &S,
                   const std::string &Unit);

  /// Counts checked operations and failed ones.
  void attempt(uint64_t N) { Attempted += N; }
  void fail(uint64_t N, const char *Why);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the table and the JSON result line.
  void print(const RunConfig &C) const;

  /// Names and units of the fixed metric lists.
  static const std::vector<std::pair<const char *, const char *>> &
  endToEndMetrics();
  static const std::vector<std::pair<const char *, const char *>> &
  perLayerMetrics();

private:
  struct Note {
    std::string Name, Unit;
    double Value;
    size_t Samples;
    double TailPct, Tail;
  };
  std::map<std::string, double> E2e, Layer;
  std::vector<Note> Notes;
  std::map<std::string, uint64_t> FailWhy;
  uint64_t Attempted = 0, Failed = 0;
};

/// Prints the run header (code identity, compiler, build, telemetry
/// setting, nproc, seed) to standard output.
void printHeader(const RunConfig &C);

/// False (with a message on stderr) when this binary is a debug or
/// sanitizer build, whose numbers must not be reported.
bool buildIsReportable();

/// Peak resident set size of this process, in MiB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
