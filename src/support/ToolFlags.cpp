//===- support/ToolFlags.cpp - Shared CLI flags for tools/examples ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "support/ToolFlags.h"
#include "profile/JitDump.h"
#include "profile/Profiler.h"
#include "support/Error.h"
#include "support/Telemetry.h"
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace vcode;

namespace {

/// Strict unsigned decimal parse. strtoull alone is not enough: it accepts
/// leading whitespace and a leading '-' (wrapping to a huge count) and
/// saturates silently on overflow (ERANGE), all of which used to turn a
/// typo into a quietly wrong configuration.
bool parseCount(const char *S, uint64_t &Out) {
  if (!S || !std::isdigit((unsigned char)*S))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!End || *End || End == S || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Strict non-negative real parse for --duration/--zipf, in the spirit of
/// parseCount: no leading whitespace or sign, full-string consumption,
/// finite, no range overflow.
bool parseReal(const char *S, double &Out) {
  if (!S || !*S || std::isspace((unsigned char)*S) || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (!End || *End || End == S || errno == ERANGE || !(V >= 0) ||
      V > 1e18) // finite by construction of the bounds check
    return false;
  Out = V;
  return true;
}

/// Backend names --target accepts.
bool validTarget(const char *S) {
  return !std::strcmp(S, "mips") || !std::strcmp(S, "sparc") ||
         !std::strcmp(S, "alpha") || !std::strcmp(S, "host") ||
         !std::strcmp(S, "dbt");
}

/// The profiling flags are accepted in every build so scripts don't need
/// to know the configuration, but in an OFF build they can't do anything;
/// say so once instead of silently producing no output.
void warnProfilingOff(const char *Flag) {
  if (telemetry::compiledIn())
    return;
  static bool Warned = false;
  if (!Warned) {
    Warned = true;
    std::fprintf(stderr,
                 "vcode: %s ignored: built with -DVCODE_TELEMETRY=OFF\n",
                 Flag);
  }
}

} // namespace

int tool::handleArgs(int Argc, char **Argv, ToolOptions &Opts) {
  int Out = 1;
  bool ProfileReportGiven = false, PerfMapGiven = false, JitDumpGiven = false;
  for (int Idx = 1; Idx < Argc; ++Idx) {
    const char *A = Argv[Idx] ? Argv[Idx] : "";
    if (std::strncmp(A, "--tier=", 7) == 0) {
      if (!parseTier(A + 7, Opts.GenTier))
        fatal("bad --tier value '%s' (expected 0, 1, tier0 or tier1)", A + 7);
      continue;
    }
    if (std::strncmp(A, "--hot-threshold=", 16) == 0) {
      if (!parseCount(A + 16, Opts.HotThreshold))
        fatal("bad --hot-threshold value '%s' (expected a non-negative "
              "64-bit count)",
              A + 16);
      Opts.HotGiven = true;
      continue;
    }
    if (std::strncmp(A, "--target=", 9) == 0) {
      if (!validTarget(A + 9))
        fatal("bad --target value '%s' (expected mips, sparc, alpha, host "
              "or dbt)",
              A + 9);
      Opts.TargetName = A + 9;
      continue;
    }
    if (std::strncmp(A, "--filters=", 10) == 0) {
      if (!parseCount(A + 10, Opts.Filters) || Opts.Filters == 0)
        fatal("bad --filters value '%s' (expected a positive 64-bit count)",
              A + 10);
      Opts.FiltersGiven = true;
      continue;
    }
    if (std::strncmp(A, "--threads=", 10) == 0) {
      if (!parseCount(A + 10, Opts.Threads) || Opts.Threads == 0)
        fatal("bad --threads value '%s' (expected a positive 64-bit count)",
              A + 10);
      Opts.ThreadsGiven = true;
      continue;
    }
    if (std::strncmp(A, "--churn=", 8) == 0) {
      if (!parseCount(A + 8, Opts.Churn))
        fatal("bad --churn value '%s' (expected a non-negative 64-bit "
              "count of churn threads)",
              A + 8);
      Opts.ChurnGiven = true;
      continue;
    }
    if (std::strncmp(A, "--duration=", 11) == 0) {
      if (!parseReal(A + 11, Opts.Duration) || Opts.Duration <= 0)
        fatal("bad --duration value '%s' (expected a positive number of "
              "seconds)",
              A + 11);
      Opts.DurationGiven = true;
      continue;
    }
    if (std::strncmp(A, "--zipf=", 7) == 0) {
      if (!parseReal(A + 7, Opts.Zipf))
        fatal("bad --zipf value '%s' (expected a finite non-negative skew "
              "exponent)",
              A + 7);
      Opts.ZipfGiven = true;
      continue;
    }
    if (std::strcmp(A, "--profile-report") == 0) {
      ProfileReportGiven = true;
      continue;
    }
    if (std::strncmp(A, "--dump-code=", 12) == 0) {
      if (!A[12])
        fatal("bad --dump-code value '' (expected a region name or 'all')");
      Opts.DumpCode = A + 12;
      continue;
    }
    if (std::strcmp(A, "--perf-map") == 0) {
      PerfMapGiven = true;
      continue;
    }
    if (std::strcmp(A, "--jitdump") == 0 ||
        std::strncmp(A, "--jitdump=", 10) == 0) {
      JitDumpGiven = true;
      const char *Path = A[9] == '=' ? A + 10 : nullptr;
      if (Path && !*Path)
        fatal("bad --jitdump value '' (expected a file path)");
      if (!profile::enableJitDump(Path) && telemetry::compiledIn() && Path)
        fatal("cannot open jitdump file '%s'", Path);
      continue;
    }
    Argv[Out++] = Argv[Idx];
  }
  if (Out < Argc)
    Argv[Out] = nullptr;

  if (ProfileReportGiven) {
    warnProfilingOff("--profile-report");
    profile::requestProfileReport();
  }
  if (Opts.DumpCode) {
    warnProfilingOff("--dump-code");
    profile::requestDumpCode(Opts.DumpCode);
  }
  if (PerfMapGiven && !profile::enablePerfMap()) {
    warnProfilingOff("--perf-map");
    if (telemetry::compiledIn())
      std::fprintf(stderr, "vcode: --perf-map: cannot open the perf map\n");
  }
  if (JitDumpGiven) {
    warnProfilingOff("--jitdump");
    if (telemetry::compiledIn() && profile::jitDumpPath().empty())
      std::fprintf(stderr, "vcode: --jitdump unavailable on this OS\n");
  }

  return telemetry::handleArgs(Out, Argv);
}
