//===- support/ToolFlags.h - Shared CLI flags for tools/examples -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One front door for the command-line plumbing every example, tool and
/// bench repeats: the telemetry flags (--telemetry-report,
/// --trace-json=<file>; see support/Telemetry.h) plus the tiered-codegen
/// knobs:
///
///   --tier=<0|1>           generation tier for tier-aware clients
///                          (default: $VCODE_TIER, else tier 0)
///   --hot-threshold=<N>    promote a cache-shared function to Tier-1
///                          after N executions (0 disables; clients with
///                          no shared cache ignore it)
///   --target=<name>        machine for tools/benches that honor it:
///                          mips, sparc, alpha, host (native x86-64), or
///                          dbt (MIPS code run through the binary
///                          translator instead of the interpreter). Only
///                          the name is checked here; the tool builds the
///                          machine with makeSubstrate(Opts, ...)
///                          (substrate/Substrate.h), which also rejects
///                          names that tool does not accept
///
/// plus the service-workload knobs (bench_dpf_service; other tools ignore
/// them unless they opt in):
///
///   --filters=<N>          total filters under management
///   --threads=<N>          dispatch threads
///   --churn=<N>            install/retire worker threads
///   --duration=<seconds>   length of the churn phase
///   --zipf=<s>             traffic skew exponent (0 = uniform)
///
/// plus the generated-code introspection flags (src/profile/; no-ops with
/// a one-line stderr note when telemetry is compiled out):
///
///   --profile-report       start the samplers; print the profile report
///                          (sample attribution + CodeMap heat) to stderr
///                          at exit
///   --dump-code=<name|all> print annotated disassembly of the matching
///                          published regions to stdout at exit
///   --perf-map             write /tmp/perf-<pid>.map for perf symbolization
///   --jitdump[=<path>]     write a perf jitdump file (default
///                          jit-<pid>.dump in the working directory)
///
/// Integer flag values are validated strictly: malformed text, a negative
/// count, or a value past the 64-bit range is a fatal diagnostic with a
/// nonzero exit, never a silent fallback. The two real-valued flags
/// (--duration, --zipf) are equally strict: full-string parse, finite,
/// non-negative.
///
/// handleArgs() strips every recognized flag from argv (compacting and
/// null-terminating it, like telemetry::handleArgs) so a tool's own
/// argument parsing only ever sees its own flags.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SUPPORT_TOOLFLAGS_H
#define VCODE_SUPPORT_TOOLFLAGS_H

#include "core/Tier.h"
#include <cstdint>

namespace vcode {
namespace tool {

/// Results of parsing the shared flags.
struct ToolOptions {
  Tier GenTier = defaultTier(); ///< --tier, else the process default
  uint64_t HotThreshold = 0;    ///< --hot-threshold, else 0 (disabled)
  const char *TargetName = nullptr; ///< --target, else null (tool default)
  uint64_t Filters = 0;         ///< --filters, else 0 (tool default)
  uint64_t Threads = 0;         ///< --threads, else 0 (tool default)
  uint64_t Churn = 0;           ///< --churn, else 0 (tool default)
  double Duration = 0;          ///< --duration seconds, else 0 (default)
  double Zipf = 0;              ///< --zipf exponent, else 0 (default)
  const char *DumpCode = nullptr; ///< --dump-code pattern, else null
  bool HotGiven = false;        ///< --hot-threshold appeared
  bool FiltersGiven = false;    ///< --filters appeared
  bool ThreadsGiven = false;    ///< --threads appeared
  bool ChurnGiven = false;      ///< --churn appeared
  bool DurationGiven = false;   ///< --duration appeared
  bool ZipfGiven = false;       ///< --zipf appeared
};

/// Scans argv for the shared flags above, fills \p Opts, delegates the
/// telemetry flags to telemetry::handleArgs, and returns the new argc.
/// Unparseable values (e.g. --tier=2) are fatal with a usage message.
int handleArgs(int Argc, char **Argv, ToolOptions &Opts);

} // namespace tool
} // namespace vcode

#endif // VCODE_SUPPORT_TOOLFLAGS_H
