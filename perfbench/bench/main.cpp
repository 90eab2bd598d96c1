//===- perfbench/bench/main.cpp - Benchmark entry point -------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-sha <sha>] [--src-hash <hash>]
//
// Workloads: codegen, dpf_dbt, dpf_native, service_churn (see
// README.md). The last line of standard output is the JSON result; the
// exit status is non-zero when any output failed its check.
//
//===----------------------------------------------------------------------===//

#include "Fixtures.h"
#include "HostSpeed.h"
#include "Report.h"
#include "Trace.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "codegen|dpf_dbt|dpf_native|service_churn --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               Msg);
  std::exit(2);
}

uint64_t parseUnsigned(const char *S, const char *Flag) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || S[0] == '-')
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (I + 1 >= Argc)
      usage((std::string("missing value for ") + A).c_str());
    const char *V = Argv[++I];
    if (!std::strcmp(A, "--workload")) {
      C.Workload = V;
    } else if (!std::strcmp(A, "--seed")) {
      C.Seed = parseUnsigned(V, A);
      HaveSeed = true;
    } else if (!std::strcmp(A, "--seconds")) {
      C.Seconds = double(parseUnsigned(V, A));
      if (C.Seconds < 1 || C.Seconds > 600)
        usage("--seconds must be 1..600");
      HaveSeconds = true;
    } else if (!std::strcmp(A, "--trace")) {
      uint64_t T = parseUnsigned(V, A);
      if (T > 1)
        usage("--trace must be 0 or 1");
      C.Trace = T == 1;
      HaveTrace = true;
    } else if (!std::strcmp(A, "--trace-out")) {
      C.TraceOut = V;
    } else if (!std::strcmp(A, "--git-sha")) {
      C.GitSha = V;
    } else if (!std::strcmp(A, "--src-hash")) {
      C.SrcHash = V;
    } else {
      usage((std::string("unknown flag ") + A).c_str());
    }
  }
  if (C.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!buildIsReportable())
    return 2;

  printHeader(C);
  trace::setEnabled(C.Trace);
  Report R;
  if (C.Workload == "codegen")
    runCodegen(C, R);
  else if (C.Workload == "dpf_dbt")
    runDispatch(C, Substrate::Dbt, R);
  else if (C.Workload == "dpf_native")
    runDispatch(C, Substrate::Native, R);
  else if (C.Workload == "service_churn")
    runChurn(C, R);
  else
    usage(("unknown workload " + C.Workload).c_str());

  if (C.Trace && !C.TraceOut.empty()) {
    if (trace::writeChromeTrace(C.TraceOut))
      std::printf("# spans: %llu recorded, kept ones written to %s\n",
                  (unsigned long long)trace::spanCount(), C.TraceOut.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   C.TraceOut.c_str());
  }
  std::vector<double> Factors = hostFactors();
  R.note("host_factor (median of probes)", median(Factors), "ratio",
         Factors.size());
  if (C.Trace)
    R.layer("bench.host_factor", median(Factors));
  R.print(C);
  return R.failed() == 0 && R.attempted() > 0 ? 0 : 1;
}
