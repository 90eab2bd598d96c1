//===- examples/tcc_compile.cpp - A compiler targeting VCODE ---------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §4.1 scenario: a compiler front-end (tcc-lite) uses VCODE as its
// abstract target machine. The same front-end, unchanged, emits code for
// any port; here it compiles and runs a few functions — including
// recursion, which works through a function table the generated calls
// indirect through — on all three simulated machines.
//
//===----------------------------------------------------------------------===//

#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include "tcc/Tcc.h"
#include <cstdio>
#include <vector>

using namespace vcode;

namespace {

const char *Programs[] = {
    "fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }",
    R"(gcd(a, b) {
         while (b != 0) { var t = b; b = a % b; a = t; }
         return a;
       })",
    R"(hyp2(a, b) { return gcd(a, b) + fact(5); })",
};

void runOn(Substrate &S, Tier GenTier) {
  tcc::Tcc T(*S.Tgt, *S.Mem);
  T.setTier(GenTier);
  for (const char *Src : Programs)
    T.compile(Src);

  sim::Cpu &Cpu = *S.Cpu;
  std::printf("%-6s fact(10)=%d  gcd(462, 1071)=%d  hyp2(12, 18)=%d\n",
              S.Name, T.run(Cpu, "fact", {10}),
              T.run(Cpu, "gcd", {462, 1071}), T.run(Cpu, "hyp2", {12, 18}));
}

} // namespace

int main(int argc, char **argv) {
  // Shared tool flags: --tier=<0|1> picks tcc-lite's generation tier,
  // --target=<name> narrows the run to one machine (host compiles and
  // runs natively on x86-64; dbt runs the MIPS code through the binary
  // translator), --telemetry-report / --trace-json=<file> as everywhere.
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  std::vector<const char *> Names = {"mips", "sparc", "alpha"};
  if (Opts.TargetName)
    Names = {Opts.TargetName};
  for (const char *Name : Names) {
    Substrate S = makeSubstrate(Name);
    if (Name == Names.front())
      std::printf("%s\n\n",
                  S.native()   ? "tcc-lite: same front-end, native x86-64 "
                                 "target"
                  : S.Engine ? "tcc-lite: MIPS target, binary-translated "
                               "execution"
                             : "tcc-lite: one front-end, three target "
                               "machines (paper §4.1)");
    runOn(S, Opts.GenTier);
  }
  return 0;
}
