//===- examples/quickstart.cpp - Paper Fig. 1: plus1 -----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper's introductory example (Fig. 1): dynamically create
//
//   int plus1(int x) { return x + 1; }
//
// then disassemble-by-eye the three MIPS instructions it compiles to
// (Fig. 1's commentary: "addiu a0,a0,1 ; j ra ; move v0,a0") and run it on
// the simulated DECstation.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include <cstdio>

using namespace vcode;

int main(int argc, char **argv) {
  // Shared tool flags (see support/ToolFlags.h). This example drives a
  // raw VCode stream, which is tier-independent by design; the telemetry
  // flags still apply. --target=host emits Fig. 1 for this machine and
  // calls it directly; --target=dbt runs the MIPS version through the
  // binary translator.
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;
  // By default the simulated machine's memory and CPU stand in for the
  // paper's DECstation (see DESIGN.md).
  Substrate S = makeSubstrate(Opts, "quickstart",
                              Substrate::Mips | Substrate::Host |
                                  Substrate::Dbt);
  sim::Memory &Mem = *S.Mem;
  sim::Cpu &Cpu = *S.Cpu;

  // --- Paper Fig. 1, line for line -------------------------------------
  VCode V(*S.Tgt);
  Reg Arg[1];

  // Begin code generation. "%i" says the routine takes a single integer
  // argument; the register holding it is returned in Arg[0]. LeafHint is
  // the paper's V_LEAF.
  V.lambda("%i", Arg, LeafHint, Mem.allocCode(4096));

  // Add the argument register to 1 (ADD Integer Immediate).
  V.addii(Arg[0], Arg[0], 1);

  // Return the result (RETurn Integer).
  V.reti(Arg[0]);

  // End code generation: links the code and returns a pointer to it.
  CodePtr Plus1 = V.end();

  // --- Inspect the generated machine code ------------------------------
  if (S.native()) {
    // plus1 is real x86-64 here: no simulator anywhere.
    std::printf("plus1 entry: 0x%llx (%zu bytes of x86-64)\n",
                (unsigned long long)Plus1.Entry, Plus1.SizeBytes);
    for (int32_t X : {41, -1, 0, 99})
      std::printf("plus1(%d) = %d   (native call)\n", X,
                  Cpu.call(Plus1.Entry, {sim::TypedValue::fromInt(X)})
                      .asInt32());
    return 0;
  }
  std::printf("plus1 entry: 0x%llx (%zu bytes emitted)\n",
              (unsigned long long)Plus1.Entry, Plus1.SizeBytes);
  const uint32_t *Words =
      reinterpret_cast<const uint32_t *>(Mem.hostPtr(Plus1.Entry, 12));
  const char *Asm[] = {"addiu a0, a0, 1", "jr    ra",
                       "addu  v0, a0, zero   ; (delay slot)"};
  for (int I = 0; I < 3; ++I)
    std::printf("  %08x   %s\n", Words[I], Asm[I]);

  // --- Run it -----------------------------------------------------------
  for (int32_t X : {41, -1, 0, 99}) {
    int32_t R = Cpu.call(Plus1.Entry, {sim::TypedValue::fromInt(X)}).asInt32();
    std::printf("plus1(%d) = %d   (%llu simulated instructions)\n", X, R,
                (unsigned long long)Cpu.lastStats().Instrs);
  }
  return 0;
}
