//===- tools/vcodegen/vcodegen.cpp - The VCODE preprocessor -----------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The concise instruction-specification preprocessor of paper §5.4:
// consumes specifications of the form
//
//   (base-insn-name (paramlist) [(type-list mach_insn [mach_imm_insn])]+)
//
// e.g. the paper's worked example
//
//   (sqrt (rd, rs) (f fsqrts) (d fsqrtd))
//
// and generates C++ wrapper definitions (v_sqrtf, v_sqrtd, ...) on stdout.
// Usage: vcodegen [specfile]   (reads stdin when no file is given)
// Telemetry flags (all vcode tools): --telemetry-report, --trace-json=<f>
//
// With --dump-code=<name|all> the tool instead runs the disassembler
// round-trip check: it emits a corpus of generated functions on every
// backend (mips, sparc, alpha, and x64 on an x86-64 host), walks the
// CodeMap, and disassembles each published region through the registered
// per-target decoders (profile/Disasm.h). Any undecodable word or byte —
// an encoding the emitter produces that its disassembler cannot read
// back — is a failure (exit 1). The annotated dumps themselves print at
// exit via the normal --dump-code path.
//
//===----------------------------------------------------------------------===//

#include "core/Extension.h"
#include "core/VCode.h"
#include "profile/CodeMap.h"
#include "profile/Disasm.h"
#include "substrate/Substrate.h"
#include "support/Error.h"
#include "support/Telemetry.h"
#include "support/ToolFlags.h"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

using namespace vcode;

namespace {

//===----------------------------------------------------------------------===//
// --dump-code round-trip corpus
//===----------------------------------------------------------------------===//

// Three functions per target, built entirely from the generic (retargetable)
// emitters so one corpus covers every backend: an integer function sweeping
// the BinOp/UnOp/branch space, an FP function sweeping converts and FP
// arithmetic, and a memory function sweeping typed loads/stores. The code is
// decoded, never executed, so stack-relative stores need no frame discipline.

void emitIntCorpus(VCode &V, sim::Memory &Mem, const std::string &Tag) {
  Reg Arg[2];
  const std::string Name = "corpus:" + Tag + ":int";
  CodeMem CM = Mem.allocCode(32768);
  CM.Name = &Name;
  V.lambda("%i%i", Arg, LeafHint, CM);
  Reg T0 = V.getreg(Type::I);
  for (BinOp Op : {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod,
                   BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Lsh, BinOp::Rsh}) {
    V.binop(Op, Type::I, T0, Arg[0], Arg[1]);
    V.binopImm(Op, Type::I, T0, T0, 7);
    V.binop(Op, Type::U, T0, Arg[0], Arg[1]); // unsigned forms differ
  }
  for (UnOp Op : {UnOp::Com, UnOp::Not, UnOp::Mov, UnOp::Neg})
    V.unop(Op, Type::I, T0, Arg[0]);
  V.setInt(Type::I, T0, 0x12345678);
  V.setInt(Type::I, T0, -3);
  Label L = V.genLabel();
  V.branch(Cond::Lt, Type::I, Arg[0], Arg[1], L);
  V.branchImm(Cond::Ne, Type::I, Arg[0], 3, L);
  V.branch(Cond::Ge, Type::U, Arg[0], Arg[1], L);
  V.binop(BinOp::Add, Type::I, T0, T0, Arg[1]);
  V.label(L);
  V.ret(Type::I, T0);
  V.end();
}

void emitFpCorpus(VCode &V, sim::Memory &Mem, const std::string &Tag) {
  Reg Arg[2];
  const std::string Name = "corpus:" + Tag + ":fp";
  CodeMem CM = Mem.allocCode(32768);
  CM.Name = &Name;
  V.lambda("%i%i", Arg, LeafHint, CM);
  Reg F0 = V.getreg(Type::D);
  Reg F1 = V.getreg(Type::D);
  V.cvt(Type::I, Type::D, F0, Arg[0]);
  V.cvt(Type::I, Type::D, F1, Arg[1]);
  for (BinOp Op : {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div})
    V.binop(Op, Type::D, F0, F0, F1);
  V.unop(UnOp::Mov, Type::D, F1, F0);
  Reg FS = V.getreg(Type::F);
  V.cvt(Type::D, Type::F, FS, F0);
  V.cvt(Type::F, Type::D, F1, FS);
  V.binop(BinOp::Add, Type::F, FS, FS, FS);
  Label L = V.genLabel();
  V.branch(Cond::Lt, Type::D, F0, F1, L);
  V.label(L);
  Reg R = V.getreg(Type::I);
  V.cvt(Type::D, Type::I, R, F0);
  V.ret(Type::I, R);
  V.end();
}

void emitMemCorpus(VCode &V, sim::Memory &Mem, const std::string &Tag) {
  Reg Arg[1];
  const std::string Name = "corpus:" + Tag + ":mem";
  CodeMem CM = Mem.allocCode(32768);
  CM.Name = &Name;
  V.lambda("%p", Arg, LeafHint, CM);
  Reg T0 = V.getreg(Type::I);
  for (Type Ty : {Type::C, Type::UC, Type::S, Type::US, Type::I, Type::U,
                  Type::L, Type::UL, Type::P}) {
    V.loadImm(Ty, T0, Arg[0], 8);
    V.storeImm(Ty, T0, Arg[0], 16);
    V.load(Ty, T0, Arg[0], T0);
    V.store(Ty, T0, Arg[0], T0);
  }
  V.ret(Type::I, T0);
  V.end();
}

void emitTargetCorpus(Target &Tgt, sim::Memory &Mem) {
  const std::string Tag = Tgt.info().Name;
  {
    VCode V(Tgt);
    emitIntCorpus(V, Mem, Tag);
  }
  {
    VCode V(Tgt);
    emitFpCorpus(V, Mem, Tag);
  }
  {
    VCode V(Tgt);
    emitMemCorpus(V, Mem, Tag);
  }
}

/// Decodes every live CodeMap region generated for \p TargetName through
/// the registered disassembler, tallying into \p Checked / \p Failed.
void checkTargetEntries(const char *TargetName, const char *Pattern,
                        unsigned &Checked, unsigned &Failed) {
  bool MatchAll = !std::strcmp(Pattern, "all");
  for (const auto &E : profile::CodeMap::instance().entries()) {
    if (std::strcmp(E->Target, TargetName))
      continue;
    if (!MatchAll && E->Name.find(Pattern) == std::string::npos)
      continue;
    ++Checked;
    std::string Text;
    profile::DumpStats S = profile::dumpEntry(*E, Text);
    if (!S.HaveDisasm) {
      std::fprintf(stderr, "FAIL %s: no disassembler registered for '%s'\n",
                   E->Name.c_str(), E->Target);
      ++Failed;
    } else if (!S.HaveBytes) {
      std::fprintf(stderr, "FAIL %s: no code bytes captured\n",
                   E->Name.c_str());
      ++Failed;
    } else if (S.Undecodable) {
      std::fprintf(stderr,
                   "FAIL %s (%s): %llu undecodable unit(s) among %llu "
                   "instruction(s):\n%s",
                   E->Name.c_str(), E->Target,
                   (unsigned long long)S.Undecodable,
                   (unsigned long long)(S.Instrs + S.Undecodable),
                   Text.c_str());
      ++Failed;
    } else {
      std::printf("ok: %-24s %-6s %4llu instrs, %llu bytes\n",
                  E->Name.c_str(), E->Target, (unsigned long long)S.Instrs,
                  (unsigned long long)E->Bytes);
    }
  }
}

/// Emits the corpus on every backend, then decodes every published region
/// back through the registered disassemblers, and checks that every
/// target's corpus is still in the CodeMap for the at-exit listing. Every
/// machine comes from makeSubstrate at its default base; all of them stay
/// alive until the listing check, so no arena's mapping is reused (and its
/// regions evicted) by a later one. Returns the process exit code: 0 when
/// every word/byte decoded and every corpus is listed, 1 otherwise.
int runDumpCodeCheck(const char *Pattern) {
  if (!telemetry::compiledIn()) {
    std::printf("vcodegen --dump-code: built with -DVCODE_TELEMETRY=OFF; "
                "the CodeMap is compiled out, nothing to check\n");
    return 0;
  }
  profile::CodeMap::instance().setCaptureBytes(true);

  // The alpha substrate installs the div helpers the 21064 needs for the
  // corpus's div/mod (themselves published regions the check decodes).
  std::vector<const char *> Names = {"mips", "sparc", "alpha"};
#ifdef __x86_64__
  Names.push_back("host");
#else
  std::printf("vcodegen --dump-code: not an x86-64 host; skipping the x64 "
              "backend\n");
#endif
  std::vector<Substrate> Machines;
  unsigned Checked = 0, Failed = 0;
  for (const char *N : Names) {
    Machines.push_back(makeSubstrate(N));
    Target &Tgt = *Machines.back().Tgt;
    emitTargetCorpus(Tgt, *Machines.back().Mem);
    checkTargetEntries(Tgt.info().Name, Pattern, Checked, Failed);
  }
  for (const Substrate &S : Machines)
    for (const char *Kind : {"int", "fp", "mem"}) {
      std::string Name =
          std::string("corpus:") + S.Tgt->info().Name + ":" + Kind;
      if (!profile::CodeMap::instance().findByName(Name)) {
        std::fprintf(stderr, "FAIL %s: missing from the final CodeMap\n",
                     Name.c_str());
        ++Failed;
      }
    }
  if (!Checked) {
    std::fprintf(stderr, "FAIL: no published region matched '%s'\n", Pattern);
    return 1;
  }
  std::printf("round-trip: %u region(s) checked, %u failed\n", Checked,
              Failed);
  return Failed ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  if (Opts.DumpCode)
    return runDumpCodeCheck(Opts.DumpCode);
  std::string Text;
  if (argc > 2) {
    std::fprintf(stderr,
                 "usage: %s [specfile] [--dump-code=<name|all>] "
                 "[--telemetry-report] [--trace-json=<file>]\n",
                 argv[0]);
    return 2;
  }
  if (argc == 2) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::fprintf(stderr, "vcodegen: cannot open '%s'\n", argv[1]);
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  } else {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  }

  std::string Err;
  std::vector<SpecInsn> Specs = parseSpecs(Text, &Err);
  if (Specs.empty() && !Err.empty()) {
    std::fprintf(stderr, "vcodegen: %s\n", Err.c_str());
    return 1;
  }
  std::fputs(generateCppExtensionHeader(Specs).c_str(), stdout);
  return 0;
}
