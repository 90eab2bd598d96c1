//===- alpha/AlphaDisasm.cpp - Alpha disassembler ------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "alpha/AlphaEncoding.h"
#include "profile/Disasm.h"
#include "support/Error.h"
#include <cstdarg>
#include <cstdio>

using namespace vcode;
using namespace vcode::alpha;

namespace {

const char *RegName[32] = {"v0", "t0", "t1", "t2",  "t3",  "t4", "t5", "t6",
                           "t7", "s0", "s1", "s2",  "s3",  "s4", "s5", "fp",
                           "a0", "a1", "a2", "a3",  "a4",  "a5", "t8", "t9",
                           "t10", "t11", "ra", "t12", "at", "gp", "sp",
                           "zero"};

std::string fmt(const char *Format, ...) {
  char Buf[128];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

} // namespace

std::string vcode::alpha::disassemble(uint32_t I, SimAddr Pc) {
  if (I == Nop)
    return "nop";

  const Insn D = decode(I);
  const char *N = info(D.Op).Mnemonic;
  const char *Ra = RegName[D.Ra], *Rb = RegName[D.Rb];
  auto Target = [&] {
    return (unsigned long long)branchTarget(Pc, D);
  };

  switch (info(D.Op).Operands) {
  case Form::None:
    return fmt(".word   0x%08x", I);
  case Form::MemI:
    return fmt("%-7s %s, %d(%s)", N, Ra, D.Disp16, Rb);
  case Form::MemF:
    return fmt("%-7s f%u, %d(%s)", N, unsigned(D.Ra), D.Disp16, Rb);
  case Form::Br:
    return fmt("%-7s %s, 0x%llx", N, Ra, Target());
  case Form::FBr:
    return fmt("%-7s f%u, 0x%llx", N, unsigned(D.Ra), Target());
  case Form::Jump:
    return fmt("%-7s %s, (%s)", N, Ra, Rb);
  case Form::Operate: {
    std::string B = D.UseLit ? fmt("#%u", unsigned(D.Lit)) : Rb;
    return fmt("%-7s %s, %s, %s", N, Ra, B.c_str(), RegName[D.Rc]);
  }
  case Form::Fp2:
    return fmt("%-7s f%u, f%u", N, unsigned(D.Rb), unsigned(D.Rc));
  case Form::Fp3:
    return fmt("%-7s f%u, f%u, f%u", N, unsigned(D.Ra), unsigned(D.Rb),
               unsigned(D.Rc));
  }
  unreachable("bad Alpha operand form");
}

// --dump-code finds this disassembler whenever the backend is linked in.
[[maybe_unused]] static const bool Registered = profile::registerDisassembler(
    "alpha", &profile::decodeWord32<alpha::disassemble>);
