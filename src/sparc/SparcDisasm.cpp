//===- sparc/SparcDisasm.cpp - SPARC disassembler -----------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sparc/SparcEncoding.h"
#include "profile/Disasm.h"
#include "support/Error.h"
#include <cstdarg>
#include <cstdio>

using namespace vcode;
using namespace vcode::sparc;

namespace {

std::string fmt(const char *Format, ...) {
  char Buf[128];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

std::string regName(unsigned R) {
  static const char Banks[4] = {'g', 'o', 'l', 'i'};
  if (R == 14)
    return "%sp";
  if (R == 30)
    return "%fp";
  return fmt("%%%c%u", Banks[R >> 3], R & 7);
}

const char *IccName[16] = {"n",  "e",  "le", "l",  "leu", "cs", "neg", "vs",
                           "a",  "ne", "g",  "ge", "gu",  "cc", "pos", "vc"};
const char *FccName[16] = {"n",  "ne", "lg", "ul", "l",   "ug", "g",  "u",
                           "a",  "e",  "ue", "ge", "uge", "le", "ule", "o"};

} // namespace

std::string vcode::sparc::disassemble(uint32_t I, SimAddr Pc) {
  if (I == Nop)
    return "nop";

  const Insn D = decode(I);
  const char *N = info(D.Op).Mnemonic;
  std::string Rd = regName(D.rd()), Rs1 = regName(D.rs1());
  std::string Op2 = D.useImm() ? fmt("%d", D.simm13()) : regName(D.rs2());
  auto Target = [&] {
    return (unsigned long long)branchTarget(Pc, D);
  };

  switch (info(D.Op).Operands) {
  case Form::None:
    return fmt(".word   0x%08x", I);
  case Form::Call:
    return fmt("%-7s 0x%llx", N, Target());
  case Form::Sethi:
    return fmt("%-7s %%hi(0x%x), %s", N, D.imm22() << 10, Rd.c_str());
  case Form::Bicc:
    return fmt("%s%-4s 0x%llx", N, IccName[D.cond()], Target());
  case Form::FBfcc:
    return fmt("%s%-4s 0x%llx", N, FccName[D.cond()], Target());
  case Form::Alu:
    return fmt("%-7s %s, %s, %s", N, Rs1.c_str(), Op2.c_str(), Rd.c_str());
  case Form::RdY:
    return fmt("%s %%y,  %s", N, Rd.c_str());
  case Form::WrY:
    return fmt("%-7s %s, %s, %%y", N, Rs1.c_str(), Op2.c_str());
  case Form::Jmpl:
    return fmt("%-7s %s + %s, %s", N, Rs1.c_str(), Op2.c_str(), Rd.c_str());
  case Form::Fp2:
    return fmt("%-7s %%f%u, %%f%u", N, D.rs2(), D.rd());
  case Form::Fp3:
    return fmt("%-7s %%f%u, %%f%u, %%f%u", N, D.rs1(), D.rs2(), D.rd());
  case Form::FCmp:
    return fmt("%-7s %%f%u, %%f%u", N, D.rs1(), D.rs2());
  case Form::Load:
    return fmt("%-7s [%s + %s], %s", N, Rs1.c_str(), Op2.c_str(), Rd.c_str());
  case Form::Store:
    return fmt("%-7s %s, [%s + %s]", N, Rd.c_str(), Rs1.c_str(), Op2.c_str());
  case Form::LoadF:
    return fmt("%-7s [%s + %s], %%f%u", N, Rs1.c_str(), Op2.c_str(), D.rd());
  case Form::StoreF:
    return fmt("%-7s %%f%u, [%s + %s]", N, D.rd(), Rs1.c_str(),
               Op2.c_str());
  }
  unreachable("bad SPARC operand form");
}

// --dump-code finds this disassembler whenever the backend is linked in.
[[maybe_unused]] static const bool Registered = profile::registerDisassembler(
    "sparc", &profile::decodeWord32<sparc::disassemble>);
