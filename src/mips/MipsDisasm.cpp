//===- mips/MipsDisasm.cpp - MIPS disassembler -------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "mips/MipsDecode.h"
#include "profile/Disasm.h"
#include "support/Error.h"
#include <cstdarg>
#include <cstdio>

using namespace vcode;

namespace {

const char *GprName[32] = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2",
    "t3",   "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5",
    "s6",   "s7", "t8", "t9", "k0", "k1", "gp", "sp", "s8", "ra"};

std::string fmt(const char *Format, ...) {
  char Buf[128];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

std::string fpName(unsigned F) { return fmt("f%u", F); }

} // namespace

std::string vcode::mips::disassemble(uint32_t I, SimAddr Pc) {
  if (I == 0)
    return "nop";

  const Insn D = decode(I);
  const char *N = info(D.Op).Mnemonic;
  const char *Rs = GprName[D.Rs], *Rt = GprName[D.Rt], *Rd = GprName[D.Rd];
  // COP1 arithmetic: ft/fs/fd live in rt/rd/sh, the format in rs.
  std::string Ft = fpName(D.Rt), Fs = fpName(D.Rd), Fd = fpName(D.Sh);
  const char *Fmt = D.Rs == 16 ? "s" : (D.Rs == 17 ? "d" : "w");
  auto Off = [&] {
    return fmt("0x%llx", (unsigned long long)branchTarget(Pc, D));
  };

  switch (info(D.Op).Operands) {
  case Form::None:
    return fmt(".word   0x%08x", I);
  case Form::RdRsRt:
    return fmt("%-7s %s, %s, %s", N, Rd, Rs, Rt);
  case Form::RdRtSa:
    return fmt("%-7s %s, %s, %u", N, Rd, Rt, unsigned(D.Sh));
  case Form::RdRtRs:
    return fmt("%-7s %s, %s, %s", N, Rd, Rt, Rs);
  case Form::Rs:
    return fmt("%-7s %s", N, Rs);
  case Form::RdRs:
    return fmt("%-7s %s, %s", N, Rd, Rs);
  case Form::Rd:
    return fmt("%-7s %s", N, Rd);
  case Form::RsRt:
    return fmt("%-7s %s, %s", N, Rs, Rt);
  case Form::RsOff:
    return fmt("%-7s %s, %s", N, Rs, Off().c_str());
  case Form::RsRtOff:
    return fmt("%-7s %s, %s, %s", N, Rs, Rt, Off().c_str());
  case Form::Off:
    return fmt("%-7s %s", N, Off().c_str());
  case Form::Target:
    return fmt("%-7s 0x%llx", N, (unsigned long long)jumpTarget(Pc, D));
  case Form::RtRsImm:
    return fmt("%-7s %s, %s, %d", N, Rt, Rs, D.Imm);
  case Form::RtRsUImm:
    return fmt("%-7s %s, %s, 0x%x", N, Rt, Rs, D.UImm);
  case Form::RtUImm:
    return fmt("%-7s %s, 0x%x", N, Rt, D.UImm);
  case Form::RtFs:
    return fmt("%-7s %s, %s", N, Rt, Fs.c_str());
  case Form::FdFsFt:
    return fmt("%s.%-3s %s, %s, %s", N, Fmt, Fd.c_str(), Fs.c_str(),
               Ft.c_str());
  case Form::FdFs:
    return fmt("%s.%-3s %s, %s", N, Fmt, Fd.c_str(), Fs.c_str());
  case Form::FsFt:
    return fmt("%s.%s %s, %s", N, Fmt, Fs.c_str(), Ft.c_str());
  case Form::RtMem:
    return fmt("%-7s %s, %d(%s)", N, Rt, D.Imm, Rs);
  case Form::FtMem:
    return fmt("%-7s %s, %d(%s)", N, Ft.c_str(), D.Imm, Rs);
  }
  unreachable("bad MIPS operand form");
}

// --dump-code finds this disassembler whenever the backend is linked in.
[[maybe_unused]] static const bool Registered = profile::registerDisassembler(
    "mips", &profile::decodeWord32<mips::disassemble>);
