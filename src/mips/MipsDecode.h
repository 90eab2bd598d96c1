//===- mips/MipsDecode.h - The one MIPS instruction decoder -----*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single reader of MIPS instruction words. Everything that consumes a
/// MIPS word -- the reference interpreter (sim::MipsSim), the disassembler
/// (--dump-code), block discovery and the binary translator (dbt/) --
/// switches on the Opc that decode() returns instead of re-extracting
/// fields, so "translatable", "disassembles symbolically" and "the
/// interpreter executes it" are the same set by construction: exactly the
/// words that do not decode to Opc::Invalid.
///
/// The decode follows the interpreter, quirks included: any REGIMM word
/// with rt != 0 is bgez, bc1f/bc1t test only rt's low bit, and a COP1
/// arithmetic word with any fmt other than 17 (double) is single precision.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_MIPS_MIPSDECODE_H
#define VCODE_MIPS_MIPSDECODE_H

#include "core/CodeBuffer.h"
#include <array>
#include <cstdint>
#include <string>

namespace vcode {
namespace mips {

/// How the disassembler prints an instruction's operands.
enum class Form : uint8_t {
  None,     ///< Opc::Invalid: prints as .word
  RdRsRt,   ///< addu rd, rs, rt
  RdRtSa,   ///< sll rd, rt, sa
  RdRtRs,   ///< sllv rd, rt, rs
  Rs,       ///< jr rs
  RdRs,     ///< jalr rd, rs
  Rd,       ///< mfhi rd
  RsRt,     ///< mult rs, rt
  RsOff,    ///< bltz rs, target
  RsRtOff,  ///< beq rs, rt, target
  Off,      ///< bc1f target
  Target,   ///< j target
  RtRsImm,  ///< addiu rt, rs, simm
  RtRsUImm, ///< andi rt, rs, 0xuimm
  RtUImm,   ///< lui rt, 0xuimm
  RtFs,     ///< mfc1 rt, fs
  FdFsFt,   ///< add.fmt fd, fs, ft
  FdFs,     ///< sqrt.fmt fd, fs
  FsFt,     ///< c.eq.fmt fs, ft
  RtMem,    ///< lw rt, simm(rs)
  FtMem,    ///< lwc1 ft, simm(rs)
};

/// Where decode() finds an instruction: the field that selects it.
enum class Group : uint8_t {
  Primary, ///< bits 31..26
  Special, ///< primary 0x00, funct bits 5..0
  Regimm,  ///< primary 0x01: rt == 0 is bltz, any other rt bgez
  Cop1Sub, ///< primary 0x11, rs (the fmt/sub field)
  Bc1,     ///< primary 0x11, rs == 8: rt bit 0 picks bc1t
  Cop1Fn,  ///< primary 0x11, any other rs: funct bits 5..0
};

// The one instruction description. Each row is
//   X(Opc name, mnemonic, disassembly form, is-CTI, group, selector)
// and yields one Opc, one OpcInfo and one decode-table entry.
#define VCODE_MIPS_OPCODES(X)                                                  \
  X(Sll, "sll", RdRtSa, false, Special, 0x00)                                  \
  X(Srl, "srl", RdRtSa, false, Special, 0x02)                                  \
  X(Sra, "sra", RdRtSa, false, Special, 0x03)                                  \
  X(Sllv, "sllv", RdRtRs, false, Special, 0x04)                                \
  X(Srlv, "srlv", RdRtRs, false, Special, 0x06)                                \
  X(Srav, "srav", RdRtRs, false, Special, 0x07)                                \
  X(Jr, "jr", Rs, true, Special, 0x08)                                         \
  X(Jalr, "jalr", RdRs, true, Special, 0x09)                                   \
  X(Mfhi, "mfhi", Rd, false, Special, 0x10)                                    \
  X(Mthi, "mthi", Rs, false, Special, 0x11)                                    \
  X(Mflo, "mflo", Rd, false, Special, 0x12)                                    \
  X(Mtlo, "mtlo", Rs, false, Special, 0x13)                                    \
  X(Mult, "mult", RsRt, false, Special, 0x18)                                  \
  X(Multu, "multu", RsRt, false, Special, 0x19)                                \
  X(Div, "div", RsRt, false, Special, 0x1a)                                    \
  X(Divu, "divu", RsRt, false, Special, 0x1b)                                  \
  X(Add, "add", RdRsRt, false, Special, 0x20)                                  \
  X(Addu, "addu", RdRsRt, false, Special, 0x21)                                \
  X(Sub, "sub", RdRsRt, false, Special, 0x22)                                  \
  X(Subu, "subu", RdRsRt, false, Special, 0x23)                                \
  X(And, "and", RdRsRt, false, Special, 0x24)                                  \
  X(Or, "or", RdRsRt, false, Special, 0x25)                                    \
  X(Xor, "xor", RdRsRt, false, Special, 0x26)                                  \
  X(Nor, "nor", RdRsRt, false, Special, 0x27)                                  \
  X(Slt, "slt", RdRsRt, false, Special, 0x2a)                                  \
  X(Sltu, "sltu", RdRsRt, false, Special, 0x2b)                                \
  X(Bltz, "bltz", RsOff, true, Regimm, 0)                                      \
  X(Bgez, "bgez", RsOff, true, Regimm, 1)                                      \
  X(J, "j", Target, true, Primary, 0x02)                                       \
  X(Jal, "jal", Target, true, Primary, 0x03)                                   \
  X(Beq, "beq", RsRtOff, true, Primary, 0x04)                                  \
  X(Bne, "bne", RsRtOff, true, Primary, 0x05)                                  \
  X(Blez, "blez", RsOff, true, Primary, 0x06)                                  \
  X(Bgtz, "bgtz", RsOff, true, Primary, 0x07)                                  \
  X(Addi, "addi", RtRsImm, false, Primary, 0x08)                               \
  X(Addiu, "addiu", RtRsImm, false, Primary, 0x09)                             \
  X(Slti, "slti", RtRsImm, false, Primary, 0x0a)                               \
  X(Sltiu, "sltiu", RtRsImm, false, Primary, 0x0b)                             \
  X(Andi, "andi", RtRsUImm, false, Primary, 0x0c)                              \
  X(Ori, "ori", RtRsUImm, false, Primary, 0x0d)                                \
  X(Xori, "xori", RtRsUImm, false, Primary, 0x0e)                              \
  X(Lui, "lui", RtUImm, false, Primary, 0x0f)                                  \
  X(Mfc1, "mfc1", RtFs, false, Cop1Sub, 0)                                     \
  X(Mtc1, "mtc1", RtFs, false, Cop1Sub, 4)                                     \
  X(Bc1f, "bc1f", Off, true, Bc1, 0)                                           \
  X(Bc1t, "bc1t", Off, true, Bc1, 1)                                           \
  X(AddF, "add", FdFsFt, false, Cop1Fn, 0x00)                                  \
  X(SubF, "sub", FdFsFt, false, Cop1Fn, 0x01)                                  \
  X(MulF, "mul", FdFsFt, false, Cop1Fn, 0x02)                                  \
  X(DivF, "div", FdFsFt, false, Cop1Fn, 0x03)                                  \
  X(SqrtF, "sqrt", FdFs, false, Cop1Fn, 0x04)                                  \
  X(AbsF, "abs", FdFs, false, Cop1Fn, 0x05)                                    \
  X(MovF, "mov", FdFs, false, Cop1Fn, 0x06)                                    \
  X(NegF, "neg", FdFs, false, Cop1Fn, 0x07)                                    \
  X(TruncW, "trunc.w", FdFs, false, Cop1Fn, 0x0d)                              \
  X(CvtS, "cvt.s", FdFs, false, Cop1Fn, 0x20)                                  \
  X(CvtD, "cvt.d", FdFs, false, Cop1Fn, 0x21)                                  \
  X(CvtW, "cvt.w", FdFs, false, Cop1Fn, 0x24)                                  \
  X(CEq, "c.eq", FsFt, false, Cop1Fn, 0x32)                                    \
  X(CLt, "c.lt", FsFt, false, Cop1Fn, 0x3c)                                    \
  X(CLe, "c.le", FsFt, false, Cop1Fn, 0x3e)                                    \
  X(Lb, "lb", RtMem, false, Primary, 0x20)                                     \
  X(Lh, "lh", RtMem, false, Primary, 0x21)                                     \
  X(Lw, "lw", RtMem, false, Primary, 0x23)                                     \
  X(Lbu, "lbu", RtMem, false, Primary, 0x24)                                   \
  X(Lhu, "lhu", RtMem, false, Primary, 0x25)                                   \
  X(Sb, "sb", RtMem, false, Primary, 0x28)                                     \
  X(Sh, "sh", RtMem, false, Primary, 0x29)                                     \
  X(Sw, "sw", RtMem, false, Primary, 0x2b)                                     \
  X(Lwc1, "lwc1", FtMem, false, Primary, 0x31)                                 \
  X(Ldc1, "ldc1", FtMem, false, Primary, 0x35)                                 \
  X(Swc1, "swc1", FtMem, false, Primary, 0x39)                                 \
  X(Sdc1, "sdc1", FtMem, false, Primary, 0x3d)

/// Every instruction the interpreter executes, plus Invalid for the words
/// it rejects with its unknown-instruction fault.
enum class Opc : uint8_t {
  Invalid,
#define VCODE_MIPS_OPC_ENUM(Name, Mn, Fm, Cti, Grp, Sel) Name,
  VCODE_MIPS_OPCODES(VCODE_MIPS_OPC_ENUM)
#undef VCODE_MIPS_OPC_ENUM
};

struct OpcInfo {
  const char *Mnemonic;
  Form Operands;
  bool IsCti; ///< starts a delay-slot chain (jumps and branches)
  Group Where;
  uint8_t Selector; ///< value of the field Where names
};

inline constexpr OpcInfo OpcTable[] = {
    {".word", Form::None, false, Group::Primary, 0},
#define VCODE_MIPS_OPC_INFO(Name, Mn, Fm, Cti, Grp, Sel)                       \
  {Mn, Form::Fm, Cti, Group::Grp, Sel},
    VCODE_MIPS_OPCODES(VCODE_MIPS_OPC_INFO)
#undef VCODE_MIPS_OPC_INFO
};

inline constexpr unsigned NumOpcs = sizeof(OpcTable) / sizeof(OpcTable[0]);

constexpr const OpcInfo &info(Opc O) { return OpcTable[unsigned(O)]; }

/// A decoded instruction word: the operation plus every field any
/// consumer reads. For COP1 arithmetic Rs is the fmt, Rt/Rd/Sh are
/// ft/fs/fd; for FPR loads and stores Rt is the FPR.
struct Insn {
  Opc Op = Opc::Invalid;
  uint8_t Rs = 0, Rt = 0, Rd = 0, Sh = 0;
  int32_t Imm = 0;     ///< sign-extended immediate (bits 15..0)
  uint32_t UImm = 0;   ///< zero-extended immediate (bits 15..0)
  uint32_t JIndex = 0; ///< jump index (bits 25..0)
};

/// Primary opcodes of the groups that select by another field, and the
/// COP1 rs value of the bc1 group.
inline constexpr uint32_t PrimaryRegimm = 0x01, PrimaryCop1 = 0x11,
                          Cop1Bc = 8;

namespace detail {
/// Opc by group and selector.
inline constexpr auto Tables = [] {
  std::array<std::array<Opc, 64>, 6> T{};
  for (unsigned I = 1; I < NumOpcs; ++I)
    T[unsigned(OpcTable[I].Where)][OpcTable[I].Selector] = Opc(I);
  return T;
}();
constexpr Opc lookup(Group G, unsigned Selector) {
  return Tables[unsigned(G)][Selector];
}
} // namespace detail

/// Decodes one instruction word.
constexpr Insn decode(uint32_t W) {
  Insn D;
  D.Rs = uint8_t((W >> 21) & 31);
  D.Rt = uint8_t((W >> 16) & 31);
  D.Rd = uint8_t((W >> 11) & 31);
  D.Sh = uint8_t((W >> 6) & 31);
  D.Imm = int32_t(int16_t(W & 0xffff));
  D.UImm = W & 0xffff;
  D.JIndex = W & 0x03ffffff;
  switch (W >> 26) {
  case 0x00:
    D.Op = detail::lookup(Group::Special, W & 63);
    break;
  case PrimaryRegimm:
    D.Op = detail::lookup(Group::Regimm, D.Rt != 0);
    break;
  case PrimaryCop1: {
    Opc Sub = detail::lookup(Group::Cop1Sub, D.Rs);
    D.Op = D.Rs == Cop1Bc        ? detail::lookup(Group::Bc1, D.Rt & 1)
           : Sub != Opc::Invalid ? Sub
                                 : detail::lookup(Group::Cop1Fn, W & 63);
    break;
  }
  default:
    D.Op = detail::lookup(Group::Primary, W >> 26);
    break;
  }
  return D;
}

/// True for COP1 arithmetic on doubles (fmt 17); any other fmt is single.
constexpr bool isDouble(const Insn &D) { return D.Rs == 17; }

/// Taken target of a conditional branch at \p Pc.
inline SimAddr branchTarget(SimAddr Pc, const Insn &D) {
  return Pc + 4 + (SimAddr(int64_t(D.Imm)) << 2);
}

/// Target of j/jal at \p Pc (same 256 MiB segment as the delay slot).
inline SimAddr jumpTarget(SimAddr Pc, const Insn &D) {
  return (Pc & ~SimAddr(0x0fffffff)) | SimAddr(D.JIndex << 2);
}

/// The field the interpreter names when it rejects an Invalid word, and
/// that field's value: "SPECIAL funct", "COP1 funct", or "opcode".
struct InvalidField {
  const char *What;
  unsigned Value;
};
inline InvalidField invalidField(uint32_t W) {
  switch (W >> 26) {
  case 0x00:
    return {"SPECIAL funct", W & 63};
  case PrimaryCop1:
    return {"COP1 funct", W & 63};
  default:
    return {"opcode", W >> 26};
  }
}

/// Disassembles one instruction word fetched from address \p Pc: the
/// paper's §6.2 symbolic-debugger support, a lookup in the table above plus
/// one operand formatter per Form. Pc-relative targets print absolute, and
/// only Invalid words print as .word.
std::string disassemble(uint32_t Word, SimAddr Pc);

} // namespace mips
} // namespace vcode

#endif // VCODE_MIPS_MIPSDECODE_H
