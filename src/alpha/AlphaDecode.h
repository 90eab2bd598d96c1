//===- alpha/AlphaDecode.h - The one Alpha instruction decoder --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single reader of Alpha instruction words. The reference interpreter
/// (sim::AlphaSim) and the disassembler (--dump-code) both switch on the
/// Opc that decode() returns instead of re-extracting the opcode and
/// function fields, so "the interpreter executes it" and "disassembles
/// symbolically" are the same set by construction: exactly the words that
/// do not decode to Opc::Invalid.
///
/// The decode follows the interpreter, quirks included: jump hint 3
/// (jsr_coroutine) is ret, and the FP operate groups match the full
/// 11-bit function field, so a rounding or trap qualifier the backend
/// does not emit makes the word Invalid.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_ALPHA_ALPHADECODE_H
#define VCODE_ALPHA_ALPHADECODE_H

#include "core/CodeBuffer.h"
#include "support/BitUtils.h"
#include <array>
#include <cstdint>
#include <string>

namespace vcode {
namespace alpha {

/// How the disassembler prints an instruction's operands.
enum class Form : uint8_t {
  None,    ///< Opc::Invalid: prints as .word
  MemI,    ///< ldq ra, disp(rb)
  MemF,    ///< ldt fa, disp(rb)
  Br,      ///< beq ra, target
  FBr,     ///< fbeq fa, target
  Jump,    ///< jsr ra, (rb)
  Operate, ///< addq ra, rb-or-#lit, rc
  Fp2,     ///< cvtqt fb, fc
  Fp3,     ///< addt fa, fb, fc
};

// The one instruction description. Each row is
//   X(Opc name, mnemonic, disassembly form, opcode, function)
// and yields one Opc, one OpcInfo and one decode-table entry. The
// function is bits 11..5 for operate opcodes 0x10-0x13, bits 15..5 for FP
// opcodes 0x14/0x16/0x17, the hint (bits 15..14) for jumps (0x1a), and 0
// for opcodes that alone name the instruction.
#define VCODE_ALPHA_OPCODES(X)                                                 \
  X(Lda, "lda", MemI, 0x08, 0)                                                 \
  X(Ldah, "ldah", MemI, 0x09, 0)                                               \
  X(LdqU, "ldq_u", MemI, 0x0b, 0)                                              \
  X(StqU, "stq_u", MemI, 0x0f, 0)                                              \
  X(Ldl, "ldl", MemI, 0x28, 0)                                                 \
  X(Ldq, "ldq", MemI, 0x29, 0)                                                 \
  X(Stl, "stl", MemI, 0x2c, 0)                                                 \
  X(Stq, "stq", MemI, 0x2d, 0)                                                 \
  X(Lds, "lds", MemF, 0x22, 0)                                                 \
  X(Ldt, "ldt", MemF, 0x23, 0)                                                 \
  X(Sts, "sts", MemF, 0x26, 0)                                                 \
  X(Stt, "stt", MemF, 0x27, 0)                                                 \
  X(Br, "br", Br, 0x30, 0)                                                     \
  X(Bsr, "bsr", Br, 0x34, 0)                                                   \
  X(Beq, "beq", Br, 0x39, 0)                                                   \
  X(Bne, "bne", Br, 0x3d, 0)                                                   \
  X(Blt, "blt", Br, 0x3a, 0)                                                   \
  X(Ble, "ble", Br, 0x3b, 0)                                                   \
  X(Bgt, "bgt", Br, 0x3f, 0)                                                   \
  X(Bge, "bge", Br, 0x3e, 0)                                                   \
  X(Fbeq, "fbeq", FBr, 0x31, 0)                                                \
  X(Fbne, "fbne", FBr, 0x35, 0)                                                \
  X(Jmp, "jmp", Jump, 0x1a, 0)                                                 \
  X(Jsr, "jsr", Jump, 0x1a, 1)                                                 \
  X(Ret, "ret", Jump, 0x1a, 2)                                                 \
  X(Addl, "addl", Operate, 0x10, 0x00)                                         \
  X(Subl, "subl", Operate, 0x10, 0x09)                                         \
  X(Addq, "addq", Operate, 0x10, 0x20)                                         \
  X(Subq, "subq", Operate, 0x10, 0x29)                                         \
  X(Cmpeq, "cmpeq", Operate, 0x10, 0x2d)                                       \
  X(Cmplt, "cmplt", Operate, 0x10, 0x4d)                                       \
  X(Cmple, "cmple", Operate, 0x10, 0x6d)                                       \
  X(Cmpult, "cmpult", Operate, 0x10, 0x1d)                                     \
  X(Cmpule, "cmpule", Operate, 0x10, 0x3d)                                     \
  X(And, "and", Operate, 0x11, 0x00)                                           \
  X(Bis, "bis", Operate, 0x11, 0x20)                                           \
  X(Xor, "xor", Operate, 0x11, 0x40)                                           \
  X(Ornot, "ornot", Operate, 0x11, 0x28)                                       \
  X(Bic, "bic", Operate, 0x11, 0x08)                                           \
  X(Sll, "sll", Operate, 0x12, 0x39)                                           \
  X(Srl, "srl", Operate, 0x12, 0x34)                                           \
  X(Sra, "sra", Operate, 0x12, 0x3c)                                           \
  X(Extbl, "extbl", Operate, 0x12, 0x06)                                       \
  X(Extwl, "extwl", Operate, 0x12, 0x16)                                       \
  X(Insbl, "insbl", Operate, 0x12, 0x0b)                                       \
  X(Inswl, "inswl", Operate, 0x12, 0x1b)                                       \
  X(Mskbl, "mskbl", Operate, 0x12, 0x02)                                       \
  X(Mskwl, "mskwl", Operate, 0x12, 0x12)                                       \
  X(Zapnot, "zapnot", Operate, 0x12, 0x31)                                     \
  X(Zap, "zap", Operate, 0x12, 0x30)                                           \
  X(Mull, "mull", Operate, 0x13, 0x00)                                         \
  X(Mulq, "mulq", Operate, 0x13, 0x20)                                         \
  X(Umulh, "umulh", Operate, 0x13, 0x30)                                       \
  X(Sqrts, "sqrts", Fp2, 0x14, 0x08b)                                          \
  X(Sqrtt, "sqrtt", Fp2, 0x14, 0x0ab)                                          \
  X(Adds, "adds", Fp3, 0x16, 0x080)                                            \
  X(Addt, "addt", Fp3, 0x16, 0x0a0)                                            \
  X(Subs, "subs", Fp3, 0x16, 0x081)                                            \
  X(Subt, "subt", Fp3, 0x16, 0x0a1)                                            \
  X(Muls, "muls", Fp3, 0x16, 0x082)                                            \
  X(Mult, "mult", Fp3, 0x16, 0x0a2)                                            \
  X(Divs, "divs", Fp3, 0x16, 0x083)                                            \
  X(Divt, "divt", Fp3, 0x16, 0x0a3)                                            \
  X(Cmpteq, "cmpteq", Fp3, 0x16, 0x0a5)                                        \
  X(Cmptlt, "cmptlt", Fp3, 0x16, 0x0a6)                                        \
  X(Cmptle, "cmptle", Fp3, 0x16, 0x0a7)                                        \
  X(Cvtqs, "cvtqs", Fp2, 0x16, 0x0bc)                                          \
  X(Cvtqt, "cvtqt", Fp2, 0x16, 0x0be)                                          \
  X(Cvttqc, "cvttq/c", Fp2, 0x16, 0x02f)                                       \
  X(Cvtts, "cvtts", Fp2, 0x16, 0x2ac)                                          \
  X(Cpys, "cpys", Fp3, 0x17, 0x020)                                            \
  X(Cpysn, "cpysn", Fp3, 0x17, 0x021)

/// Every instruction the interpreter executes, plus Invalid for the words
/// it rejects with its unknown-instruction fault.
enum class Opc : uint8_t {
  Invalid,
#define VCODE_ALPHA_OPC_ENUM(Name, Mn, Fm, Op, Fn) Name,
  VCODE_ALPHA_OPCODES(VCODE_ALPHA_OPC_ENUM)
#undef VCODE_ALPHA_OPC_ENUM
};

struct OpcInfo {
  const char *Mnemonic;
  Form Operands;
  uint8_t Opcode;    ///< bits 31..26
  uint16_t Function; ///< the field the opcode selects by, as in the rows
};

inline constexpr OpcInfo OpcTable[] = {
    {".word", Form::None, 0, 0},
#define VCODE_ALPHA_OPC_INFO(Name, Mn, Fm, Op, Fn) {Mn, Form::Fm, Op, Fn},
    VCODE_ALPHA_OPCODES(VCODE_ALPHA_OPC_INFO)
#undef VCODE_ALPHA_OPC_INFO
};

inline constexpr unsigned NumOpcs = sizeof(OpcTable) / sizeof(OpcTable[0]);

constexpr const OpcInfo &info(Opc O) { return OpcTable[unsigned(O)]; }

/// A decoded instruction word: the operation plus every field any
/// consumer reads. FP operations name FPRs in Ra/Rb/Rc.
struct Insn {
  Opc Op = Opc::Invalid;
  uint8_t Ra = 0, Rb = 0, Rc = 0;
  uint8_t Lit = 0;     ///< operate literal (bits 20..13)
  bool UseLit = false; ///< operate: operand B is Lit, not Rb (bit 12)
  int32_t Disp16 = 0;  ///< memory displacement, sign-extended
  int32_t Disp21 = 0;  ///< branch displacement in words, sign-extended
};

namespace detail {
/// Opc by function for every opcode that does not alone name one.
struct DecodeTables {
  std::array<Opc, 64> Primary{};
  std::array<Opc, 4> Jump{};
  std::array<std::array<Opc, 128>, 4> Int{};  ///< opcodes 0x10-0x13
  std::array<std::array<Opc, 2048>, 3> Fp{};  ///< opcodes 0x14, 0x16, 0x17
};

/// Index into DecodeTables::Fp of FP operate opcode \p Op.
constexpr unsigned fpTable(unsigned Op) { return Op == 0x14 ? 0 : Op - 0x15; }

inline constexpr DecodeTables Tables = [] {
  DecodeTables T;
  for (unsigned I = 1; I < NumOpcs; ++I) {
    unsigned Op = OpcTable[I].Opcode, Fn = OpcTable[I].Function;
    if (Op == 0x1a)
      T.Jump[Fn] = Opc(I);
    else if (Op >= 0x10 && Op <= 0x13)
      T.Int[Op - 0x10][Fn] = Opc(I);
    else if (Op == 0x14 || Op == 0x16 || Op == 0x17)
      T.Fp[fpTable(Op)][Fn] = Opc(I);
    else
      T.Primary[Op] = Opc(I);
  }
  T.Jump[3] = Opc::Ret;
  return T;
}();
} // namespace detail

/// Decodes one instruction word.
constexpr Insn decode(uint32_t W) {
  Insn D;
  D.Ra = uint8_t((W >> 21) & 31);
  D.Rb = uint8_t((W >> 16) & 31);
  D.Rc = uint8_t(W & 31);
  D.Lit = uint8_t((W >> 13) & 0xff);
  D.UseLit = (W >> 12) & 1;
  D.Disp16 = signExtend32<16>(W & 0xffff);
  D.Disp21 = signExtend32<21>(W & 0x1fffff);
  switch (unsigned Op = W >> 26) {
  case 0x10:
  case 0x11:
  case 0x12:
  case 0x13:
    D.Op = detail::Tables.Int[Op - 0x10][(W >> 5) & 0x7f];
    break;
  case 0x14:
  case 0x16:
  case 0x17:
    D.Op = detail::Tables.Fp[detail::fpTable(Op)][(W >> 5) & 0x7ff];
    break;
  case 0x1a:
    D.Op = detail::Tables.Jump[(W >> 14) & 3];
    break;
  default:
    D.Op = detail::Tables.Primary[Op];
    break;
  }
  return D;
}

/// Target of a branch at \p Pc (displacement counts from pc + 4).
inline SimAddr branchTarget(SimAddr Pc, const Insn &D) {
  return Pc + 4 + (SimAddr(int64_t(D.Disp21)) << 2);
}

/// Disassembles one instruction word fetched from address \p Pc: the
/// paper's §6.2 symbolic-debugger support, a lookup in the table above plus
/// one operand formatter per Form. Pc-relative targets print absolute, and
/// only Invalid words print as .word.
std::string disassemble(uint32_t Word, SimAddr Pc);

} // namespace alpha
} // namespace vcode

#endif // VCODE_ALPHA_ALPHADECODE_H
