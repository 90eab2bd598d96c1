//===- sparc/SparcDecode.h - The one SPARC instruction decoder --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single reader of SPARC V8 instruction words. The reference
/// interpreter (sim::SparcSim) and the disassembler (--dump-code) both
/// switch on the Opc that decode() returns instead of re-extracting
/// op/op2/op3/opf, so "the interpreter executes it" and "disassembles
/// symbolically" are the same set by construction: exactly the words that
/// do not decode to Opc::Invalid.
///
/// The decode follows the interpreter, quirks included: FPop1 (op3 0x34)
/// and FPop2 (op3 0x35) share one opf table, annulled Bicc/FBfcc words
/// (bit 29) are Invalid, and rd %y and wr %y ignore the fields that would
/// name another ancillary state register.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SPARC_SPARCDECODE_H
#define VCODE_SPARC_SPARCDECODE_H

#include "core/CodeBuffer.h"
#include "support/BitUtils.h"
#include <array>
#include <cstdint>
#include <string>

namespace vcode {
namespace sparc {

/// How the disassembler prints an instruction's operands.
enum class Form : uint8_t {
  None,   ///< Opc::Invalid: prints as .word
  Call,   ///< call target
  Sethi,  ///< sethi %hi(imm), rd
  Bicc,   ///< bne target (integer condition names)
  FBfcc,  ///< fbne target (FP condition names)
  Alu,    ///< add rs1, op2, rd
  RdY,    ///< rd %y, rd
  WrY,    ///< wr rs1, op2, %y
  Jmpl,   ///< jmpl rs1 + op2, rd
  Fp2,    ///< fmovs fs2, fd
  Fp3,    ///< fadds fs1, fs2, fd
  FCmp,   ///< fcmps fs1, fs2
  Load,   ///< ld [rs1 + op2], rd
  Store,  ///< st rd, [rs1 + op2]
  LoadF,  ///< ldf [rs1 + op2], fd
  StoreF, ///< stf fd, [rs1 + op2]
};

/// Where decode() finds an instruction: the field that selects it.
enum class Group : uint8_t {
  Call,  ///< op 1
  Fmt2,  ///< op 0, op2 (bits 24..22); annulled branches are Invalid
  Alu,   ///< op 2, op3 (bits 24..19) other than 0x34/0x35
  FpOp,  ///< op 2, op3 0x34 or 0x35, opf (bits 13..5)
  Mem,   ///< op 3, op3
};

// The one instruction description. Each row is
//   X(Opc name, mnemonic, disassembly form, group, selector)
// and yields one Opc, one OpcInfo and one decode-table entry.
#define VCODE_SPARC_OPCODES(X)                                                 \
  X(Call, "call", Call, Call, 0)                                               \
  X(Sethi, "sethi", Sethi, Fmt2, 4)                                            \
  X(Bicc, "b", Bicc, Fmt2, 2)                                                  \
  X(FBfcc, "fb", FBfcc, Fmt2, 6)                                               \
  X(Add, "add", Alu, Alu, 0x00)                                                \
  X(And, "and", Alu, Alu, 0x01)                                                \
  X(Or, "or", Alu, Alu, 0x02)                                                  \
  X(Xor, "xor", Alu, Alu, 0x03)                                                \
  X(Sub, "sub", Alu, Alu, 0x04)                                                \
  X(Xnor, "xnor", Alu, Alu, 0x07)                                              \
  X(Addx, "addx", Alu, Alu, 0x08)                                              \
  X(Umul, "umul", Alu, Alu, 0x0a)                                              \
  X(Smul, "smul", Alu, Alu, 0x0b)                                              \
  X(Udiv, "udiv", Alu, Alu, 0x0e)                                              \
  X(Sdiv, "sdiv", Alu, Alu, 0x0f)                                              \
  X(Subcc, "subcc", Alu, Alu, 0x14)                                            \
  X(Sll, "sll", Alu, Alu, 0x25)                                                \
  X(Srl, "srl", Alu, Alu, 0x26)                                                \
  X(Sra, "sra", Alu, Alu, 0x27)                                                \
  X(RdY, "rd", RdY, Alu, 0x28)                                                 \
  X(WrY, "wr", WrY, Alu, 0x30)                                                 \
  X(Jmpl, "jmpl", Jmpl, Alu, 0x38)                                             \
  X(Fmovs, "fmovs", Fp2, FpOp, 0x01)                                           \
  X(Fnegs, "fnegs", Fp2, FpOp, 0x05)                                           \
  X(Fabss, "fabss", Fp2, FpOp, 0x09)                                           \
  X(Fsqrts, "fsqrts", Fp2, FpOp, 0x29)                                         \
  X(Fsqrtd, "fsqrtd", Fp2, FpOp, 0x2a)                                         \
  X(Fadds, "fadds", Fp3, FpOp, 0x41)                                           \
  X(Faddd, "faddd", Fp3, FpOp, 0x42)                                           \
  X(Fsubs, "fsubs", Fp3, FpOp, 0x45)                                           \
  X(Fsubd, "fsubd", Fp3, FpOp, 0x46)                                           \
  X(Fmuls, "fmuls", Fp3, FpOp, 0x49)                                           \
  X(Fmuld, "fmuld", Fp3, FpOp, 0x4a)                                           \
  X(Fdivs, "fdivs", Fp3, FpOp, 0x4d)                                           \
  X(Fdivd, "fdivd", Fp3, FpOp, 0x4e)                                           \
  X(Fitos, "fitos", Fp2, FpOp, 0xc4)                                           \
  X(Fitod, "fitod", Fp2, FpOp, 0xc8)                                           \
  X(Fstod, "fstod", Fp2, FpOp, 0xc9)                                           \
  X(Fdtos, "fdtos", Fp2, FpOp, 0xc6)                                           \
  X(Fstoi, "fstoi", Fp2, FpOp, 0xd1)                                           \
  X(Fdtoi, "fdtoi", Fp2, FpOp, 0xd2)                                           \
  X(Fcmps, "fcmps", FCmp, FpOp, 0x51)                                          \
  X(Fcmpd, "fcmpd", FCmp, FpOp, 0x52)                                          \
  X(Ld, "ld", Load, Mem, 0x00)                                                 \
  X(Ldub, "ldub", Load, Mem, 0x01)                                             \
  X(Lduh, "lduh", Load, Mem, 0x02)                                             \
  X(Ldsb, "ldsb", Load, Mem, 0x09)                                             \
  X(Ldsh, "ldsh", Load, Mem, 0x0a)                                             \
  X(St, "st", Store, Mem, 0x04)                                                \
  X(Stb, "stb", Store, Mem, 0x05)                                              \
  X(Sth, "sth", Store, Mem, 0x06)                                              \
  X(Ldf, "ldf", LoadF, Mem, 0x20)                                              \
  X(Lddf, "lddf", LoadF, Mem, 0x23)                                            \
  X(Stf, "stf", StoreF, Mem, 0x24)                                             \
  X(Stdf, "stdf", StoreF, Mem, 0x27)

/// Every instruction the interpreter executes, plus Invalid for the words
/// it rejects with its unknown-instruction fault.
enum class Opc : uint8_t {
  Invalid,
#define VCODE_SPARC_OPC_ENUM(Name, Mn, Fm, Grp, Sel) Name,
  VCODE_SPARC_OPCODES(VCODE_SPARC_OPC_ENUM)
#undef VCODE_SPARC_OPC_ENUM
};

struct OpcInfo {
  const char *Mnemonic;
  Form Operands;
  Group Where;
  uint16_t Selector; ///< value of the field Where names
};

inline constexpr OpcInfo OpcTable[] = {
    {".word", Form::None, Group::Call, 0},
#define VCODE_SPARC_OPC_INFO(Name, Mn, Fm, Grp, Sel)                           \
  {Mn, Form::Fm, Group::Grp, Sel},
    VCODE_SPARC_OPCODES(VCODE_SPARC_OPC_INFO)
#undef VCODE_SPARC_OPC_INFO
};

inline constexpr unsigned NumOpcs = sizeof(OpcTable) / sizeof(OpcTable[0]);

constexpr const OpcInfo &info(Opc O) { return OpcTable[unsigned(O)]; }

/// A decoded instruction word: the operation, and the word's fields read
/// on demand. An interpreter step reads two or three of them; extracting
/// all of them up front slowed the SPARC interpreter (EXPERIMENTS E20).
/// FP operations name FPRs in rd/rs1/rs2.
struct Insn {
  Opc Op = Opc::Invalid;
  uint32_t W = 0;

  constexpr unsigned rd() const { return (W >> 25) & 31; }
  constexpr unsigned rs1() const { return (W >> 14) & 31; }
  constexpr unsigned rs2() const { return W & 31; }
  /// Bicc/FBfcc condition (bits 28..25).
  constexpr unsigned cond() const { return (W >> 25) & 15; }
  /// Format 3: operand 2 is simm13() rather than register rs2().
  constexpr bool useImm() const { return (W >> 13) & 1; }
  constexpr int32_t simm13() const { return signExtend32<13>(W & 0x1fff); }
  /// Sethi immediate (bits 21..0).
  constexpr uint32_t imm22() const { return W & 0x3fffff; }
  /// Call disp30 or branch disp22, in words.
  constexpr int32_t disp() const {
    return W >> 30 == 1 ? signExtend32<30>(W & 0x3fffffff)
                        : signExtend32<22>(W & 0x3fffff);
  }
};

namespace detail {
/// Opc by the bits that select it outside FPop: op (bits 31..30), bit 29
/// and op3 (bits 24..19), which for op 0 holds op2 (bits 24..22). FPop1
/// and FPop2 words (op 2, op3 0x34/0x35) select by opf instead.
struct DecodeTables {
  std::array<Opc, 512> Main{};
  std::array<Opc, 512> FpOp{};
};

inline constexpr DecodeTables Tables = [] {
  std::array<Opc, 8> Fmt2{};
  std::array<Opc, 64> Alu{}, Mem{};
  DecodeTables T;
  for (unsigned I = 1; I < NumOpcs; ++I) {
    const OpcInfo &Info = OpcTable[I];
    switch (Info.Where) {
    case Group::Fmt2:
      Fmt2[Info.Selector] = Opc(I);
      break;
    case Group::Alu:
      Alu[Info.Selector] = Opc(I);
      break;
    case Group::FpOp:
      T.FpOp[Info.Selector] = Opc(I);
      break;
    case Group::Mem:
      Mem[Info.Selector] = Opc(I);
      break;
    case Group::Call:
      break;
    }
  }
  for (unsigned X = 0; X < 512; ++X) {
    unsigned Op = X >> 7, Bit29 = (X >> 6) & 1, Op3 = X & 63;
    Opc O = Op == 1   ? Opc::Call
            : Op == 2 ? Alu[Op3]
            : Op == 3 ? Mem[Op3]
                      : Fmt2[Op3 >> 3];
    // Bit 29 annuls a Bicc/FBfcc but is part of sethi's rd.
    if (Op == 0 && Bit29 && O != Opc::Sethi)
      O = Opc::Invalid;
    T.Main[X] = O;
  }
  return T;
}();
} // namespace detail

/// Decodes one instruction word.
constexpr Insn decode(uint32_t W) {
  Opc Op = detail::Tables.Main[((W >> 23) & 0x1c0) | ((W >> 19) & 63)];
  if ((W & 0xc1f00000u) == 0x81a00000u) // op 2, op3 0x34 or 0x35
    Op = detail::Tables.FpOp[(W >> 5) & 0x1ff];
  return {Op, W};
}

/// Target of a call or taken branch at \p Pc.
inline SimAddr branchTarget(SimAddr Pc, const Insn &D) {
  return Pc + (SimAddr(int64_t(D.disp())) << 2);
}

/// Disassembles one instruction word fetched from address \p Pc: the
/// paper's §6.2 symbolic-debugger support, a lookup in the table above plus
/// one operand formatter per Form. Pc-relative targets print absolute, and
/// only Invalid words print as .word.
std::string disassemble(uint32_t Word, SimAddr Pc);

} // namespace sparc
} // namespace vcode

#endif // VCODE_SPARC_SPARCDECODE_H
