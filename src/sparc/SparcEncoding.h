//===- sparc/SparcEncoding.h - SPARC encoders from decode rows --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SPARC V8 instruction words, built from the one instruction description
/// in SparcDecode.h: a row's group and selector give the bits that name the
/// instruction (fixedBits), and its Form says where the operands go, as in
/// mips/MipsEncoding.h. Operands are raw register numbers, destination
/// first; a format-3 operand 2 is a register or a Simm13. Constant
/// operands fold to a single or+store (paper §5.3).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SPARC_SPARCENCODING_H
#define VCODE_SPARC_SPARCENCODING_H

#include "sparc/SparcDecode.h"
#include "core/EncTable.h"
#include <cstdint>

namespace vcode {
namespace sparc {

/// Register numbering: %g0-%g7 = 0-7, %o0-%o7 = 8-15, %l0-%l7 = 16-23,
/// %i0-%i7 = 24-31.
enum RegNum : unsigned {
  G0 = 0, G1 = 1, G2 = 2, G3 = 3, G4 = 4, G5 = 5, G6 = 6, G7 = 7,
  O0 = 8, O1 = 9, O2 = 10, O3 = 11, O4 = 12, O5 = 13, SP = 14, O7 = 15,
  L0 = 16, L1 = 17, L2 = 18, L3 = 19, L4 = 20, L5 = 21, L6 = 22, L7 = 23,
  I0 = 24, I1 = 25, I2 = 26, I3 = 27, I4 = 28, I5 = 29, FP = 30, I7 = 31,
};

/// Integer condition codes for Bicc.
enum ICond : unsigned {
  CondN = 0, CondE = 1, CondLE = 2, CondL = 3, CondLEU = 4, CondCS = 5,
  CondNEG = 6, CondVS = 7, CondA = 8, CondNE = 9, CondG = 10, CondGE = 11,
  CondGU = 12, CondCC = 13, CondPOS = 14, CondVC = 15,
};

/// FP condition codes for FBfcc.
enum FCond : unsigned {
  FCondN = 0, FCondNE = 1, FCondLG = 2, FCondUL = 3, FCondL = 4,
  FCondUG = 5, FCondG = 6, FCondU = 7, FCondA = 8, FCondE = 9,
  FCondUE = 10, FCondGE = 11, FCondUGE = 12, FCondLE = 13, FCondULE = 14,
  FCondO = 15,
};

/// The bits that name \p O: op, its selector in op2/op3/opf, and the op3
/// of its FP group (the compares are FPop2, every other FP op FPop1).
constexpr uint32_t fixedBits(Opc O) {
  const OpcInfo &I = info(O);
  uint32_t Sel = I.Selector;
  switch (I.Where) {
  case Group::Call:
    return 1u << 30;
  case Group::Fmt2:
    return Sel << 22;
  case Group::Alu:
    return (2u << 30) | (Sel << 19);
  case Group::FpOp:
    return (2u << 30) | ((I.Operands == Form::FCmp ? 0x35u : 0x34u) << 19) |
           (Sel << 5);
  case Group::Mem:
    return (3u << 30) | (Sel << 19);
  }
  return 0;
}

/// A format-3 immediate operand 2 (sets the i bit).
struct Simm13 {
  int32_t V;
};

// Where each Form puts its operands; fields a Form does not name stay zero.

constexpr uint32_t fmt3(unsigned Rd, unsigned Rs1, unsigned Rs2) {
  return (Rd << 25) | (Rs1 << 14) | Rs2;
}
constexpr uint32_t fmt3(unsigned Rd, unsigned Rs1, Simm13 I) {
  return (Rd << 25) | (Rs1 << 14) | (1u << 13) | (uint32_t(I.V) & 0x1fff);
}

constexpr uint32_t place(FormTag<Form::Call>, int32_t Disp30) {
  return uint32_t(Disp30) & 0x3fffffff;
}
constexpr uint32_t place(FormTag<Form::Sethi>, unsigned Rd, uint32_t Imm22) {
  return (Rd << 25) | (Imm22 & 0x3fffff);
}
constexpr uint32_t place(FormTag<Form::Bicc>, unsigned Cond, int32_t Disp22) {
  return (Cond << 25) | (uint32_t(Disp22) & 0x3fffff);
}
constexpr uint32_t place(FormTag<Form::FBfcc>, unsigned Cond, int32_t Disp22) {
  return place(FormTag<Form::Bicc>{}, Cond, Disp22);
}
/// rd %y, rd: rs1 and rs2 zero.
constexpr uint32_t place(FormTag<Form::RdY>, unsigned Rd) {
  return fmt3(Rd, 0, 0);
}
/// wr rs1, op2, %y: rd zero.
template <typename Op2T>
constexpr uint32_t place(FormTag<Form::WrY>, unsigned Rs1, Op2T Op2) {
  return fmt3(0, Rs1, Op2);
}
/// fd <- op fs2: rs1 zero.
constexpr uint32_t place(FormTag<Form::Fp2>, unsigned Fd, unsigned Fs2) {
  return fmt3(Fd, 0, Fs2);
}
/// fcmp fs1, fs2: rd zero.
constexpr uint32_t place(FormTag<Form::FCmp>, unsigned Fs1, unsigned Fs2) {
  return fmt3(0, Fs1, Fs2);
}
/// Every other Form is format 3 with rd, rs1 and operand 2 (fd, fs1, fs2
/// for Fp3; the stored register for stores).
template <Form F, typename Op2T>
constexpr uint32_t place(FormTag<F>, unsigned Rd, unsigned Rs1, Op2T Op2) {
  return fmt3(Rd, Rs1, Op2);
}

/// The canonical nop: sethi 0, %g0.
inline constexpr uint32_t Nop = encode<Opc::Sethi>(G0, 0);

namespace detail {
/// decode(encode<O>(probe)) names O and reads every probe operand back,
/// in both operand-2 kinds where the Form has them.
template <Opc O> constexpr bool roundTrips() {
  constexpr Form F = info(O).Operands;
  constexpr unsigned A = 3, B = 5, C = 7, Cc = 9;
  constexpr int32_t Off = -12;
  constexpr uint32_t U = 0x2a5a5;
  if constexpr (F == Form::Call) {
    Insn D = decode(encode<O>(Off));
    return D.Op == O && D.disp() == Off;
  } else if constexpr (F == Form::Sethi) {
    Insn D = decode(encode<O>(A, U));
    return D.Op == O && D.rd() == A && D.imm22() == U;
  } else if constexpr (F == Form::Bicc || F == Form::FBfcc) {
    Insn D = decode(encode<O>(Cc, Off));
    return D.Op == O && D.cond() == Cc && D.disp() == Off;
  } else if constexpr (F == Form::RdY) {
    Insn D = decode(encode<O>(A));
    return D.Op == O && D.rd() == A;
  } else if constexpr (F == Form::WrY) {
    Insn R = decode(encode<O>(B, C)), I = decode(encode<O>(B, Simm13{Off}));
    return R.Op == O && R.rs1() == B && R.rs2() == C && !R.useImm() &&
           I.Op == O && I.rs1() == B && I.simm13() == Off;
  } else if constexpr (F == Form::Fp2) {
    Insn D = decode(encode<O>(A, C));
    return D.Op == O && D.rd() == A && D.rs2() == C;
  } else if constexpr (F == Form::FCmp) {
    Insn D = decode(encode<O>(B, C));
    return D.Op == O && D.rs1() == B && D.rs2() == C;
  } else if constexpr (F == Form::Fp3) {
    Insn D = decode(encode<O>(A, B, C));
    return D.Op == O && D.rd() == A && D.rs1() == B && D.rs2() == C;
  } else {
    Insn R = decode(encode<O>(A, B, C));
    Insn I = decode(encode<O>(A, B, Simm13{Off}));
    return R.Op == O && R.rd() == A && R.rs1() == B && R.rs2() == C &&
           !R.useImm() && I.Op == O && I.rd() == A && I.rs1() == B &&
           I.useImm() && I.simm13() == Off;
  }
}
} // namespace detail

#define VCODE_SPARC_ROUND_TRIP(Name, Mn, Fm, Grp, Sel)                         \
  static_assert(detail::roundTrips<Opc::Name>(),                               \
                "SPARC row " #Name " does not decode back to itself");
VCODE_SPARC_OPCODES(VCODE_SPARC_ROUND_TRIP)
#undef VCODE_SPARC_ROUND_TRIP

} // namespace sparc
} // namespace vcode

#endif // VCODE_SPARC_SPARCENCODING_H
