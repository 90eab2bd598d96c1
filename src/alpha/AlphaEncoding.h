//===- alpha/AlphaEncoding.h - Alpha encoders from decode rows --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alpha (21064-class, pre-BWX) instruction words, built from the one
/// instruction description in AlphaDecode.h: a row's opcode and function
/// give the bits that name the instruction (fixedBits), and its Form says
/// where the operands go, as in mips/MipsEncoding.h. Operands are raw
/// register numbers, destination first; an operate operand B is a
/// register or a Lit. The 21064 has no byte or halfword loads/stores -- the
/// backend synthesizes them from ldq_u/extbl/insbl/mskbl/stq_u, the
/// expensive sequences §6.2 of the paper complains about -- and no integer
/// division, which goes through runtime helper routines (§5.2).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_ALPHA_ALPHAENCODING_H
#define VCODE_ALPHA_ALPHAENCODING_H

#include "alpha/AlphaDecode.h"
#include "core/EncTable.h"
#include <cstdint>

namespace vcode {
namespace alpha {

/// Conventional Alpha register numbers.
enum RegNum : unsigned {
  V0 = 0,
  T0 = 1, T1 = 2, T2 = 3, T3 = 4, T4 = 5, T5 = 6, T6 = 7, T7 = 8,
  S0 = 9, S1 = 10, S2 = 11, S3 = 12, S4 = 13, S5 = 14, FP = 15,
  A0 = 16, A1 = 17, A2 = 18, A3 = 19, A4 = 20, A5 = 21,
  T8 = 22, T9 = 23, T10 = 24, T11 = 25, RA = 26, T12 = 27,
  AT = 28, GP = 29, SP = 30, ZERO = 31,
};

/// The bits that name \p O: its opcode and its function, which sits at
/// bit 14 (the jump hint) or bit 5 (operate and FP operate). A one-source
/// FP operation reads Fb, so Fa is F31.
constexpr uint32_t fixedBits(Opc O) {
  const OpcInfo &I = info(O);
  uint32_t Op = uint32_t(I.Opcode) << 26, Fn = I.Function;
  switch (I.Operands) {
  case Form::Jump:
    return Op | (Fn << 14);
  case Form::Operate:
  case Form::Fp3:
    return Op | (Fn << 5);
  case Form::Fp2:
    return Op | (31u << 21) | (Fn << 5);
  default:
    return Op;
  }
}

/// An 8-bit operate literal in place of Rb (sets bit 12).
struct Lit {
  unsigned V;
};

// Where each Form puts its operands; fields a Form does not name stay zero.

/// Ra, Rb and a 16-bit displacement.
template <Form F>
  requires(F == Form::MemI || F == Form::MemF)
constexpr uint32_t place(FormTag<F>, unsigned Ra, unsigned Rb, int32_t Disp) {
  return (Ra << 21) | (Rb << 16) | (uint32_t(Disp) & 0xffff);
}
/// Ra and a 21-bit displacement in words.
template <Form F>
  requires(F == Form::Br || F == Form::FBr)
constexpr uint32_t place(FormTag<F>, unsigned Ra, int32_t Disp) {
  return (Ra << 21) | (uint32_t(Disp) & 0x1fffff);
}
constexpr uint32_t place(FormTag<Form::Jump>, unsigned Ra, unsigned Rb) {
  return (Ra << 21) | (Rb << 16);
}
constexpr uint32_t place(FormTag<Form::Operate>, unsigned Rc, unsigned Ra,
                         unsigned Rb) {
  return (Ra << 21) | (Rb << 16) | Rc;
}
constexpr uint32_t place(FormTag<Form::Operate>, unsigned Rc, unsigned Ra,
                         Lit L) {
  return (Ra << 21) | ((L.V & 0xff) << 13) | (1u << 12) | Rc;
}
constexpr uint32_t place(FormTag<Form::Fp2>, unsigned Fc, unsigned Fb) {
  return (Fb << 16) | Fc;
}
constexpr uint32_t place(FormTag<Form::Fp3>, unsigned Fc, unsigned Fa,
                         unsigned Fb) {
  return (Fa << 21) | (Fb << 16) | Fc;
}

/// The canonical nop: bis zero, zero, zero.
inline constexpr uint32_t Nop = encode<Opc::Bis>(ZERO, ZERO, ZERO);

namespace detail {
/// decode(encode<O>(probe)) names O and reads every probe operand back,
/// in both operand-B kinds for the operate Form.
template <Opc O> constexpr bool roundTrips() {
  constexpr Form F = info(O).Operands;
  constexpr unsigned A = 3, B = 5, C = 7, L = 0xa5;
  constexpr int32_t Off = -12;
  if constexpr (F == Form::MemI || F == Form::MemF) {
    Insn D = decode(encode<O>(A, B, Off));
    return D.Op == O && D.Ra == A && D.Rb == B && D.Disp16 == Off;
  } else if constexpr (F == Form::Br || F == Form::FBr) {
    Insn D = decode(encode<O>(A, Off));
    return D.Op == O && D.Ra == A && D.Disp21 == Off;
  } else if constexpr (F == Form::Jump) {
    Insn D = decode(encode<O>(A, B));
    return D.Op == O && D.Ra == A && D.Rb == B;
  } else if constexpr (F == Form::Operate) {
    Insn R = decode(encode<O>(C, A, B));
    Insn I = decode(encode<O>(C, A, Lit{L}));
    return R.Op == O && R.Rc == C && R.Ra == A && R.Rb == B && !R.UseLit &&
           I.Op == O && I.Rc == C && I.Ra == A && I.UseLit && I.Lit == L;
  } else if constexpr (F == Form::Fp2) {
    Insn D = decode(encode<O>(C, B));
    return D.Op == O && D.Rc == C && D.Rb == B;
  } else {
    static_assert(F == Form::Fp3);
    Insn D = decode(encode<O>(C, A, B));
    return D.Op == O && D.Rc == C && D.Ra == A && D.Rb == B;
  }
}
} // namespace detail

#define VCODE_ALPHA_ROUND_TRIP(Name, Mn, Fm, Op, Fn)                           \
  static_assert(detail::roundTrips<Opc::Name>(),                               \
                "Alpha row " #Name " does not decode back to itself");
VCODE_ALPHA_OPCODES(VCODE_ALPHA_ROUND_TRIP)
#undef VCODE_ALPHA_ROUND_TRIP

} // namespace alpha
} // namespace vcode

#endif // VCODE_ALPHA_ALPHAENCODING_H
