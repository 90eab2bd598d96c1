//===- mips/MipsEncoding.h - MIPS encoders from the decode rows -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MIPS I/II instruction words, built from the one instruction description
/// in MipsDecode.h: a row's group and selector give the bits that name the
/// instruction (fixedBits), and its Form says where the operands go. So
///
///   encode<Opc::Addu>(Rd, Rs, Rt)
///
/// is the paper's Fig. 2 emission macro
///
///   #define addu(dst, src1, src2)
///     (*v_ip++ = (((src1)<<21)|((src2)<<16)|((dst)<<11)|0x21))
///
/// and folds to a constant when the register names are hard-coded (paper
/// §5.3). Operands are raw register numbers in assembler order. Backend
/// tables hold an Opc's fixed bits (OpcEnc) and or in the operands with
/// encodeAs. The static_asserts at the end decode every row's word back.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_MIPS_MIPSENCODING_H
#define VCODE_MIPS_MIPSENCODING_H

#include "mips/MipsDecode.h"
#include "core/EncTable.h"
#include <cstdint>

namespace vcode {
namespace mips {

/// Conventional MIPS O32 register numbers.
enum GpRegNum : unsigned {
  ZERO = 0, AT = 1, V0 = 2, V1 = 3,
  A0 = 4, A1 = 5, A2 = 6, A3 = 7,
  T0 = 8, T1 = 9, T2 = 10, T3 = 11, T4 = 12, T5 = 13, T6 = 14, T7 = 15,
  S0 = 16, S1 = 17, S2 = 18, S3 = 19, S4 = 20, S5 = 21, S6 = 22, S7 = 23,
  T8 = 24, T9 = 25, K0 = 26, K1 = 27,
  GP = 28, SP = 29, S8 = 30, RA = 31,
};

/// COP1 data formats (the fmt field of FP arithmetic).
enum FpFormat : unsigned { FMT_S = 16, FMT_D = 17, FMT_W = 20 };

/// The bits that name \p O: its group's fixed fields and its selector.
constexpr uint32_t fixedBits(Opc O) {
  const OpcInfo &I = info(O);
  uint32_t Sel = I.Selector;
  switch (I.Where) {
  case Group::Primary:
    return Sel << 26;
  case Group::Special:
    return Sel;
  case Group::Regimm:
    return (PrimaryRegimm << 26) | (Sel << 16);
  case Group::Cop1Sub:
    return (PrimaryCop1 << 26) | (Sel << 21);
  case Group::Bc1:
    return (PrimaryCop1 << 26) | (Cop1Bc << 21) | (Sel << 16);
  case Group::Cop1Fn:
    return (PrimaryCop1 << 26) | Sel;
  }
  return 0;
}

// Where each Form puts its operands; fields a Form does not name stay zero.

constexpr uint32_t rType(unsigned Rs, unsigned Rt, unsigned Rd,
                         unsigned Sa = 0) {
  return (Rs << 21) | (Rt << 16) | (Rd << 11) | (Sa << 6);
}
constexpr uint32_t iType(unsigned Rs, unsigned Rt, uint32_t Imm) {
  return (Rs << 21) | (Rt << 16) | (Imm & 0xffff);
}

constexpr uint32_t place(FormTag<Form::RdRsRt>, unsigned Rd, unsigned Rs,
                         unsigned Rt) {
  return rType(Rs, Rt, Rd);
}
constexpr uint32_t place(FormTag<Form::RdRtSa>, unsigned Rd, unsigned Rt,
                         unsigned Sa) {
  return rType(0, Rt, Rd, Sa);
}
constexpr uint32_t place(FormTag<Form::RdRtRs>, unsigned Rd, unsigned Rt,
                         unsigned Rs) {
  return rType(Rs, Rt, Rd);
}
constexpr uint32_t place(FormTag<Form::Rs>, unsigned Rs) {
  return rType(Rs, 0, 0);
}
constexpr uint32_t place(FormTag<Form::RdRs>, unsigned Rd, unsigned Rs) {
  return rType(Rs, 0, Rd);
}
constexpr uint32_t place(FormTag<Form::Rd>, unsigned Rd) {
  return rType(0, 0, Rd);
}
constexpr uint32_t place(FormTag<Form::RsRt>, unsigned Rs, unsigned Rt) {
  return rType(Rs, Rt, 0);
}
constexpr uint32_t place(FormTag<Form::RsOff>, unsigned Rs, int32_t Off) {
  return iType(Rs, 0, uint32_t(Off));
}
constexpr uint32_t place(FormTag<Form::RsRtOff>, unsigned Rs, unsigned Rt,
                         int32_t Off) {
  return iType(Rs, Rt, uint32_t(Off));
}
constexpr uint32_t place(FormTag<Form::Off>, int32_t Off) {
  return iType(0, 0, uint32_t(Off));
}
/// j/jal take the byte address of the target.
constexpr uint32_t place(FormTag<Form::Target>, uint64_t Target) {
  return uint32_t(Target >> 2) & 0x03ffffff;
}
constexpr uint32_t place(FormTag<Form::RtRsImm>, unsigned Rt, unsigned Rs,
                         int32_t Imm) {
  return iType(Rs, Rt, uint32_t(Imm));
}
constexpr uint32_t place(FormTag<Form::RtRsUImm>, unsigned Rt, unsigned Rs,
                         uint32_t Imm) {
  return iType(Rs, Rt, Imm);
}
constexpr uint32_t place(FormTag<Form::RtUImm>, unsigned Rt, uint32_t Imm) {
  return iType(0, Rt, Imm);
}
constexpr uint32_t place(FormTag<Form::RtFs>, unsigned Rt, unsigned Fs) {
  return rType(0, Rt, Fs);
}
constexpr uint32_t place(FormTag<Form::FdFsFt>, unsigned Fmt, unsigned Fd,
                         unsigned Fs, unsigned Ft) {
  return rType(Fmt, Ft, Fs, Fd);
}
constexpr uint32_t place(FormTag<Form::FdFs>, unsigned Fmt, unsigned Fd,
                         unsigned Fs) {
  return rType(Fmt, 0, Fs, Fd);
}
constexpr uint32_t place(FormTag<Form::FsFt>, unsigned Fmt, unsigned Fs,
                         unsigned Ft) {
  return rType(Fmt, Ft, Fs);
}
constexpr uint32_t place(FormTag<Form::RtMem>, unsigned Rt, unsigned Base,
                         int32_t Off) {
  return iType(Base, Rt, uint32_t(Off));
}
constexpr uint32_t place(FormTag<Form::FtMem>, unsigned Ft, unsigned Base,
                         int32_t Off) {
  return iType(Base, Ft, uint32_t(Off));
}

/// The canonical nop: sll zero, zero, 0.
inline constexpr uint32_t Nop = encode<Opc::Sll>(ZERO, ZERO, 0);

namespace detail {
/// decode(encode<O>(probe)) names O and reads every probe operand back.
/// The registers differ, the offset is negative and the unsigned
/// immediate has its top bit set, so a swapped or truncated field shows.
template <Opc O> constexpr bool roundTrips() {
  constexpr Form F = info(O).Operands;
  constexpr unsigned A = 3, B = 5, C = 7, Fmt = FMT_D;
  constexpr int32_t Off = -12;
  constexpr uint32_t U = 0x8421;
  if constexpr (F == Form::RdRsRt) {
    Insn D = decode(encode<O>(A, B, C));
    return D.Op == O && D.Rd == A && D.Rs == B && D.Rt == C;
  } else if constexpr (F == Form::RdRtSa) {
    Insn D = decode(encode<O>(A, B, C));
    return D.Op == O && D.Rd == A && D.Rt == B && D.Sh == C;
  } else if constexpr (F == Form::RdRtRs) {
    Insn D = decode(encode<O>(A, B, C));
    return D.Op == O && D.Rd == A && D.Rt == B && D.Rs == C;
  } else if constexpr (F == Form::Rs) {
    Insn D = decode(encode<O>(A));
    return D.Op == O && D.Rs == A;
  } else if constexpr (F == Form::RdRs) {
    Insn D = decode(encode<O>(A, B));
    return D.Op == O && D.Rd == A && D.Rs == B;
  } else if constexpr (F == Form::Rd) {
    Insn D = decode(encode<O>(A));
    return D.Op == O && D.Rd == A;
  } else if constexpr (F == Form::RsRt) {
    Insn D = decode(encode<O>(A, B));
    return D.Op == O && D.Rs == A && D.Rt == B;
  } else if constexpr (F == Form::RsOff) {
    Insn D = decode(encode<O>(A, Off));
    return D.Op == O && D.Rs == A && D.Imm == Off;
  } else if constexpr (F == Form::RsRtOff) {
    Insn D = decode(encode<O>(A, B, Off));
    return D.Op == O && D.Rs == A && D.Rt == B && D.Imm == Off;
  } else if constexpr (F == Form::Off) {
    Insn D = decode(encode<O>(Off));
    return D.Op == O && D.Imm == Off;
  } else if constexpr (F == Form::Target) {
    Insn D = decode(encode<O>(uint64_t(U) << 2));
    return D.Op == O && D.JIndex == U;
  } else if constexpr (F == Form::RtRsImm) {
    Insn D = decode(encode<O>(A, B, Off));
    return D.Op == O && D.Rt == A && D.Rs == B && D.Imm == Off;
  } else if constexpr (F == Form::RtRsUImm) {
    Insn D = decode(encode<O>(A, B, U));
    return D.Op == O && D.Rt == A && D.Rs == B && D.UImm == U;
  } else if constexpr (F == Form::RtUImm) {
    Insn D = decode(encode<O>(A, U));
    return D.Op == O && D.Rt == A && D.UImm == U;
  } else if constexpr (F == Form::RtFs) {
    Insn D = decode(encode<O>(A, B));
    return D.Op == O && D.Rt == A && D.Rd == B;
  } else if constexpr (F == Form::FdFsFt) {
    Insn D = decode(encode<O>(Fmt, A, B, C));
    return D.Op == O && isDouble(D) && D.Sh == A && D.Rd == B && D.Rt == C;
  } else if constexpr (F == Form::FdFs) {
    Insn D = decode(encode<O>(Fmt, A, B));
    return D.Op == O && isDouble(D) && D.Sh == A && D.Rd == B;
  } else if constexpr (F == Form::FsFt) {
    Insn D = decode(encode<O>(Fmt, A, B));
    return D.Op == O && isDouble(D) && D.Rd == A && D.Rt == B;
  } else {
    static_assert(F == Form::RtMem || F == Form::FtMem);
    Insn D = decode(encode<O>(A, B, Off));
    return D.Op == O && D.Rt == A && D.Rs == B && D.Imm == Off;
  }
}
} // namespace detail

#define VCODE_MIPS_ROUND_TRIP(Name, Mn, Fm, Cti, Grp, Sel)                     \
  static_assert(detail::roundTrips<Opc::Name>(),                               \
                "MIPS row " #Name " does not decode back to itself");
VCODE_MIPS_OPCODES(VCODE_MIPS_ROUND_TRIP)
#undef VCODE_MIPS_ROUND_TRIP

} // namespace mips
} // namespace vcode

#endif // VCODE_MIPS_MIPSENCODING_H
