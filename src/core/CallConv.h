//===- core/CallConv.h - Calling convention descriptions --------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data-driven calling convention descriptions. VCODE handles calling
/// conventions for the client (paper §3.2) and allows clients to substitute
/// conventions on a per-generated-function basis (paper §5.4). The
/// convention is described by data (argument registers, result registers,
/// stack layout constants) interpreted by shared placement logic, so a
/// client can swap in a custom convention without touching a backend.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_CALLCONV_H
#define VCODE_CORE_CALLCONV_H

#include "core/Reg.h"
#include "core/Types.h"
#include <cstdint>
#include <vector>

namespace vcode {

/// Where one argument of a call lives at the call boundary.
struct ArgLoc {
  Type Ty = Type::V;
  bool OnStack = false;
  Reg R;             ///< valid when !OnStack
  int32_t StackOff = 0; ///< byte offset into the outgoing-argument area
};

/// A calling convention: argument/result registers plus stack rules.
///
/// Placement rule (uniform across targets in this reproduction, documented
/// in DESIGN.md): arguments are scanned left to right; integer/pointer
/// arguments take the next free register of IntArgRegs, floating-point
/// arguments the next of FpArgRegs; once the respective list is exhausted
/// the argument is passed in the outgoing-argument area at the next
/// naturally-aligned offset.
struct CallConv {
  std::vector<Reg> IntArgRegs;
  std::vector<Reg> FpArgRegs;
  Reg IntRet; ///< integer/pointer result register
  Reg FpRet;  ///< floating-point result register
  /// Register holding the return address on entry. Defaults to the
  /// machine's standard link register; substituted conventions (e.g. the
  /// Alpha division helpers, paper §5.2) may pick another so leaf callers
  /// need not save their own link register.
  Reg LinkReg;
  /// Bytes always reserved at the bottom of a non-leaf frame for outgoing
  /// arguments, even when every argument is in registers (MIPS O32 style
  /// home area). May be zero.
  uint32_t MinOutArgBytes = 0;
};

/// The placement rule, one argument at a time and without allocation.
/// Every consumer of a convention walks its arguments through this: the
/// front end (VCode's lambda and callBegin, straight into the function's
/// recycled location tables), the simulators', the binary translator's
/// and NativeCpu's call marshalling. \p WordBytes is the target word size
/// (stack slots are word-granular; doubles take 8 bytes always).
class ArgWalker {
public:
  ArgWalker(const CallConv &Conv, unsigned WordBytes)
      : Conv(Conv), WordBytes(WordBytes) {}

  /// The location of the next argument, of type \p T.
  ArgLoc next(Type T) {
    ArgLoc L;
    L.Ty = T;
    bool IsFp = isFpType(T);
    const std::vector<Reg> &Regs = IsFp ? Conv.FpArgRegs : Conv.IntArgRegs;
    size_t &Next = IsFp ? NextFp : NextInt;
    if (Next < Regs.size()) {
      L.R = Regs[Next++];
      return L;
    }
    unsigned Size = typeSize(T, WordBytes);
    if (Size < WordBytes)
      Size = WordBytes; // promote sub-word arguments to a full slot
    StackOff = uint32_t((StackOff + Size - 1) & ~uint32_t(Size - 1));
    L.OnStack = true;
    L.StackOff = int32_t(StackOff);
    StackOff += Size;
    return L;
  }

private:
  const CallConv &Conv;
  unsigned WordBytes;
  size_t NextInt = 0, NextFp = 0;
  uint32_t StackOff = 0;
};

/// Returns the number of outgoing-argument-area bytes a call with locations
/// \p Locs needs under convention \p CC.
inline uint32_t outArgBytes(const CallConv &CC, const std::vector<ArgLoc> &Locs,
                            unsigned WordBytes) {
  uint32_t Max = CC.MinOutArgBytes;
  for (const ArgLoc &L : Locs)
    if (L.OnStack) {
      uint32_t End = uint32_t(L.StackOff) + typeSize(L.Ty, WordBytes);
      if (End > Max)
        Max = End;
    }
  return Max;
}

} // namespace vcode

#endif // VCODE_CORE_CALLCONV_H
