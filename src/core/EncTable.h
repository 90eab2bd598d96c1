//===- core/EncTable.h - Constexpr encoding tables --------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for per-target constexpr encoding tables. Backends map
/// a VCODE operation (Type, BinOp, Cond) to machine opcode fields with a
/// dense table lookup instead of a per-emission switch, so the common
/// "one VCODE instruction -> one machine word" case is a load, an or, and a
/// store — the paper's Fig. 2 cost model. The RISC ports name each
/// instruction by its decode-table Opc (OpcEnc); x86-64, which has no
/// decode table, keeps raw opcode rows with an explicit Valid flag because
/// 0 is a real opcode. Invalid rows route the operation to the backend's
/// multi-word synthesis path.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_ENCTABLE_H
#define VCODE_CORE_ENCTABLE_H

#include "core/Ops.h"
#include "core/Types.h"
#include <cstdint>
#include <type_traits>

namespace vcode {

/// Enumerator counts for table sizing (kept next to the tables rather than
/// the enums so the enums stay pure interface).
inline constexpr unsigned NumBinOps = 10;
inline constexpr unsigned NumUnOps = 4;
inline constexpr unsigned NumConds = 6;

/// Dense constexpr lookup table indexed by a scoped enum. Built at compile
/// time with the set() builder inside an immediately-invoked constexpr
/// lambda; unset rows default-construct (Valid == false for the row types
/// below).
template <typename EnumT, typename RowT, unsigned N> class EncTable {
public:
  constexpr EncTable() : Rows{} {}

  constexpr EncTable &set(EnumT E, RowT R) {
    Rows[unsigned(E)] = R;
    return *this;
  }

  constexpr const RowT &operator[](EnumT E) const { return Rows[unsigned(E)]; }

private:
  RowT Rows[N];
};

template <typename RowT> using TypeEncTable = EncTable<Type, RowT, NumTypes>;
template <typename RowT>
using BinOpEncTable = EncTable<BinOp, RowT, NumBinOps>;
template <typename RowT> using CondEncTable = EncTable<Cond, RowT, NumConds>;

/// Row holding one raw field value (an x86-64 opcode, a condition code).
struct OpEnc {
  uint16_t Op = 0;
  bool Valid = false;

  constexpr OpEnc() = default;
  constexpr OpEnc(unsigned Op) : Op(uint16_t(Op)), Valid(true) {}
};

/// Row holding a two-way opcode variant: signed/unsigned, single/double,
/// or 32/64-bit, selected with pick().
struct OpPairEnc {
  uint16_t A = 0;
  uint16_t B = 0;
  bool Valid = false;

  constexpr OpPairEnc() = default;
  constexpr OpPairEnc(unsigned A, unsigned B)
      : A(uint16_t(A)), B(uint16_t(B)), Valid(true) {}

  constexpr unsigned pick(bool Second) const { return Second ? B : A; }
};

/// Encoding for the ports with a decode table (mips, sparc, alpha). Each
/// port's namespace defines fixedBits(Opc), the bits that name an
/// instruction, built from its decode row, and one place(FormTag<F>,
/// operands...) per Form, which puts the operands where that Form holds
/// them. Both are found by argument-dependent lookup.
template <auto F> using FormTag = std::integral_constant<decltype(F), F>;

/// The word with fixed bits \p Fixed (an Opc's fixedBits) and \p Ops placed
/// as Form \p F places them.
template <auto F, typename... Ts>
constexpr uint32_t encodeAs(uint32_t Fixed, Ts... Ops) {
  return Fixed | place(FormTag<F>{}, Ops...);
}

/// The word of instruction \p O with operands \p Ops, in the order its
/// Form lists them: encode<mips::Opc::Addu>(Rd, Rs, Rt). Constant operands
/// fold it to a constant (the paper's Fig. 2 macros, §5.3).
template <auto O, typename... Ts> constexpr uint32_t encode(Ts... Ops) {
  constexpr uint32_t Fixed = fixedBits(O);
  return encodeAs<info(O).Operands>(Fixed, Ops...);
}

/// Row naming instructions of a port with a decode table by Opc: a two-way
/// variant (signed/unsigned, single/double or 32/64-bit, selected with
/// pick()) and, for compare rows, whether the operands swap (Gt/Ge as
/// reversed Lt/Le) and whether the branch sense inverts (Ne as inverted
/// Eq). Each Opc's fixed bits -- fixedBits(), found in the port's namespace
/// -- are built with the table, so emission ors the operands into one
/// loaded word. Opc::Invalid marks an operation the backend synthesizes.
template <typename OpcT> struct OpcEnc {
  OpcT Op = OpcT::Invalid;
  uint32_t Word[2] = {0, 0};
  bool Swap = false;
  bool Invert = false;

  constexpr OpcEnc() = default;
  constexpr OpcEnc(OpcT A) : OpcEnc(A, A) {}
  constexpr OpcEnc(OpcT A, OpcT B, bool Swap = false, bool Invert = false)
      : Op(A), Word{fixedBits(A), fixedBits(B)}, Swap(Swap), Invert(Invert) {}

  constexpr bool valid() const { return Op != OpcT::Invalid; }
  constexpr uint32_t pick(bool Second = false) const { return Word[Second]; }
};

} // namespace vcode

#endif // VCODE_CORE_ENCTABLE_H
