//===- perfbench/bench/Oracle.h - Seeded inputs and oracles -----*- C++ -*-===//
//
// Everything the benchmark feeds the code generator, and the independent
// host-side answers its outputs are checked against:
//
//  - random legal VCODE streams (control flow, memory traffic, integer
//    conversions) with a direct host evaluator of VCODE semantics;
//  - tcc-lite programs built as ASTs, rendered to source, and evaluated on
//    the host with 32-bit wrap-around arithmetic.
//
// The reference semantics here are written for the benchmark and share no
// code with the library or its tests.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "core/Ops.h"
#include "core/Types.h"
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, so its inputs
/// depend on the seed alone.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform double in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// Mixes a run seed with a stream discriminator.
uint64_t subSeed(uint64_t Seed, uint64_t Salt);

// --- Reference VCODE semantics (integer subset) -----------------------------

/// Truncates \p V to \p Ty's width on a \p WordBytes machine and sign- or
/// zero-extends it into a 64-bit container.
uint64_t canonical(vcode::Type Ty, uint64_t V, unsigned WordBytes);
uint64_t evalBinop(vcode::BinOp Op, vcode::Type Ty, uint64_t A, uint64_t B,
                   unsigned WordBytes);
uint64_t evalUnop(vcode::UnOp Op, vcode::Type Ty, uint64_t A,
                  unsigned WordBytes);
bool evalCond(vcode::Cond C, vcode::Type Ty, uint64_t A, uint64_t B,
              unsigned WordBytes);
/// Integer-to-integer conversion.
uint64_t evalCvt(vcode::Type From, vcode::Type To, uint64_t A,
                 unsigned WordBytes);

// --- Random VCODE streams ---------------------------------------------------

inline constexpr unsigned StreamSlots = 4;   ///< live registers
inline constexpr unsigned ScratchCells = 6;  ///< 8-byte memory cells

/// One stream instruction over slot indices.
struct StreamInsn {
  enum KindType : uint8_t {
    Bin,    ///< d = a op b
    BinImm, ///< d = a op imm
    Un,     ///< d = op a
    Set,    ///< d = imm
    CmpSet, ///< d = (a C b) ? 1 : 0 through a branch diamond
    Load,   ///< d = cell
    Store,  ///< cell = a
    Cvt,    ///< d = cvt(Ty2 -> Ty, cvt(Ty -> Ty2, a))
    Guard,  ///< if (a C b) skip the next Skip instructions
  } Kind = Bin;
  vcode::BinOp Bop = vcode::BinOp::Add;
  vcode::UnOp Uop = vcode::UnOp::Mov;
  vcode::Cond C = vcode::Cond::Eq;
  vcode::Type Ty2 = vcode::Type::I;
  uint8_t D = 0, A = 0, B = 0, Cell = 0, Skip = 0;
  int64_t Imm = 0;
};

/// A stream plus its initial register values.
struct Stream {
  vcode::Type Ty = vcode::Type::I;
  std::vector<StreamInsn> Insns;
  std::array<uint64_t, StreamSlots> Init{};
};

/// Draws a legal stream of \p Len instructions over \p Ty for a machine
/// with \p WordBytes words. Conversions only when \p AllowCvt. Guarded
/// blocks never nest, so the emitter keeps one pending label at a time.
Stream makeStream(Rng &R, vcode::Type Ty, unsigned Len, unsigned WordBytes,
                  bool AllowCvt);

/// Final slot and scratch values of running \p S.
struct StreamResult {
  std::array<uint64_t, StreamSlots> Slot{};
  std::array<uint64_t, ScratchCells> Scratch{};
};
StreamResult evalStream(const Stream &S, unsigned WordBytes);

/// VCODE instructions the emitters issue for \p S: the body plus the fixed
/// entry/exit sequence of the regular (\p Tier1 false) or the vreg-layer
/// emitter.
unsigned streamVcodeInsns(const Stream &S, bool Tier1);

// --- tcc-lite programs ------------------------------------------------------

/// A seeded tcc-lite function of three int parameters with locals,
/// if/else, bounded while loops and the full operator set.
struct TccProgram {
  std::string Source;
  std::array<int32_t, 3> Args{};
  int32_t Expected = 0; ///< host evaluation of the function on Args
};

/// Draws a program with about \p Stmts statements.
TccProgram makeTccProgram(Rng &R, unsigned Stmts);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
