//===- tests/TestUtil.h - Shared test fixtures and reference semantics ----===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Target-parameterized fixtures (one substrate = arena + backend + CPU
/// simulator, from substrate/Substrate.h) and a host-side reference evaluator for VCODE instruction
/// semantics. The auto-generated regression tests (paper §3.3: "a script to
/// automatically generate regression tests for errors in instruction
/// mappings and calling conventions") compare generated-code results on the
/// simulator against this evaluator.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_TESTS_TESTUTIL_H
#define VCODE_TESTS_TESTUTIL_H

#include "core/VCode.h"
#include "alpha/AlphaDecode.h"
#include "mips/MipsDecode.h"
#include "sparc/SparcDecode.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include "substrate/Substrate.h"
#include <gtest/gtest.h>
#include <memory>
#include <string>

namespace vcode {
namespace test {

// --- Randomized-test seed plumbing ------------------------------------------
//
// Every randomized test derives its Rng seed through testSeed(salt), where
// the salt is the test's stable per-case discriminator. By default the base
// seed is fixed, so CI runs a reproducible corpus; setting VCODE_TEST_SEED
// (decimal or 0x-hex) in the environment re-seeds the whole suite for
// exploratory fuzzing. The VCODE_SEEDED macro below both derives the seed
// and pushes a gtest ScopedTrace, so any failure inside the scope prints
// the seed and the exact environment setting that reproduces it.

/// Base seed: $VCODE_TEST_SEED when set, else a fixed default (0).
uint64_t testBaseSeed();
/// True when VCODE_TEST_SEED overrides the default corpus.
bool testSeedOverridden();
/// Seed for one randomized case: the base seed mixed (splitmix-style) with
/// a stable per-case \p Salt. With the default base seed this is a pure
/// function of the salt, so the checked-in corpus is stable.
uint64_t testSeed(uint64_t Salt);
/// Failure-message annotation: "seed 0x... (rerun: VCODE_TEST_SEED=...)".
std::string seedInfo(uint64_t Seed);

/// Declares `const uint64_t TestSeed` derived from \p SaltExpr and makes
/// every assertion failure in the enclosing scope print the seed.
#define VCODE_SEEDED(SaltExpr)                                                \
  const uint64_t TestSeed = ::vcode::test::testSeed(SaltExpr);                \
  ::testing::ScopedTrace VcodeSeedTrace(                                      \
      __FILE__, __LINE__, ::vcode::test::seedInfo(TestSeed))

/// For tests that derive several seeds via testSeed(salt) internally:
/// makes failures in the enclosing scope print the base seed / rerun hint.
#define VCODE_SEED_TRACE()                                                    \
  ::testing::ScopedTrace VcodeSeedTrace(                                      \
      __FILE__, __LINE__,                                                     \
      ::vcode::test::seedInfo(::vcode::test::testBaseSeed()))

/// Names of the simulated targets (for INSTANTIATE_TEST_SUITE_P); each
/// fixture gets its arena, backend and CPU from makeSubstrate(name).
std::vector<std::string> allTargetNames();

/// Every substrate name makeSubstrate builds on this machine: the
/// simulated targets, plus host and dbt on x86-64.
std::vector<std::string> allSubstrateNames();

/// makeSubstrate(\p Name) over an arena whose code regions never grow in
/// place, so generateWithRetry takes its re-emission path on overflow.
Substrate makeFixedRegionSubstrate(const std::string &Name);

/// FNV-1a over \p N bytes, continuing from \p H: the byte-identity
/// tests' hash of emitted code.
inline uint64_t fnv1a(const uint8_t *P, size_t N,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (size_t I = 0; I < N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ull;
  return H;
}

/// Register-width in bits of \p Ty values on a target with \p WordBytes
/// words.
inline unsigned typeBits(Type Ty, unsigned WordBytes) {
  return typeSize(Ty, WordBytes) * 8;
}

/// Truncates \p V to the width of \p Ty, sign- or zero-extending into the
/// canonical 64-bit container used by TypedValue.
uint64_t canonicalize(Type Ty, uint64_t V, unsigned WordBytes);

/// Host-side reference semantics for the VCODE core. All integer values are
/// canonical 64-bit containers per canonicalize().
uint64_t refBinop(BinOp Op, Type Ty, uint64_t A, uint64_t B,
                  unsigned WordBytes);
uint64_t refUnop(UnOp Op, Type Ty, uint64_t A, unsigned WordBytes);
bool refCond(Cond C, Type Ty, uint64_t A, uint64_t B, unsigned WordBytes);
uint64_t refCvt(Type From, Type To, uint64_t A, unsigned WordBytes);

/// Interesting operand values for \p Ty (boundary cases first), followed by
/// pseudo-random ones up to \p Total.
std::vector<uint64_t> operandValues(Type Ty, unsigned WordBytes,
                                    unsigned Total, uint64_t Seed);

/// One MIPS word per mips::Opc, built by its row-derived encoder with
/// fixed fields: rs = a0, rt = v0, rd = a1, shift 3, immediate 8 (j/jal:
/// the same bits as index), and zero in the fields the instruction does
/// not use; COP1 arithmetic has ft/fs/fd = f4/f2/f0 (ft = f0 for
/// one-source operations) in single precision (double for cvt.s, which
/// rejects single). Opc::Invalid yields the unassigned primary opcode
/// 0x3f.
uint32_t mipsRepresentativeWord(mips::Opc Op);

/// One SPARC word per sparc::Opc, built by its row-derived encoder with
/// fixed fields: rd = %o2 (or %f10), rs1 = %o0 (%f8),
/// rs2 = %o4 (%f12), register operand 2, and zero in the fields the
/// instruction does not use (rd of wr and fcmp, rs1 of one-source FP
/// operations). Calls and branches (condition 9) jump +2 words, sethi
/// sets 0x1234, and jmpl is "jmpl %o7+8, %o2", which returns to the
/// caller; none of these is a word llvm-mc prints as an alias (nop, mov,
/// cmp, retl, ...). Opc::Invalid yields an annulled bne.
uint32_t sparcRepresentativeWord(sparc::Opc Op);

/// One Alpha word per alpha::Opc, built by its row-derived encoder with
/// fixed fields: ra = a0 (f16), rb = a1 (f17), rc = a2
/// (f18), register operand B, fa = f31 for one-source FP operations,
/// memory displacement 8 and branch displacement +1 word. Jumps go
/// through ra ("jmp a0, (ra)"), so they return to the caller.
/// Opc::Invalid yields the unassigned opcode 0x01.
uint32_t alphaRepresentativeWord(alpha::Opc Op);

} // namespace test
} // namespace vcode

#endif // VCODE_TESTS_TESTUTIL_H
