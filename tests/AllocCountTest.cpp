//===- tests/AllocCountTest.cpp - Heap allocations per function -----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper's emitter needs no memory beyond the emitted instructions and
// "pointers to labels and unresolved jumps" (§3). Here the per-function
// tables are borrowed from a per-thread free list, so on a thread that has
// generated before, a function's whole lifecycle (VCode construction,
// lambda, emission, end, destruction) must not touch the heap. The one
// exception is telemetry's CodeMap entry, published by every end() when
// telemetry is compiled in.
//
// This is its own executable: it replaces the global operator new to
// count, which must not leak into the main suite. Under a sanitizer, whose
// runtime owns the allocator, it skips.
//
//===----------------------------------------------------------------------===//

#include "alpha/AlphaTarget.h"
#include "core/VCodeT.h"
#include "core/VRegLayer.h"
#include "mips/MipsTarget.h"
#include "sim/Memory.h"
#include "sparc/SparcTarget.h"
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <string>
#ifdef __x86_64__
#include "x64/X64Target.h"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VCODE_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VCODE_ALLOC_SANITIZED 1
#endif
#endif

using namespace vcode;

#ifndef VCODE_ALLOC_SANITIZED
namespace {

thread_local bool Counting = false;
thread_local unsigned long Allocs = 0;

void *countedAlloc(std::size_t N) {
  if (Counting)
    ++Allocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

/// Heap allocations \p Fn makes on this thread.
template <class FnT> unsigned long countAllocs(FnT Fn) {
  Allocs = 0;
  Counting = true;
  Fn();
  Counting = false;
  return Allocs;
}

} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#endif

namespace {

constexpr unsigned Branches = 300;

/// One function that touches every per-function table: ten parameters
/// (stack-passed ones are copied by the prologue), 300 forward branches
/// to fresh labels, a backward branch, wide integer and double constants
/// (constant pool), and a constructed call with stack arguments.
template <class VT> CodePtr emitMix(VT &V, CodeMem CM, SimAddr Callee) {
  Reg Arg[10];
  V.lambda("%i%i%i%i%i%i%i%i%i%i", Arg, NonLeafHint, CM);
  Reg X = V.getreg(Type::I, RegClass::Var);
  Reg T = V.getreg(Type::UL), Acc = V.getreg(Type::UL);
  Reg F = V.getreg(Type::D);
  V.binop(BinOp::Add, Type::I, X, Arg[0], Arg[9]);
  V.setInt(Type::UL, Acc, 0);
  Label Top = V.genLabel();
  V.label(Top);
  for (unsigned K = 0; K < Branches; ++K) {
    Label Skip = V.genLabel();
    V.branchImm(Cond::Eq, Type::I, X, K, Skip);
    V.setInt(Type::UL, T, 0x4000123400000000ull + K * 0x100010001ull);
    V.binop(BinOp::Add, Type::UL, Acc, Acc, T);
    V.setFp(Type::D, F, 0.5 * K + 0.25);
    V.label(Skip);
  }
  V.binopImm(BinOp::Sub, Type::I, X, X, 1);
  V.branchImm(Cond::Gt, Type::I, X, 1000, Top);
  V.callBegin("%i%i%i%i%i%i%i%i%i%i");
  for (unsigned K = 0; K < 10; ++K)
    V.callArg(X);
  V.callAddr(Callee);
  V.ret(Type::I, V.retvalReg(Type::I));
  return V.end();
}

/// A Tier-1 function: 40 vregs, labels, forward and backward branches.
template <class VT> CodePtr emitTier1(VT &V, CodeMem CM) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg N = L.fromArg(Type::I, Arg[0]);
  VReg Vs[40];
  for (unsigned K = 0; K < 40; ++K) {
    Vs[K] = L.alloc(Type::I);
    L.setInt(Type::I, Vs[K], K * 77 + 1);
  }
  Label Top = V.genLabel();
  L.label(Top);
  for (unsigned K = 1; K < 40; ++K) {
    Label Skip = V.genLabel();
    L.branchImm(Cond::Eq, Type::I, Vs[K], 0, Skip);
    L.binop(BinOp::Add, Type::I, Vs[0], Vs[0], Vs[K]);
    L.label(Skip);
  }
  L.binopImm(BinOp::Sub, Type::I, N, N, 1);
  L.branchImm(Cond::Gt, Type::I, N, 0, Top);
  L.ret(Type::I, Vs[0]);
  L.finish();
  return V.end();
}

TEST(AllocCountTest, FunctionLifecycleAllocatesNothingOnAWarmThread) {
#ifdef VCODE_ALLOC_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#else
#ifdef VCODE_TELEMETRY_ENABLED
  const unsigned long Allowed = 1; // CodeMap::publish's CodeEntry
  // The CodeEntry plus its copy of a name past std::string's inline
  // buffer; recycling entries (ROADMAP, the lifecycle item's entry pool)
  // would remove both.
  const unsigned long AllowedNamed = 2;
#else
  const unsigned long Allowed = 0, AllowedNamed = 0;
#endif
  // A 24-character name, as a code cache names its regions.
  const std::string LongName = "classifier|mips|00000001";
  sim::Memory Sim(16 << 20);
  mips::MipsTarget Mips;
  sparc::SparcTarget Sparc;
  alpha::AlphaTarget Alpha;
  Alpha.installDivHelpers(Sim.allocCode(16384));
  const CodeMem Callee = Sim.allocCode(64);
  const CodeMem MipsCM = Sim.allocCode(1 << 16),
                SparcCM = Sim.allocCode(1 << 16),
                AlphaCM = Sim.allocCode(1 << 16),
                Tier1CM = Sim.allocCode(1 << 14);
  CodeMem NamedCM = Sim.allocCode(1 << 16);
  NamedCM.Name = &LongName;
#ifdef __x86_64__
  sim::Memory Nat(sim::Memory::Native, 4 << 20, 256 << 10);
  x64::X64Target X64;
  const CodeMem X64CM = Nat.allocCode(1 << 16);
#endif

  // Each function as its client writes it: a fresh VCodeT, destroyed
  // when the function is done.
  auto Round = [&](bool Count) {
    auto Check = [&](const char *What, unsigned long Max, auto Fn) {
      if (!Count) {
        Fn();
        return;
      }
      unsigned long N = countAllocs(Fn);
      EXPECT_LE(N, Max) << What;
    };
    Check("mips", Allowed, [&] {
      VCodeT<mips::MipsTarget> V(Mips);
      EXPECT_TRUE(emitMix(V, MipsCM, Callee.Guest).isValid());
    });
    Check("sparc", Allowed, [&] {
      VCodeT<sparc::SparcTarget> V(Sparc);
      EXPECT_TRUE(emitMix(V, SparcCM, Callee.Guest).isValid());
    });
    Check("alpha", Allowed, [&] {
      VCodeT<alpha::AlphaTarget> V(Alpha);
      EXPECT_TRUE(emitMix(V, AlphaCM, Callee.Guest).isValid());
    });
#ifdef __x86_64__
    Check("x64", Allowed, [&] {
      VCodeT<x64::X64Target> V(X64);
      EXPECT_TRUE(emitMix(V, X64CM, Callee.Guest).isValid());
    });
#endif
    Check("mips, named", AllowedNamed, [&] {
      VCodeT<mips::MipsTarget> V(Mips);
      EXPECT_TRUE(emitMix(V, NamedCM, Callee.Guest).isValid());
    });
    Check("mips Tier-1", Allowed, [&] {
      VCodeT<mips::MipsTarget> V(Mips);
      EXPECT_TRUE(emitTier1(V, Tier1CM).isValid());
    });
  };
  Round(false); // warm-up: the thread's tables grow to size
  Round(true);
#endif
}

} // namespace
