//===- tests/ConcurrencyTest.cpp - Concurrent code-generation tests --------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The concurrency contract (README "Threading model"): independent
// VCode/VCodeT instances may emit in parallel — from private arenas or
// carving regions out of one shared arena — a Target's extension registry
// may be extended and read from any thread, and the CodeCache turns
// install-time compilation into a shared service with exactly-once
// generation per key and refcount-safe reclamation. Everything here is
// also a ThreadSanitizer workload: CI runs the suite under -DVCODE_TSAN=ON
// (satellite d), so a data race in the emission core fails the build even
// when the interleavings happen to produce correct bytes.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/CodeCache.h"
#include "dpf/Engines.h"
#include <atomic>
#include <gtest/gtest.h>
#include <thread>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

constexpr unsigned NumThreads = 8;

/// Emits one small function of shape `f(a) = |((K + a) ^ M)| * 3` where K
/// and M depend on \p Variant — enough to cover constants outside the
/// immediate range, a branch with a fixup, and the frame code.
CodePtr emitVariant(VCode &V, unsigned Variant, CodeMem CM) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  Reg A = Arg[0];
  Reg B = V.getreg(Type::I);
  V.setInt(Type::I, B, 0x1000 + Variant * 7);
  V.binop(BinOp::Add, Type::I, B, B, A);
  V.binopImm(BinOp::Xor, Type::I, B, B,
             int64_t(Variant) * 0x1111 + 0x71234); // exceeds simm13/lit8
  Label L = V.genLabel();
  V.branchImm(Cond::Ge, Type::I, B, 0, L);
  V.unop(UnOp::Neg, Type::I, B, B);
  V.label(L);
  V.binopImm(BinOp::Mul, Type::I, B, B, 3);
  V.ret(Type::I, B);
  return V.end();
}

/// Host-side mirror of emitVariant's function.
int32_t expectVariant(unsigned Variant, int32_t A) {
  uint32_t B = uint32_t(0x1000 + Variant * 7);
  B += uint32_t(A);
  B ^= uint32_t(Variant) * 0x1111u + 0x71234u;
  if (int32_t(B) < 0)
    B = uint32_t(-int32_t(B));
  B *= 3u;
  return int32_t(B);
}

class ConcurrencyTest : public ::testing::TestWithParam<std::string> {};

// N threads, each with a fully independent VCode/Target/arena, generating
// the same function sequence must produce code byte-identical to a serial
// run: re-entrancy means no emission state leaks across instances, and
// no hidden global makes output depend on scheduling.
TEST_P(ConcurrencyTest, ParallelEmissionMatchesSerialByteForByte) {
  constexpr unsigned Variants = 12;

  // Serial reference: one substrate, all variants in order. Every substrate's
  // arena replays the same allocation sequence, so guest addresses (and
  // absolute fixups) match by construction.
  std::vector<std::vector<uint8_t>> Want(Variants);
  {
    Substrate B = makeSubstrate(GetParam());
    for (unsigned Vn = 0; Vn < Variants; ++Vn) {
      CodeMem CM = B.Mem->allocCode(4096);
      VCode V(*B.Tgt);
      CodePtr P = emitVariant(V, Vn, CM);
      ASSERT_TRUE(P.isValid());
      const uint8_t *Bytes = B.Mem->hostPtr(CM.Guest, P.SizeBytes);
      Want[Vn].assign(Bytes, Bytes + P.SizeBytes);
    }
  }

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      Substrate B = makeSubstrate(GetParam());
      for (unsigned Vn = 0; Vn < Variants; ++Vn) {
        CodeMem CM = B.Mem->allocCode(4096);
        VCode V(*B.Tgt);
        CodePtr P = emitVariant(V, Vn, CM);
        if (!P.isValid() || P.SizeBytes != Want[Vn].size()) {
          Mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const uint8_t *Bytes = B.Mem->hostPtr(CM.Guest, P.SizeBytes);
        if (!std::equal(Want[Vn].begin(), Want[Vn].end(), Bytes))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
        // And the code must actually run: generation is not just byte
        // production, the entry/frame metadata must be coherent too.
        int32_t Got =
            B.Cpu->call(P.Entry, {TypedValue::fromInt(int32_t(Vn) * 37 - 5)},
                        Type::I)
                .asInt32();
        if (Got != expectVariant(Vn, int32_t(Vn) * 37 - 5))
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

// N threads sharing one Target and one arena: each thread carves code
// regions out of the shared bump allocator, emits through its own VCode,
// and executes on its own Cpu with a private stack. This is the intended
// concurrent deployment shape (one backend, one code arena, many
// generator threads).
TEST_P(ConcurrencyTest, SharedTargetSharedArenaGenerateAndRun) {
  Substrate B = makeSubstrate(GetParam()); // Tgt + Mem shared; B.Cpu unused
  sim::Memory &Mem = *B.Mem;
  Target &Tgt = *B.Tgt;

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      std::unique_ptr<sim::Cpu> Cpu = B.makeCpu();
      Cpu->setStackTop(Mem.allocStack());
      for (unsigned Round = 0; Round < 6; ++Round) {
        unsigned Vn = T * 16 + Round;
        CodeMem CM = Mem.allocCode(4096);
        VCode V(Tgt);
        CodePtr P = emitVariant(V, Vn, CM);
        if (!P.isValid()) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (int32_t A : {0, 1, -77, 0x40000000}) {
          int32_t Got =
              Cpu->call(P.Entry, {TypedValue::fromInt(A)}, Type::I).asInt32();
          if (Got != expectVariant(Vn, A))
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0u);
}

// Concurrent registration, lookup, and emission on one Target's extension
// registry (satellite a): every thread defines its own instructions while
// emitting through freshly interned ids and probing names other threads
// are racing to define. An ExtId returned by defineInstruction must be
// usable immediately on the defining thread with no extra ordering.
TEST_P(ConcurrencyTest, ExtensionRegistryConcurrentDefineFindEmit) {
  Substrate B = makeSubstrate(GetParam());
  Target &Tgt = *B.Tgt;
  constexpr unsigned PerThread = 32;

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      // Private arena and CPU: only the registry is shared.
      Substrate Own = makeSubstrate(GetParam());
      sim::Memory &Mem = *Own.Mem;
      std::unique_ptr<sim::Cpu> &Cpu = Own.Cpu;
      for (unsigned I = 0; I < PerThread; ++I) {
        int32_t K = int32_t(T * 1000 + I);
        std::string Name =
            "cc_ext_t" + std::to_string(T) + "_" + std::to_string(I);
        ExtId Id = Tgt.defineInstruction(
            Name, [K](VCode &V, const Operand *Ops, unsigned NumOps) {
              if (NumOps == 1 && Ops[0].Kind == Operand::RegOp)
                V.setInt(Type::I, Ops[0].R, uint64_t(uint32_t(K)));
            });
        if (!Id.isValid()) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Probe names a sibling thread may be defining right now: an
        // id, once visible, must resolve to a stable pinned name.
        std::string Other = "cc_ext_t" + std::to_string((T + 1) % NumThreads) +
                            "_" + std::to_string(I);
        ExtId OtherId = Tgt.findInstruction(Other);
        if (OtherId.isValid() && Other != Tgt.instructionName(OtherId))
          Failures.fetch_add(1, std::memory_order_relaxed);

        // Emit through the fresh id and execute.
        CodeMem CM = Mem.allocCode(2048);
        VCode V(Tgt);
        Reg Arg[1];
        V.lambda("%i", Arg, LeafHint, CM);
        Reg R = V.getreg(Type::I);
        V.ext(Id, {opReg(R)});
        V.ret(Type::I, R);
        CodePtr P = V.end();
        if (!P.isValid() ||
            Cpu->call(P.Entry, {TypedValue::fromInt(0)}, Type::I).asInt32() !=
                K)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0u);
  // Everything every thread defined is now visible everywhere.
  for (unsigned T = 0; T < NumThreads; ++T)
    for (unsigned I = 0; I < PerThread; ++I)
      EXPECT_TRUE(Tgt.hasInstruction("cc_ext_t" + std::to_string(T) + "_" +
                                     std::to_string(I)));
}

INSTANTIATE_TEST_SUITE_P(AllTargets, ConcurrencyTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

// --- CodeCache ---------------------------------------------------------------

/// Distinct filter sets (distinct canonical keys): set s holds 2+s TCP/IP
/// port filters, so every set accepts dst port 1025 as filter id 1.
std::vector<std::vector<dpf::Filter>> makeFilterSets(unsigned Sets) {
  std::vector<std::vector<dpf::Filter>> FS;
  for (unsigned S = 0; S < Sets; ++S)
    FS.push_back(dpf::makeTcpIpFilters(2 + S));
  return FS;
}

// The tentpole's exactly-once guarantee, counter-verified: N threads
// hammering installShared over 8 distinct filter sets must trigger exactly
// one generation per distinct key — every other install is a hit (served
// from the cache or block-and-reuse behind the generating thread) — and
// every install, hit or miss, yields a classifier that classifies
// correctly.
TEST(ConcurrencyCacheTest, ExactlyOnceGenerationPerKey) {
  Substrate B = makeSubstrate("mips");
  sim::Memory &Mem = *B.Mem;
  CodeCache Cache(Mem);

  constexpr unsigned Sets = 8, Iters = 24;
  auto FilterSets = makeFilterSets(Sets);
  SimAddr Pkt = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(Mem, Pkt, 1025);

  std::atomic<unsigned> Generated{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      dpf::DpfEngine Engine(*B.Tgt, Mem);
      std::unique_ptr<sim::Cpu> Cpu = B.makeCpu();
      Cpu->setStackTop(Mem.allocStack());
      for (unsigned It = 0; It < Iters; ++It) {
        bool Served =
            Engine.installShared(Cache, FilterSets[(T + It) % Sets]);
        if (!Served)
          Generated.fetch_add(1, std::memory_order_relaxed);
        if (Engine.entry() == 0 ||
            Engine.classify(*Cpu, Pkt) != 1)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Generated.load(), Sets);
  CodeCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Generations, Sets);
  EXPECT_EQ(S.Misses, Sets);
  EXPECT_EQ(S.Failures, 0u);
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Cache.size(), Sets);
}

// Eviction versus refcounts: with a deliberately tiny cache, installing
// more sets than fit evicts the oldest entries — but an engine pinning an
// evicted classifier through its Handle keeps executing valid code, and
// the region only returns to the arena (Memory::regionsReused) once the
// last pin drops.
TEST(ConcurrencyCacheTest, EvictionKeepsPinnedCodeAliveThenRecyclesRegion) {
  Substrate B = makeSubstrate("mips");
  sim::Memory &Mem = *B.Mem;
  CodeCache Cache(Mem, CodeCache::Options(/*Shards=*/1,
                                          /*MaxEntriesPerShard=*/2));

  auto FilterSets = makeFilterSets(6);
  SimAddr Pkt = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(Mem, Pkt, 1025);

  dpf::DpfEngine Pinned(*B.Tgt, Mem);
  ASSERT_FALSE(Pinned.installShared(Cache, FilterSets[0])); // generates
  ASSERT_EQ(Pinned.classify(*B.Cpu, Pkt), 1);

  // Blow the pinned entry out of the table.
  dpf::DpfEngine Other(*B.Tgt, Mem);
  for (unsigned S = 1; S < 5; ++S)
    Other.installShared(Cache, FilterSets[S]);
  CodeCache::Stats S1 = Cache.stats();
  uint64_t Reused1 = Mem.regionsReused();
  EXPECT_GT(S1.Evictions, 0u);
  EXPECT_LE(Cache.size(), 2u);

  // The evicted classifier is gone from the table (a fresh install of
  // set 0 would regenerate) but Pinned's handle keeps it executable.
  EXPECT_EQ(Pinned.classify(*B.Cpu, Pkt), 1);

  // Dropping the pin (by reinstalling a different set) releases the
  // region to the arena; the next generation recycles it instead of
  // growing the arena.
  Pinned.installShared(Cache, FilterSets[1]);
  uint64_t GensBefore = Cache.stats().Generations;
  Other.installShared(Cache, FilterSets[5]); // distinct: must generate
  CodeCache::Stats S2 = Cache.stats();
  EXPECT_EQ(S2.Generations, GensBefore + 1);
  EXPECT_GT(Mem.regionsReused(), Reused1);
  EXPECT_EQ(Other.classify(*B.Cpu, Pkt), 1);
}

// A failing generator must not poison the key: the error is reported to
// the failing caller, the key is erased, and a later install succeeds.
TEST(ConcurrencyCacheTest, FailedGenerationIsRetryable) {
  Substrate B = makeSubstrate("mips");
  CodeCache Cache(*B.Mem);

  CodeCache::Handle H =
      Cache.lookupOrGenerate("k", [&](CodeCache::RegionAlloc &) {
        GenerateResult R;
        R.Err.Kind = CgErrKind::BufferOverflow;
        return R;
      });
  EXPECT_FALSE(H.valid());
  EXPECT_EQ(H.error().Kind, CgErrKind::BufferOverflow);
  EXPECT_EQ(Cache.stats().Failures, 1u);
  EXPECT_EQ(Cache.size(), 0u);

  // Retry generates for real this time.
  bool Ran = false;
  CodeCache::Handle H2 =
      Cache.lookupOrGenerate("k", [&](CodeCache::RegionAlloc &Alloc) {
        Ran = true;
        CodeMem CM = Alloc(64);
        GenerateResult R;
        R.Code = CodePtr{CM.Guest, 64};
        R.RegionBytes = CM.Size;
        return R;
      });
  EXPECT_TRUE(Ran);
  EXPECT_TRUE(H2.valid());
}

} // namespace
