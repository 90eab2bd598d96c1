//===- tests/LifecycleTest.cpp - Per-function lifecycle tests -------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// A VCode's per-function tables (labels, fixups, constant pool, argument
// locations, the Tier-1 layer's recording) are recycled through a small
// per-thread free list, so what one function leaves behind must never
// reach the next one's bytes:
//
//  - byte identity: a fixed Tier-0 corpus (random streams with forward
//    branches, nested loops closed by backward branches and jumps, a
//    function with 80 distinct wide integer and 70 double constants,
//    each used twice, so the constant pool's index grows several times
//    on Alpha, and a non-leaf caller passing
//    stack arguments to a callee that copies them in its prologue) emits
//    the same bytes as the recorded hashes on every simulated target; the
//    host substrates check results only (their code embeds native arena
//    addresses);
//
//  - no carried state: the same probe functions give the same bytes after
//    a large warm-up function, beside a second open VCode, after a VCode
//    was destroyed on another thread, after a poisoned function (Tier-0
//    and Tier-1) and after Tier-0 layer functions, as on a fresh thread.
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"
#include "TestUtil.h"
#include "core/VRegLayer.h"
#include "support/Rng.h"
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <thread>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

uint64_t hashCode(CodeMem CM, CodePtr P, uint64_t Prev = 0) {
  return fnv1a(CM.Host, P.SizeBytes, Prev);
}

/// Nested counting loops closed by backward jumps, then a countdown
/// closed by a backward branch; forward branches leave each loop.
/// Returns sum(i*j, j<i<n) + 300.
CodePtr buildLoops(VCode &V, CodeMem CM) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  Reg N = Arg[0];
  Reg S = V.getreg(Type::I), I = V.getreg(Type::I), J = V.getreg(Type::I);
  Reg T = V.getreg(Type::I);
  V.seti(S, 0);
  V.seti(I, 0);
  Label Outer = V.genLabel(), Inner = V.genLabel(), Next = V.genLabel(),
        Done = V.genLabel(), Down = V.genLabel();
  V.label(Outer);
  V.branch(Cond::Ge, Type::I, I, N, Done);
  V.seti(J, 0);
  V.label(Inner);
  V.branch(Cond::Ge, Type::I, J, I, Next);
  V.binop(BinOp::Mul, Type::I, T, I, J);
  V.binop(BinOp::Add, Type::I, S, S, T);
  V.binopImm(BinOp::Add, Type::I, J, J, 1);
  V.jmp(Inner);
  V.label(Next);
  V.binopImm(BinOp::Add, Type::I, I, I, 1);
  V.jmp(Outer);
  V.label(Done);
  V.seti(T, 3);
  V.label(Down);
  V.binopImm(BinOp::Add, Type::I, S, S, 100);
  V.binopImm(BinOp::Sub, Type::I, T, T, 1);
  V.branchImm(Cond::Gt, Type::I, T, 0, Down);
  V.ret(Type::I, S);
  return V.end();
}

constexpr unsigned PoolConsts = 80; ///< Alpha pools these and the doubles
constexpr unsigned PoolDoubles = 70;

/// Wide integer and double constants, each used twice (second pass in
/// reverse), summed; the integer sum is returned and the double sum
/// stored to \p Cell. \p Midway runs between the passes.
CodePtr buildConstPool(VCode &V, CodeMem CM, SimAddr Cell,
                       const std::function<void()> &Midway = {}) {
  V.lambda("%v", nullptr, LeafHint, CM);
  Reg Acc = V.getreg(Type::UL), Tmp = V.getreg(Type::UL);
  Reg FAcc = V.getreg(Type::D), FTmp = V.getreg(Type::D);
  Reg Ptr = V.getreg(Type::P);
  V.setInt(Type::UL, Acc, 0);
  V.setFp(Type::D, FAcc, 0.0);
  Rng R(0xc0457ull);
  uint64_t Ints[PoolConsts];
  double Dbls[PoolDoubles];
  for (uint64_t &C : Ints)
    C = R.next() | (uint64_t(1) << 62); // never a short immediate
  for (unsigned K = 0; K < PoolDoubles; ++K)
    Dbls[K] = double(K) * 1.25 + 0.1;
  auto Pass = [&](bool Reverse) {
    for (unsigned I = 0; I < PoolConsts; ++I) {
      unsigned K = Reverse ? PoolConsts - 1 - I : I;
      V.setInt(Type::UL, Tmp, Ints[K]);
      V.binop(BinOp::Add, Type::UL, Acc, Acc, Tmp);
      if (K < PoolDoubles) {
        V.setFp(Type::D, FTmp, Dbls[K]);
        V.binop(BinOp::Add, Type::D, FAcc, FAcc, FTmp);
      }
    }
  };
  Pass(false);
  if (Midway)
    Midway();
  Pass(true);
  V.setp(Ptr, Cell);
  V.storeImm(Type::D, FAcc, Ptr, 0);
  V.ret(Type::UL, Acc);
  return V.end();
}

/// The results buildConstPool's function must compute on a target with
/// \p WB-byte words.
uint64_t constPoolIntSum(unsigned WB) {
  Rng R(0xc0457ull);
  uint64_t Sum = 0;
  for (unsigned I = 0; I < PoolConsts; ++I)
    Sum += 2 * (R.next() | (uint64_t(1) << 62));
  return WB == 4 ? Sum & 0xffffffffull : Sum;
}
double constPoolDoubleSum() {
  double Dbls[PoolDoubles];
  for (unsigned K = 0; K < PoolDoubles; ++K)
    Dbls[K] = double(K) * 1.25 + 0.1;
  double S = 0.0;
  for (unsigned I = 0; I < PoolConsts; ++I)
    if (I < PoolDoubles)
      S += Dbls[I];
  for (unsigned I = 0; I < PoolConsts; ++I)
    if (PoolConsts - 1 - I < PoolDoubles)
      S += Dbls[PoolConsts - 1 - I];
  return S;
}

constexpr unsigned CallArgs = 10; ///< past every target's argument registers

/// f(a0..a9) = sum(a_k * (k+1)): several arguments arrive on the stack and
/// are copied into registers by the prologue.
CodePtr buildManyArgs(VCode &V, CodeMem CM) {
  Reg Arg[CallArgs];
  V.lambda("%i%i%i%i%i%i%i%i%i%i", Arg, LeafHint, CM);
  Reg S = V.getreg(Type::I), T = V.getreg(Type::I);
  V.seti(S, 0);
  for (unsigned K = 0; K < CallArgs; ++K) {
    V.binopImm(BinOp::Mul, Type::I, T, Arg[K], K + 1);
    V.binop(BinOp::Add, Type::I, S, S, T);
  }
  V.ret(Type::I, S);
  return V.end();
}

/// caller(x) = callee(x, x+1, ..., x+9) + 1, through a constructed call
/// with stack-passed arguments.
CodePtr buildCaller(VCode &V, CodeMem CM, SimAddr Callee) {
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, CM);
  // Callee-saved registers: neither is an argument register that an
  // earlier callArg could overwrite.
  Reg X = V.getreg(Type::I, RegClass::Var);
  Reg T = V.getreg(Type::I, RegClass::Var);
  V.unop(UnOp::Mov, Type::I, X, Arg[0]);
  V.callBegin("%i%i%i%i%i%i%i%i%i%i");
  for (unsigned K = 0; K < CallArgs; ++K) {
    V.binopImm(BinOp::Add, Type::I, T, X, K);
    V.callArg(T);
  }
  V.callAddr(Callee);
  Reg Out = V.getreg(Type::I);
  V.binopImm(BinOp::Add, Type::I, Out, V.retvalReg(Type::I), 1);
  V.ret(Type::I, Out);
  return V.end();
}

int32_t callerResult(int32_t X) {
  int32_t S = 0;
  for (unsigned K = 0; K < CallArgs; ++K)
    S += (X + int32_t(K)) * int32_t(K + 1);
  return S + 1;
}

/// A Tier-1 function under register pressure with a loop and a wide
/// constant: 20 simultaneously live vregs summed n times. Returns
/// n * sum(k*1000+7) + 0x123456789.
CodePtr buildTier1(VCode &V, CodeMem CM) {
  constexpr unsigned NV = 20;
  Reg Arg[1];
  V.lambda("%l", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  VReg N = L.fromArg(Type::L, Arg[0]);
  VReg Vs[NV];
  for (unsigned K = 0; K < NV; ++K) {
    Vs[K] = L.alloc(Type::L);
    L.setInt(Type::L, Vs[K], K * 1000 + 7);
  }
  VReg Acc = L.alloc(Type::L);
  L.setInt(Type::L, Acc, 0x123456789ull);
  Label Top = V.genLabel(), Done = V.genLabel();
  L.branchImm(Cond::Le, Type::L, N, 0, Done);
  L.label(Top);
  for (unsigned K = 0; K < NV; ++K)
    L.binop(BinOp::Add, Type::L, Acc, Acc, Vs[K]);
  L.binopImm(BinOp::Sub, Type::L, N, N, 1);
  L.branchImm(Cond::Gt, Type::L, N, 0, Top);
  L.label(Done);
  L.ret(Type::L, Acc);
  L.finish();
  return V.end();
}

/// A Tier-0 layer function (vregs staged through stack locals).
CodePtr buildTier0Layer(VCode &V, CodeMem CM) {
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, CM);
  VRegLayer L(V, Tier::Tier0);
  VReg A = L.fromArg(Type::I, Arg[0]);
  VReg B = L.alloc(Type::I);
  L.setInt(Type::I, B, 41);
  L.binop(BinOp::Add, Type::I, B, B, A);
  L.ret(Type::I, B);
  L.finish();
  return V.end();
}

/// Data cells and code regions shared by every emission of a probe, so
/// the same function emitted twice lands at the same addresses.
struct Regions {
  SimAddr Scratch = 0, Out = 0, Cell = 0;
  CodeMem Stream, Loops, Pool, Callee, Caller, Tier1;
};

Regions makeRegions(Substrate &B) {
  Regions R;
  R.Scratch = B.Mem->alloc(8 * StreamScratchSlots, 8);
  R.Out = B.Mem->alloc(8 * StreamSlots, 8);
  R.Cell = B.Mem->alloc(8, 8);
  R.Stream = B.Mem->allocCode(1 << 14);
  R.Loops = B.Mem->allocCode(1 << 12);
  R.Pool = B.Mem->allocCode(1 << 14);
  R.Callee = B.Mem->allocCode(1 << 12);
  R.Caller = B.Mem->allocCode(1 << 12);
  R.Tier1 = B.Mem->allocCode(1 << 13);
  return R;
}

/// One seeded Tier-0 stream of the corpus: type cycles through I, U, L, UL.
std::vector<StreamInsn> corpusStream(unsigned Index, unsigned WB, Type &Ty) {
  const Type Types[] = {Type::I, Type::U, Type::L, Type::UL};
  Ty = Types[Index % 4];
  Rng R(0x7e40ull + Index * 104729);
  return makeStream(R, Ty, typeBits(Ty, WB));
}

/// Runs stream \p Index (emitted at \p P) and checks slots and scratch
/// cells against host evaluation.
void checkStream(Substrate &B, const Regions &Rg, unsigned Index,
                 CodePtr P) {
  const unsigned WB = B.Tgt->info().WordBytes;
  Type Ty;
  std::vector<StreamInsn> Prog = corpusStream(Index, WB, Ty);
  Rng R(0x5107ull + Index);
  std::vector<uint64_t> Init(StreamSlots), Slot(StreamSlots);
  std::vector<TypedValue> Args;
  for (unsigned I = 0; I < StreamSlots; ++I) {
    Init[I] = canonicalize(Type::UL, R.next(), WB);
    Slot[I] = canonicalize(Ty, Init[I], WB);
    Args.push_back(TypedValue::fromUInt(Init[I], Type::UL));
  }
  std::vector<uint64_t> Cells(StreamScratchSlots, 0);
  for (unsigned I = 0; I < StreamScratchSlots; ++I)
    B.Mem->write<uint64_t>(Rg.Scratch + 8 * I, 0);
  B.Cpu->call(P.Entry, Args, Type::V);
  evalHost(Prog, Ty, Slot, Cells, WB);
  for (unsigned I = 0; I < StreamSlots; ++I) {
    uint64_t Got = B.Mem->read<uint64_t>(Rg.Out + 8 * I);
    if (WB == 4)
      Got &= 0xffffffffu;
    uint64_t Want = canonicalize(Type::UL, Slot[I], WB);
    if (Ty == Type::U && WB == 8)
      Want &= 0xffffffffu; // cvu2ul zero-extends
    EXPECT_EQ(Got, Want) << "stream " << Index << " slot " << I;
  }
  const unsigned Size = typeSize(Ty, WB);
  for (unsigned I = 0; I < StreamScratchSlots; ++I) {
    uint64_t Got = Size == 8 ? B.Mem->read<uint64_t>(Rg.Scratch + 8 * I)
                             : B.Mem->read<uint32_t>(Rg.Scratch + 8 * I);
    uint64_t Want = Size == 8 ? Cells[I] : uint32_t(Cells[I]);
    EXPECT_EQ(Got, Want) << "stream " << Index << " scratch cell " << I;
  }
}

constexpr unsigned CorpusStreams = 24;

struct Tier0Hashes {
  uint64_t Streams = 0, Loops = 0, Pool = 0, Calls = 0;
};

/// Generates the Tier-0 corpus on \p B with a fresh VCode per function,
/// checks every function's results, and returns the per-part byte
/// hashes. Seeds are fixed (not VCODE_TEST_SEED-derived) so the hashes
/// are stable.
Tier0Hashes emitTier0Corpus(Substrate &B) {
  Tier0Hashes H;
  Regions Rg = makeRegions(B);
  const unsigned WB = B.Tgt->info().WordBytes;
  for (unsigned Index = 0; Index < CorpusStreams; ++Index) {
    SCOPED_TRACE("stream " + std::to_string(Index));
    Type Ty;
    std::vector<StreamInsn> Prog = corpusStream(Index, WB, Ty);
    CodeMem CM = B.Mem->allocCode(1 << 14);
    VCode V(*B.Tgt);
    CodePtr P = emitStream(V, Prog, Ty, CM, Rg.Scratch, Rg.Out);
    EXPECT_TRUE(P.isValid());
    if (!P.isValid())
      return H;
    H.Streams = hashCode(CM, P, H.Streams);
    checkStream(B, Rg, Index, P);
  }
  {
    VCode V(*B.Tgt);
    CodePtr P = buildLoops(V, Rg.Loops);
    H.Loops = hashCode(Rg.Loops, P);
    EXPECT_EQ(B.Cpu->call(P.Entry, {TypedValue::fromInt(6)}).asInt32(),
              85 + 300);
    EXPECT_EQ(B.Cpu->call(P.Entry, {TypedValue::fromInt(0)}).asInt32(), 300);
  }
  {
    VCode V(*B.Tgt);
    CodePtr P = buildConstPool(V, Rg.Pool, Rg.Cell);
    H.Pool = hashCode(Rg.Pool, P);
    uint64_t Got = B.Cpu->call(P.Entry, {}, Type::UL).asUInt64();
    EXPECT_EQ(WB == 4 ? Got & 0xffffffffull : Got, constPoolIntSum(WB));
    EXPECT_EQ(B.Mem->read<double>(Rg.Cell), constPoolDoubleSum());
  }
  {
    VCode Ve(*B.Tgt);
    CodePtr Ce = buildManyArgs(Ve, Rg.Callee);
    VCode Vr(*B.Tgt);
    CodePtr Cr = buildCaller(Vr, Rg.Caller, Ce.Entry);
    H.Calls = hashCode(Rg.Caller, Cr, hashCode(Rg.Callee, Ce));
    EXPECT_EQ(B.Cpu->call(Cr.Entry, {TypedValue::fromInt(5)}).asInt32(),
              callerResult(5));
  }
  return H;
}

class LifecycleTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  Substrate B;
};

// The Tier-0 output bytes are pinned: recycling per-function tables or
// re-indexing the constant pool must not move a single byte on any
// simulated target. The constants were recorded from the implementation
// that allocated fresh tables per VCode and indexed the pool with a tree.
TEST_P(LifecycleTest, Tier0CorpusBytesMatchRecordedHashes) {
  struct Want {
    const char *Target;
    Tier0Hashes H;
  };
  const Want Table[] = {
      {"mips",
       {0x3aa2168babc1aa43ull, 0x5f885facaba2f4c2ull, 0x13c83a1a346bdb42ull,
        0x125b870f09f36306ull}},
      {"sparc",
       {0xc8db7867efa02b33ull, 0x973abf10dbd73325ull, 0x8c22b8a5d301cba5ull,
        0x92c88f77554d132cull}},
      {"alpha",
       {0xdca6f952bd5dd880ull, 0x5842cbf16e9dd91aull, 0xbc47e7f7e49b6ea5ull,
        0x8f75fd3536e12007ull}},
  };
  Tier0Hashes Got = emitTier0Corpus(B);
  const Want *W = nullptr;
  for (const Want &X : Table)
    if (GetParam() == X.Target)
      W = &X;
  ASSERT_NE(W, nullptr) << "no recorded hashes for " << GetParam();
  SCOPED_TRACE(::testing::Message()
               << std::hex << "got {0x" << Got.Streams << ", 0x" << Got.Loops
               << ", 0x" << Got.Pool << ", 0x" << Got.Calls << "}");
  EXPECT_EQ(Got.Streams, W->H.Streams);
  EXPECT_EQ(Got.Loops, W->H.Loops);
  EXPECT_EQ(Got.Pool, W->H.Pool);
  EXPECT_EQ(Got.Calls, W->H.Calls);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, LifecycleTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

#ifdef __x86_64__
// The same corpus on the host substrates: results only.
class LifecycleHostTest : public LifecycleTest {};

TEST_P(LifecycleHostTest, Tier0CorpusComputesCorrectly) { emitTier0Corpus(B); }

INSTANTIATE_TEST_SUITE_P(HostSubstrates, LifecycleHostTest,
                         ::testing::Values("host", "dbt"),
                         [](const auto &Info) { return Info.param; });
#endif

// --- Recycled tables carry no state -----------------------------------------

/// Byte hashes of the probe functions, each emitted by a fresh VCode into
/// its fixed region of \p Rg.
struct Probe {
  uint64_t Stream = 0, Loops = 0, Pool = 0, Calls = 0, Tier1 = 0;
  bool operator==(const Probe &O) const {
    return Stream == O.Stream && Loops == O.Loops && Pool == O.Pool &&
           Calls == O.Calls && Tier1 == O.Tier1;
  }
};

std::ostream &operator<<(std::ostream &OS, const Probe &P) {
  return OS << std::hex << "{0x" << P.Stream << ", 0x" << P.Loops << ", 0x"
            << P.Pool << ", 0x" << P.Calls << ", 0x" << P.Tier1 << "}"
            << std::dec;
}

Probe emitProbe(Substrate &B, const Regions &Rg) {
  Probe H;
  const unsigned WB = B.Tgt->info().WordBytes;
  {
    Type Ty;
    std::vector<StreamInsn> Prog = corpusStream(3, WB, Ty);
    VCode V(*B.Tgt);
    CodePtr P = emitStream(V, Prog, Ty, Rg.Stream, Rg.Scratch, Rg.Out);
    H.Stream = hashCode(Rg.Stream, P);
  }
  {
    VCode V(*B.Tgt);
    H.Loops = hashCode(Rg.Loops, buildLoops(V, Rg.Loops));
  }
  {
    VCode V(*B.Tgt);
    H.Pool = hashCode(Rg.Pool, buildConstPool(V, Rg.Pool, Rg.Cell));
  }
  {
    VCode Ve(*B.Tgt);
    CodePtr Ce = buildManyArgs(Ve, Rg.Callee);
    VCode Vr(*B.Tgt);
    CodePtr Cr = buildCaller(Vr, Rg.Caller, Ce.Entry);
    H.Calls = hashCode(Rg.Caller, Cr, hashCode(Rg.Callee, Ce));
  }
  {
    VCode V(*B.Tgt);
    H.Tier1 = hashCode(Rg.Tier1, buildTier1(V, Rg.Tier1));
  }
  return H;
}

/// The probe as a thread that never generated before emits it.
Probe probeOnFreshThread(Substrate &B, const Regions &Rg) {
  Probe H;
  std::thread([&] { H = emitProbe(B, Rg); }).join();
  return H;
}

/// A long Tier-1 recording: 300 vregs holding wide constants, a branch
/// per add, and a loop around all of it.
CodePtr buildWideTier1(VCode &V, CodeMem CM) {
  V.lambda("%l", nullptr, LeafHint, CM);
  VRegLayer L(V, Tier::Tier1);
  std::vector<VReg> Vs;
  for (unsigned K = 0; K < 300; ++K) {
    Vs.push_back(L.alloc(Type::L));
    L.setInt(Type::L, Vs.back(), 0x1234567800000000ull + K * 0x10001);
  }
  Label Top = V.genLabel();
  L.label(Top);
  for (unsigned K = 1; K < Vs.size(); ++K) {
    L.binop(BinOp::Add, Type::L, Vs[0], Vs[0], Vs[K]);
    Label Skip = V.genLabel();
    L.branchImm(Cond::Eq, Type::L, Vs[K], 0, Skip);
    L.label(Skip);
  }
  L.branchImm(Cond::Eq, Type::L, Vs[0], 1, Top);
  L.ret(Type::L, Vs[0]);
  L.finish();
  return V.end();
}

/// Large functions: a long Tier-0 stream with many labels and fixups,
/// then a long Tier-1 recording.
void emitWarmup(Substrate &B, const Regions &Rg) {
  const unsigned WB = B.Tgt->info().WordBytes;
  Rng R(0x3a7ull);
  std::vector<StreamInsn> Prog;
  for (unsigned K = 0; K < 40; ++K) {
    std::vector<StreamInsn> Part =
        makeStream(R, Type::UL, typeBits(Type::UL, WB));
    Prog.insert(Prog.end(), Part.begin(), Part.end());
  }
  {
    VCode V(*B.Tgt);
    EXPECT_TRUE(emitStream(V, Prog, Type::UL, B.Mem->allocCode(1 << 17),
                           Rg.Scratch, Rg.Out)
                    .isValid());
  }
  VCode V(*B.Tgt);
  EXPECT_TRUE(buildWideTier1(V, B.Mem->allocCode(1 << 17)).isValid());
}

class RecycleTest : public LifecycleTest {};

TEST_P(RecycleTest, RecycledTablesCarryNoState) {
  Regions Rg = makeRegions(B);
  const Probe Ref = probeOnFreshThread(B, Rg);

  // The probe computes what it should (once; the rest compare bytes).
  {
    const unsigned WB = B.Tgt->info().WordBytes;
    VCode V(*B.Tgt);
    CodePtr P = buildTier1(V, Rg.Tier1);
    int64_t Sum = 0;
    for (unsigned K = 0; K < 20; ++K)
      Sum += K * 1000 + 7;
    uint64_t Got = B.Cpu->call(P.Entry, {TypedValue::fromInt(3)}, Type::L)
                       .asUInt64();
    uint64_t Want = uint64_t(3 * Sum + 0x123456789ll);
    if (WB == 4) {
      Got &= 0xffffffffull;
      Want &= 0xffffffffull;
    }
    EXPECT_EQ(Got, Want);
  }

  // After a large warm-up function on this thread.
  emitWarmup(B, Rg);
  EXPECT_EQ(emitProbe(B, Rg), Ref) << "after a large function";

  // Beside a second VCode that stays open across the whole probe.
  {
    CodeMem Outer = B.Mem->allocCode(1 << 14);
    Probe Mid;
    VCode V(*B.Tgt);
    CodePtr P = buildConstPool(V, Outer, Rg.Cell,
                               [&] { Mid = emitProbe(B, Rg); });
    EXPECT_EQ(Mid, Ref) << "with a second VCode open";
    uint64_t Nested = hashCode(Outer, P), Alone = 0;
    std::thread([&] {
      VCode W(*B.Tgt);
      Alone = hashCode(Outer, buildConstPool(W, Outer, Rg.Cell));
    }).join();
    EXPECT_EQ(Nested, Alone) << "the outer function of two open VCodes";
  }

  // A VCode built and used here, destroyed on another thread.
  {
    auto V = std::make_unique<VCode>(*B.Tgt);
    EXPECT_TRUE(buildConstPool(*V, B.Mem->allocCode(1 << 14), Rg.Cell)
                    .isValid());
    std::thread([Owned = std::move(V)]() mutable { Owned.reset(); }).join();
    EXPECT_EQ(emitProbe(B, Rg), Ref) << "after a cross-thread destroy";
  }

  // A function poisoned mid-body (Tier-0, then a Tier-1 replay), then a
  // clean one on the same VCode and fresh ones.
  {
    VCode V(*B.Tgt);
    V.setErrorRecovery(true);
    CodeMem Small = B.Mem->allocCode(1 << 10);
    try {
      buildConstPool(V, Small, Rg.Cell);
    } catch (const CgAbort &) {
    }
    EXPECT_FALSE(V.end().isValid());
    EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
    try {
      buildWideTier1(V, Small);
    } catch (const CgAbort &) {
    }
    EXPECT_FALSE(V.end().isValid());
    EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
    EXPECT_EQ(hashCode(Rg.Pool, buildConstPool(V, Rg.Pool, Rg.Cell)),
              Ref.Pool)
        << "a clean function after poisoned ones on one VCode";
    V.setErrorRecovery(false);
    EXPECT_EQ(emitProbe(B, Rg), Ref) << "after poisoned functions";
  }

  // Tier-0 layer functions, then the probe's Tier-1 function.
  {
    CodeMem CM = B.Mem->allocCode(1 << 12);
    for (unsigned K = 0; K < 3; ++K) {
      VCode V(*B.Tgt);
      CodePtr P = buildTier0Layer(V, CM);
      EXPECT_EQ(B.Cpu->call(P.Entry, {TypedValue::fromInt(K)}).asInt32(),
                int32_t(41 + K));
    }
    VCode V(*B.Tgt);
    EXPECT_EQ(hashCode(Rg.Tier1, buildTier1(V, Rg.Tier1)), Ref.Tier1)
        << "a Tier-1 function after Tier-0 layer functions";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, RecycleTest,
                         ::testing::ValuesIn(allSubstrateNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
