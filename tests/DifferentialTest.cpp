//===- tests/DifferentialTest.cpp - Cross-target differential fuzzing ------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Property-based testing beyond the per-instruction regression suite:
// generate random straight-line VCODE programs over a small register
// pool, evaluate them with a host-side abstract interpreter of the VCODE
// semantics, and require every target's generated machine code to compute
// the same values. A divergence on any target is a code-generation bug by
// construction (the host model is target-independent).
//
// Each program operates on a single integer type (as the VCODE contract
// requires: a register holds a value of one type until explicitly
// converted); conversions to/from UL happen at the argument and result
// boundaries.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "alpha/AlphaTarget.h"
#include "core/VCodeT.h"
#include "mips/MipsTarget.h"
#include "sparc/SparcTarget.h"
#include "support/Rng.h"
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;
using sim::TypedValue;

namespace {

/// One randomly chosen VCODE instruction over virtual slots 0..N-1.
struct RandInsn {
  enum KindType { Bin, BinImm, Un, Set, Cmp } Kind;
  BinOp Bop = BinOp::Add;
  UnOp Uop = UnOp::Mov;
  Cond C = Cond::Eq;
  unsigned D = 0, A = 0, B = 0; // slot indices
  int64_t Imm = 0;
};

/// Program generator: only well-defined operations (no div/mod, shift
/// amounts in range).
std::vector<RandInsn> makeProgram(Rng &R, unsigned Slots, unsigned Len,
                                  unsigned Bits) {
  std::vector<RandInsn> P;
  for (unsigned I = 0; I < Len; ++I) {
    RandInsn N;
    N.D = unsigned(R.below(Slots));
    N.A = unsigned(R.below(Slots));
    N.B = unsigned(R.below(Slots));
    switch (R.below(5)) {
    case 0: {
      N.Kind = RandInsn::Bin;
      const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                           BinOp::Or,  BinOp::Xor};
      N.Bop = Ops[R.below(6)];
      break;
    }
    case 1: {
      N.Kind = RandInsn::BinImm;
      const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                           BinOp::Or,  BinOp::Xor, BinOp::Lsh, BinOp::Rsh};
      N.Bop = Ops[R.below(8)];
      if (N.Bop == BinOp::Lsh || N.Bop == BinOp::Rsh)
        N.Imm = int64_t(R.below(Bits));
      else
        N.Imm = int64_t(int32_t(uint32_t(R.next()))); // 32-bit immediate
      break;
    }
    case 2: {
      N.Kind = RandInsn::Un;
      const UnOp Ops[] = {UnOp::Com, UnOp::Not, UnOp::Mov};
      N.Uop = Ops[R.below(3)];
      break;
    }
    case 3:
      N.Kind = RandInsn::Set;
      N.Imm = int64_t(R.next());
      break;
    default: {
      N.Kind = RandInsn::Cmp; // d = (a COND b) via branch
      const Cond Cs[] = {Cond::Lt, Cond::Le, Cond::Gt,
                         Cond::Ge, Cond::Eq, Cond::Ne};
      N.C = Cs[R.below(6)];
      break;
    }
    }
    P.push_back(N);
  }
  return P;
}

/// Host-side abstract interpreter of the same program. Slots hold
/// canonical values of \p Ty throughout.
std::vector<uint64_t> evalHost(const std::vector<RandInsn> &P, Type Ty,
                               std::vector<uint64_t> Slots,
                               unsigned WordBytes) {
  for (const RandInsn &N : P) {
    switch (N.Kind) {
    case RandInsn::Bin:
      Slots[N.D] = refBinop(N.Bop, Ty, Slots[N.A], Slots[N.B], WordBytes);
      break;
    case RandInsn::BinImm:
      Slots[N.D] = refBinop(N.Bop, Ty, Slots[N.A],
                            canonicalize(Ty, uint64_t(N.Imm), WordBytes),
                            WordBytes);
      break;
    case RandInsn::Un:
      Slots[N.D] = refUnop(N.Uop, Ty, Slots[N.A], WordBytes);
      break;
    case RandInsn::Set:
      Slots[N.D] = canonicalize(Ty, uint64_t(N.Imm), WordBytes);
      break;
    case RandInsn::Cmp:
      Slots[N.D] = canonicalize(
          Ty, refCond(N.C, Ty, Slots[N.A], Slots[N.B], WordBytes) ? 1 : 0,
          WordBytes);
      break;
    }
  }
  return Slots;
}

class DifferentialTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    B = makeSubstrate(GetParam());
    WB = B.Tgt->info().WordBytes;
  }
  Substrate B;
  unsigned WB = 4;
};

TEST_P(DifferentialTest, RandomStraightLinePrograms) {
  constexpr unsigned Slots = 5;
  constexpr unsigned Programs = 48;
  constexpr unsigned Len = 60;
  const Type ProgTypes[] = {Type::I, Type::U, Type::L, Type::UL};

  for (unsigned Seed = 0; Seed < Programs; ++Seed) {
    VCODE_SEEDED(Seed * 977 + 13);
    Type Ty = ProgTypes[Seed % 4];
    Rng R(TestSeed);
    unsigned Bits = typeBits(Ty, WB);
    std::vector<RandInsn> Prog = makeProgram(R, Slots, Len, Bits);

    // Initial slot values arrive as UL arguments; converted to the
    // program type at entry.
    std::vector<uint64_t> Init(Slots), HostInit(Slots);
    for (unsigned S = 0; S < Slots; ++S) {
      Init[S] = canonicalize(Type::UL, R.next(), WB);
      HostInit[S] = canonicalize(Ty, Init[S], WB);
    }

    SimAddr Out = B.Mem->alloc(Slots * 8, 8);
    VCode V(*B.Tgt);
    std::vector<Reg> Arg(Slots + 1);
    V.lambda("%U%U%U%U%U", Arg.data(), LeafHint, B.Mem->allocCode(1 << 16));
    std::vector<Reg> SlotReg(Arg.begin(), Arg.begin() + Slots);
    for (unsigned S = 0; S < Slots; ++S)
      V.cvt(Type::UL, Ty, SlotReg[S], SlotReg[S]);

    for (const RandInsn &N : Prog) {
      switch (N.Kind) {
      case RandInsn::Bin:
        V.binop(N.Bop, Ty, SlotReg[N.D], SlotReg[N.A], SlotReg[N.B]);
        break;
      case RandInsn::BinImm:
        V.binopImm(N.Bop, Ty, SlotReg[N.D], SlotReg[N.A], N.Imm);
        break;
      case RandInsn::Un:
        V.unop(N.Uop, Ty, SlotReg[N.D], SlotReg[N.A]);
        break;
      case RandInsn::Set:
        V.setInt(Ty, SlotReg[N.D], uint64_t(N.Imm));
        break;
      case RandInsn::Cmp: {
        Label LT = V.genLabel(), LE = V.genLabel();
        V.branch(N.C, Ty, SlotReg[N.A], SlotReg[N.B], LT);
        V.setInt(Ty, SlotReg[N.D], 0);
        V.jmp(LE);
        V.label(LT);
        V.setInt(Ty, SlotReg[N.D], 1);
        V.label(LE);
        break;
      }
      }
    }

    // Results leave through memory as UL values.
    Reg T = V.getreg(Type::P);
    ASSERT_TRUE(T.isValid());
    V.setp(T, Out);
    for (unsigned S = 0; S < Slots; ++S) {
      V.cvt(Ty, Type::UL, SlotReg[S], SlotReg[S]);
      V.stuli(SlotReg[S], T, 8 * S);
    }
    V.retv();
    CodePtr Fn = V.end();

    std::vector<TypedValue> Args;
    for (uint64_t I : Init)
      Args.push_back(TypedValue::fromUInt(I, Type::UL));
    B.Cpu->call(Fn.Entry, Args, Type::V);

    std::vector<uint64_t> Want = evalHost(Prog, Ty, HostInit, WB);
    for (unsigned S = 0; S < Slots; ++S) {
      uint64_t Got = B.Mem->read<uint64_t>(Out + 8 * S);
      if (WB == 4)
        Got &= 0xffffffffu; // 32-bit targets store 32-bit UL slots
      uint64_t Expect = canonicalize(Type::UL, Want[S], WB);
      // Host slots hold canonical Ty values; as UL they are converted
      // the same way the generated cvt converts them.
      if (Ty == Type::U && WB == 8)
        Expect &= 0xffffffffu; // cvu2ul zero-extends
      ASSERT_EQ(Got, Expect) << GetParam() << " seed " << Seed << " slot "
                             << S << " type " << typeName(Ty);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DifferentialTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

// --- Static vs. virtual dispatch: byte identity -----------------------------
//
// The static-dispatch front end (VCodeT<TargetT>) must be an observationally
// pure optimization: the same generator source driven through the type-erased
// VCode facade and through VCodeT<TargetT> has to produce byte-identical
// machine code. The emitter below is templated over the generator type so
// both runs execute the exact same calls; each run uses a fresh deterministic
// sim::Memory arena with an identical allocation sequence, so guest code
// addresses (and therefore absolute-address fixups) match by construction.

/// A representative instruction mix: table-driven ALU ops, immediate forms
/// inside and outside the target's encodable range, unops, wide constant
/// materialization, fp arithmetic and the constant pool, conversions
/// (including unsigned-to-fp), sub-word and wide-offset memory traffic,
/// locals, compare-and-branch in register and immediate form, fp branches,
/// jumps, and a string-registered extension instruction.
template <class VC> CodePtr emitDispatchMix(VC &V, CodeMem Code) {
  Reg Arg[2];
  V.lambda("%i%p", Arg, NonLeafHint, Code);
  Reg A = Arg[0], P = Arg[1];
  Reg B = V.getreg(Type::I);
  Reg C = V.getreg(Type::I);
  Reg F = V.getreg(Type::D);
  Reg G = V.getreg(Type::D);

  V.setInt(Type::I, B, 123);
  V.setInt(Type::I, C, 0x12345678);
  V.binop(BinOp::Add, Type::I, B, B, A);
  V.binop(BinOp::Xor, Type::I, C, C, B);
  V.binop(BinOp::Mul, Type::I, C, C, B);
  V.binop(BinOp::Rsh, Type::U, C, C, B);
  V.binopImm(BinOp::Add, Type::I, B, B, 7);
  V.binopImm(BinOp::And, Type::I, C, C, 0xff);
  V.binopImm(BinOp::Xor, Type::I, C, C, 0x71234); // exceeds simm13/lit8
  V.binopImm(BinOp::Lsh, Type::I, C, C, 3);
  V.binopImm(BinOp::Rsh, Type::I, C, C, 2);
  V.unop(UnOp::Com, Type::I, C, C);
  V.unop(UnOp::Neg, Type::I, B, B);
  V.unop(UnOp::Not, Type::I, C, C);

  V.setFp(Type::D, F, 3.25);
  V.setFp(Type::D, G, -1.5);
  V.binop(BinOp::Mul, Type::D, F, F, G);
  V.binop(BinOp::Add, Type::D, F, F, G);
  V.binop(BinOp::Div, Type::D, F, F, G);
  V.unop(UnOp::Neg, Type::D, G, G);
  V.cvt(Type::I, Type::D, G, B);
  V.cvt(Type::U, Type::D, G, B);
  V.cvt(Type::D, Type::I, C, F);

  V.storeImm(Type::I, B, P, 0);
  V.storeImm(Type::S, B, P, 8);
  V.loadImm(Type::S, C, P, 8);
  V.loadImm(Type::UC, C, P, 1);
  V.loadImm(Type::I, C, P, 40000); // exceeds simm13/simm16
  V.load(Type::I, C, P, B);
  V.store(Type::I, C, P, B);

  Local Lo = V.localVar(Type::I);
  V.storeLocal(Type::I, B, Lo);
  V.loadLocal(Type::I, C, Lo);
  Reg Q = V.getreg(Type::P);
  V.localAddr(Q, Lo);
  V.loadImm(Type::I, C, Q, 0);
  V.putreg(Q);

  Label L1 = V.genLabel(), L2 = V.genLabel(), L3 = V.genLabel();
  V.branch(Cond::Lt, Type::I, B, C, L1);
  V.binopImm(BinOp::Add, Type::I, B, B, 1);
  V.jmp(L2);
  V.label(L1);
  V.branchImm(Cond::Ne, Type::I, B, 0, L2);
  V.unop(UnOp::Mov, Type::I, B, C);
  V.label(L2);
  V.branch(Cond::Le, Type::D, F, G, L3);
  V.nop();
  V.label(L3);

  V.ext("fsqrtd", {opReg(F), opReg(G)});

  V.ret(Type::I, B);
  return V.end();
}

template <class TargetT> void checkStaticVirtualByteIdentity() {
  // Virtual dispatch through the type-erased facade.
  sim::Memory MemV;
  TargetT TgtV;
  CodeMem CodeV = MemV.allocCode(1 << 16);
  VCode VV(TgtV);
  CodePtr PV = emitDispatchMix(VV, CodeV);

  // The same generator, statically dispatched. A fresh arena with the same
  // allocation sequence yields the same guest addresses.
  sim::Memory MemS;
  TargetT TgtS;
  CodeMem CodeS = MemS.allocCode(1 << 16);
  VCodeT<TargetT> VS(TgtS);
  CodePtr PS = emitDispatchMix(VS, CodeS);

  ASSERT_EQ(CodeV.Guest, CodeS.Guest);
  ASSERT_EQ(PV.Entry, PS.Entry);
  ASSERT_EQ(PV.SizeBytes, PS.SizeBytes);
  for (size_t I = 0; I < PV.SizeBytes; I += 4) {
    uint32_t WV = MemV.read<uint32_t>(CodeV.Guest + I);
    uint32_t WS = MemS.read<uint32_t>(CodeS.Guest + I);
    ASSERT_EQ(WV, WS) << "word " << (I / 4) << ": virtual '"
                      << TgtV.disassemble(WV, CodeV.Guest + I)
                      << "' vs static '"
                      << TgtS.disassemble(WS, CodeS.Guest + I) << "'";
  }
}

TEST(StaticDispatchTest, MipsByteIdentical) {
  checkStaticVirtualByteIdentity<mips::MipsTarget>();
}

TEST(StaticDispatchTest, SparcByteIdentical) {
  checkStaticVirtualByteIdentity<sparc::SparcTarget>();
}

TEST(StaticDispatchTest, AlphaByteIdentical) {
  checkStaticVirtualByteIdentity<alpha::AlphaTarget>();
}

} // namespace
