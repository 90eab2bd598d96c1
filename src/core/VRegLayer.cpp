//===- core/VRegLayer.cpp - Unlimited virtual registers --------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/VRegLayer.h"
#include "core/LinearScan.h"
#include "core/Peephole.h"
#include "core/StrengthReduce.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <cassert>

using namespace vcode;

void VRegTables::clear() {
  Slots.clear();
  Rec.clear();
  Ivs.clear();
  LabelAt.clear();
  BackEdges.clear();
  Exits.clear();
  Plan.clear();
  IntPool.clear();
  FpPool.clear();
  Claimed.clear();
}

size_t VRegTables::capacityBytes() const {
  auto Bytes = [](const auto &V) {
    return V.capacity() * sizeof(*V.data());
  };
  return Bytes(Slots) + Bytes(Rec) + Bytes(Ivs) + Bytes(LabelAt) +
         Bytes(BackEdges) + Bytes(Exits) + Bytes(Plan) + Bytes(IntPool) +
         Bytes(FpPool) + Bytes(Claimed);
}

VRegLayer::VRegLayer(VCode &V, Tier T)
    : V(V), Mode(T), Set(FnTables::acquire()), Tb(Set->vreg()) {
  if (Mode != Tier::Tier0)
    return;
  for (unsigned I = 0; I < 3; ++I) {
    IntStage[I] = V.getreg(Type::L, RegClass::Temp);
    FpStage[I] = V.getreg(Type::D, RegClass::Temp);
    if (!IntStage[I].isValid() || !FpStage[I].isValid())
      fatal("vreg layer: could not claim staging registers");
  }
}

VRegLayer::~VRegLayer() {
  if (Mode == Tier::Tier0) {
    for (unsigned I = 0; I < 3; ++I) {
      V.putreg(IntStage[I]);
      V.putreg(FpStage[I]);
    }
    return;
  }
  // Tier-1: finish() releases the claimed pool; this only runs when an
  // emission error unwound out of the recording or replay.
  releaseClaimed();
}

VReg VRegLayer::alloc(Type Ty) {
  Slot S;
  S.Ty = Ty;
  if (Mode == Tier::Tier0)
    S.Home = V.localVar(Ty); // Tier-1 spill homes are allocated on demand
  Tb.Slots.push_back(S);
  return VReg{int32_t(Tb.Slots.size() - 1)};
}

VReg VRegLayer::fromArg(Type Ty, Reg ArgReg) {
  if (Mode == Tier::Tier0) {
    VReg R = alloc(Ty);
    fromPhys(R, ArgReg);
    return R;
  }
  Slot S;
  S.Ty = Ty;
  S.Pre = ArgReg;
  Tb.Slots.push_back(S);
  VReg R{int32_t(Tb.Slots.size() - 1)};
  RecOp &O = rec(RecOp::FromPhys, R.Id);
  O.Ty = Ty;
  O.Phys = ArgReg;
  return R;
}

// --- Tier-0: stage-through-locals emission ----------------------------------

Reg VRegLayer::stage(unsigned Which, Type Ty) {
  assert(Which < 3 && "bad staging index");
  return isFpType(Ty) ? FpStage[Which] : IntStage[Which];
}

Reg VRegLayer::readIn(VReg R, unsigned Which) {
  assert(R.isValid() && size_t(R.Id) < Tb.Slots.size() && "bad vreg");
  const Slot &S = Tb.Slots[R.Id];
  Reg P = stage(Which, S.Ty);
  V.loadLocal(S.Ty, P, S.Home);
  return P;
}

void VRegLayer::writeBack(VReg R, Reg Phys) {
  const Slot &S = Tb.Slots[R.Id];
  V.storeLocal(S.Ty, Phys, S.Home);
}

// --- Mirrored surface --------------------------------------------------------

void VRegLayer::checkVReg(VReg R) const {
  if (!R.isValid() || size_t(R.Id) >= Tb.Slots.size())
    fatal("vreg layer: invalid virtual register");
}

void VRegLayer::openInterval(int32_t Vr, uint32_t Pos) {
  Slot &S = Tb.Slots[Vr];
  S.Iv = int32_t(Tb.Ivs.size());
  LsInterval &I = Tb.Ivs.emplace_back();
  I.VReg = Vr;
  I.Start = I.End = Pos;
  I.Fp = isFpType(S.Ty);
}

inline void VRegLayer::ref(int32_t Vr, uint32_t Pos) {
  if (Vr < 0)
    return;
  const Slot &S = Tb.Slots[Vr];
  if (S.Iv >= 0)
    Tb.Ivs[S.Iv].End = Pos;
  else if (!S.Pre.isValid()) // pre-colored vregs are not allocated
    openInterval(Vr, Pos);
}

VRegLayer::RecOp &VRegLayer::rec(RecOp::Kind K, int32_t D, int32_t S1,
                                 int32_t S2) {
  if (Finished)
    fatal("vreg layer: recording after finish()");
  // Positions only grow, so intervals open in start order; within one
  // op, sources are noted before the def, and intervals that open at the
  // same op are allocated in that order.
  const uint32_t Pos = uint32_t(Tb.Rec.size());
  ref(S1, Pos);
  ref(S2, Pos);
  ref(D, Pos);
  RecOp &O = Tb.Rec.emplace_back();
  O.K = K;
  O.D = D;
  O.S1 = S1;
  O.S2 = S2;
  return O;
}

int32_t VRegLayer::labelAt(Label L) const {
  return size_t(L.Id) < Tb.LabelAt.size() ? Tb.LabelAt[L.Id] : -1;
}

VRegLayer::RecOp &VRegLayer::recBranch(RecOp::Kind K, Label L, int32_t S1,
                                       int32_t S2) {
  const uint32_t Pos = uint32_t(Tb.Rec.size());
  const int32_t Target = labelAt(L);
  if (Target >= 0)
    Tb.BackEdges.push_back(LsEdge{Pos, uint32_t(Target)});
  RecOp &O = rec(K, -1, S1, S2);
  Tb.Exits.push_back(Pos);
  O.L = L;
  return O;
}

void VRegLayer::fromPhys(VReg Dst, Reg Src) {
  checkVReg(Dst);
  if (Mode == Tier::Tier0) {
    writeBack(Dst, Src);
    return;
  }
  RecOp &O = rec(RecOp::FromPhys, Dst.Id);
  O.Ty = Tb.Slots[Dst.Id].Ty;
  O.Phys = Src;
}

void VRegLayer::binop(BinOp Op, Type Ty, VReg Rd, VReg Rs1, VReg Rs2) {
  checkVReg(Rd);
  checkVReg(Rs1);
  checkVReg(Rs2);
  if (Mode == Tier::Tier0) {
    Reg A = readIn(Rs1, 0);
    Reg B = readIn(Rs2, 1);
    Reg D = stage(2, Ty);
    V.binop(Op, Ty, D, A, B);
    writeBack(Rd, D);
    return;
  }
  RecOp &O = rec(RecOp::Binop, Rd.Id, Rs1.Id, Rs2.Id);
  O.Op = uint8_t(Op);
  O.Ty = Ty;
}

void VRegLayer::binopImm(BinOp Op, Type Ty, VReg Rd, VReg Rs1, int64_t Imm) {
  checkVReg(Rd);
  checkVReg(Rs1);
  if (Mode == Tier::Tier0) {
    Reg A = readIn(Rs1, 0);
    Reg D = stage(2, Ty);
    V.binopImm(Op, Ty, D, A, Imm);
    writeBack(Rd, D);
    return;
  }
  RecOp &O = rec(RecOp::BinopImm, Rd.Id, Rs1.Id);
  O.Op = uint8_t(Op);
  O.Ty = Ty;
  O.Imm = Imm;
}

void VRegLayer::unop(UnOp Op, Type Ty, VReg Rd, VReg Rs) {
  checkVReg(Rd);
  checkVReg(Rs);
  if (Mode == Tier::Tier0) {
    Reg A = readIn(Rs, 0);
    Reg D = stage(2, Ty);
    V.unop(Op, Ty, D, A);
    writeBack(Rd, D);
    return;
  }
  RecOp &O = rec(RecOp::Unop, Rd.Id, Rs.Id);
  O.Op = uint8_t(Op);
  O.Ty = Ty;
}

void VRegLayer::setInt(Type Ty, VReg Rd, uint64_t Imm) {
  checkVReg(Rd);
  if (Mode == Tier::Tier0) {
    Reg D = stage(2, Ty);
    V.setInt(Ty, D, Imm);
    writeBack(Rd, D);
    return;
  }
  RecOp &O = rec(RecOp::SetInt, Rd.Id);
  O.Ty = Ty;
  O.Imm = int64_t(Imm);
}

void VRegLayer::load(Type Ty, VReg Rd, VReg Base, int64_t Off) {
  checkVReg(Rd);
  checkVReg(Base);
  if (Mode == Tier::Tier0) {
    Reg A = readIn(Base, 0);
    Reg D = stage(2, Ty);
    V.loadImm(Ty, D, A, Off);
    writeBack(Rd, D);
    return;
  }
  RecOp &O = rec(RecOp::Load, Rd.Id, Base.Id);
  O.Ty = Ty;
  O.Imm = Off;
}

void VRegLayer::store(Type Ty, VReg Val, VReg Base, int64_t Off) {
  checkVReg(Val);
  checkVReg(Base);
  if (Mode == Tier::Tier0) {
    Reg A = readIn(Base, 0);
    Reg Vv = readIn(Val, 1);
    V.storeImm(Ty, Vv, A, Off);
    return;
  }
  RecOp &O = rec(RecOp::Store, -1, Val.Id, Base.Id);
  O.Ty = Ty;
  O.Imm = Off;
}

void VRegLayer::branch(Cond C, Type Ty, VReg A, VReg B, Label L) {
  checkVReg(A);
  checkVReg(B);
  if (Mode == Tier::Tier0) {
    Reg Pa = readIn(A, 0);
    Reg Pb = readIn(B, 1);
    V.branch(C, Ty, Pa, Pb, L);
    return;
  }
  RecOp &O = recBranch(RecOp::Branch, L, A.Id, B.Id);
  O.Op = uint8_t(C);
  O.Ty = Ty;
}

void VRegLayer::branchImm(Cond C, Type Ty, VReg A, int64_t Imm, Label L) {
  checkVReg(A);
  if (Mode == Tier::Tier0) {
    Reg Pa = readIn(A, 0);
    V.branchImm(C, Ty, Pa, Imm, L);
    return;
  }
  RecOp &O = recBranch(RecOp::BranchImm, L, A.Id);
  O.Op = uint8_t(C);
  O.Ty = Ty;
  O.Imm = Imm;
}

void VRegLayer::ret(Type Ty, VReg Rs) {
  checkVReg(Rs);
  if (Mode == Tier::Tier0) {
    Reg P = readIn(Rs, 0);
    V.ret(Ty, P);
    return;
  }
  Tb.Exits.push_back(uint32_t(Tb.Rec.size()));
  RecOp &O = rec(RecOp::Ret, -1, Rs.Id);
  O.Ty = Ty;
}

void VRegLayer::label(Label L) {
  if (Mode == Tier::Tier0) {
    V.label(L);
    return;
  }
  if (!L.isValid())
    fatal("vreg layer: binding an invalid label");
  const int32_t Pos = int32_t(Tb.Rec.size());
  rec(RecOp::Lbl).L = L;
  if (size_t(L.Id) >= Tb.LabelAt.size())
    Tb.LabelAt.resize(std::max(size_t(L.Id) + 1, 2 * Tb.LabelAt.size()),
                      -1);
  Tb.LabelAt[L.Id] = Pos;
}

void VRegLayer::jmp(Label L) {
  if (Mode == Tier::Tier0) {
    V.jmp(L);
    return;
  }
  recBranch(RecOp::Jmp, L);
}

void VRegLayer::jmpReg(VReg R) {
  checkVReg(R);
  if (Mode == Tier::Tier0) {
    Reg P = readIn(R, 0);
    V.jmpr(P);
    return;
  }
  rec(RecOp::JmpReg, -1, R.Id);
}

// --- Tier-1: allocate and replay ---------------------------------------------

void VRegLayer::claimPools() {
  // Claim only caller-saved temps, by name: probing through getreg would
  // eventually hand out a callee-saved register, and merely touching one
  // sticks in the used-callee mask — the allocated code would pay a
  // prologue/epilogue (frame, save, restore) it does not need. take()
  // also skips argument registers the lambda already pinned.
  RegAlloc &RA = V.regAlloc();
  auto Claim = [&](std::vector<Reg> &Pool, const std::vector<Reg> &Temps) {
    for (Reg R : Temps)
      if (RA.kindOf(R) == RegKind::CallerSaved && RA.isFree(R) &&
          RA.take(R)) {
        Pool.push_back(R);
        Tb.Claimed.push_back(R);
      }
  };
  const TargetInfo &TI = V.info();
  Claim(Tb.IntPool, TI.IntTemps);
  bool AnyFp = false;
  for (const Slot &S : Tb.Slots)
    AnyFp |= isFpType(S.Ty);
  if (AnyFp)
    Claim(Tb.FpPool, TI.FpTemps);
}

void VRegLayer::releaseClaimed() {
  for (Reg R : Tb.Claimed)
    V.putreg(R);
  Tb.Claimed.clear();
}

Reg VRegLayer::physOf(int32_t Vr) const {
  return Vr >= 0 ? Tb.Slots[Vr].Phys : Reg{};
}

Reg VRegLayer::scratchFor(Type Ty, unsigned Which) const {
  Reg R = isFpType(Ty) ? FpScratch[Which] : IntScratch[Which];
  if (!R.isValid())
    fatal("vreg layer: spill with no reserved scratch register");
  return R;
}

void VRegLayer::allocate() {
  Spills = linearScan(Tb.Ivs, Tb.BackEdges, Tb.IntPool, Tb.FpPool);
  if (Spills > 0) {
    // Pressure: rerun with scratch registers held back so the replay can
    // stage spilled operands. Two per class covers the worst op (both
    // sources spilled).
    auto Reserve = [&](std::vector<Reg> &Pool, Reg (&Scratch)[2],
                       const char *What) {
      if (Pool.size() < 2)
        fatal("vreg layer: not enough %s registers to stage spills", What);
      for (unsigned I = 0; I < 2; ++I) {
        Scratch[I] = Pool.back();
        Pool.pop_back();
      }
    };
    Reserve(Tb.IntPool, IntScratch, "integer");
    if (!Tb.FpPool.empty())
      Reserve(Tb.FpPool, FpScratch, "floating-point");
    Spills = linearScan(Tb.Ivs, Tb.BackEdges, Tb.IntPool, Tb.FpPool);
  }

  // Spill homes in vreg order (frame offsets follow allocation order).
  for (Slot &S : Tb.Slots) {
    if (S.Pre.isValid()) {
      S.Phys = S.Pre;
    } else if (S.Iv >= 0) {
      S.Phys = Tb.Ivs[S.Iv].Phys;
      S.Spilled = Tb.Ivs[S.Iv].Spilled;
      if (S.Spilled)
        S.Home = V.localVar(S.Ty);
    }
  }
}

void VRegLayer::replay() {
  const TargetInfo &TI = V.info();
  const size_t N = Tb.Rec.size();

  // Most recordings spill nothing: test the count once, not per operand.
  const bool HaveSpills = Spills > 0;
  auto isSpilled = [&](int32_t Vr) {
    return HaveSpills && Vr >= 0 && Tb.Slots[Vr].Spilled;
  };

  auto IsBr = [&](const RecOp &O) {
    return O.K == RecOp::Branch || O.K == RecOp::BranchImm || O.K == RecOp::Jmp;
  };

  // An op that may legally sit in a branch delay slot: a single emitted
  // word on MIPS and SPARC, no memory access, no spilled operand.
  auto SlotEligible = [&](const RecOp &O) {
    switch (O.K) {
    case RecOp::Binop:
      if (isFpType(O.Ty) || isSpilled(O.D) || isSpilled(O.S1) ||
          isSpilled(O.S2))
        return false;
      switch (BinOp(O.Op)) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::And:
      case BinOp::Or:
      case BinOp::Xor:
        return true;
      default:
        return false;
      }
    case RecOp::BinopImm:
      if (isFpType(O.Ty) || isSpilled(O.D) || isSpilled(O.S1))
        return false;
      switch (BinOp(O.Op)) {
      case BinOp::Add:
      case BinOp::Sub:
        return O.Imm >= -2047 && O.Imm <= 2047;
      case BinOp::And:
      case BinOp::Or:
      case BinOp::Xor:
        return O.Imm >= 0 && O.Imm <= 2047;
      case BinOp::Lsh:
      case BinOp::Rsh:
        return O.Imm >= 0 && O.Imm <= 31;
      default:
        return false;
      }
    case RecOp::Unop:
      return UnOp(O.Op) == UnOp::Mov && !isFpType(O.Ty) && !isSpilled(O.D) &&
             !isSpilled(O.S1) && physOf(O.D) != physOf(O.S1);
    case RecOp::SetInt:
      return !isFpType(O.Ty) && !isSpilled(O.D) && O.Imm >= -2047 &&
             O.Imm <= 2047;
    default:
      return false;
    }
  };

  // A branch must not read the register the slot op writes (the sim's
  // delayed-NPC semantics evaluate the condition before the slot runs,
  // but the recorded order computed the value first).
  auto BranchReads = [&](const RecOp &Br, Reg Written) {
    if (Br.K == RecOp::Branch)
      return physOf(Br.S1) == Written || physOf(Br.S2) == Written;
    if (Br.K == RecOp::BranchImm)
      return physOf(Br.S1) == Written;
    return false; // jmp
  };
  auto BranchSpilled = [&](const RecOp &Br) {
    if (Br.K == RecOp::Branch)
      return isSpilled(Br.S1) || isSpilled(Br.S2);
    if (Br.K == RecOp::BranchImm)
      return isSpilled(Br.S1);
    return false; // jmp
  };

  using enum VRegTables::FillKind;
  std::vector<OpPlan> &Plan = Tb.Plan;
  Plan.assign(N, OpPlan{});

  // Fold "setInt D, K; ret D" into one return-immediate: the constant's
  // only consumer is the adjacent ret (a ret never falls through and no
  // label separates the pair, so no other path can observe this def).
  // On delay-slot machines the constant rides the return's slot; on the
  // others the result move disappears. Either way, one instruction saved.
  //
  // On delay-slot machines, fill from the predecessor in the same walk:
  // the previous recorded op moves into the slot; it executes on every
  // path through the branch (no label can sit between — it would be a
  // distinct recorded op).
  for (uint32_t I : Tb.Exits) {
    if (I == 0)
      continue;
    const RecOp &O = Tb.Rec[I];
    const RecOp &Prev = Tb.Rec[I - 1];
    if (Prev.K == RecOp::SetInt && !isFpType(Prev.Ty) && O.K == RecOp::Ret &&
        !isFpType(O.Ty) && O.S1 == Prev.D) {
      Plan[I - 1].Consumed = true;
      Plan[I].RetImm = true;
      continue;
    }
    if (!TI.HasBranchDelaySlot || !IsBr(O) || BranchSpilled(O) ||
        !SlotEligible(Prev) || BranchReads(O, physOf(Prev.D)))
      continue;
    Plan[I - 1].Consumed = true;
    Plan[I].Fill = FillPred;
  }

  // For unconditional jumps with an empty slot, copy the target's first
  // instruction into the slot and retarget the jump to a skip label bound
  // just past the copied instruction. Illegal for conditional branches
  // (the slot executes on the fall-through path too).
  if (TI.HasBranchDelaySlot) {
    for (uint32_t I : Tb.Exits) {
      if (Tb.Rec[I].K != RecOp::Jmp || Plan[I].Fill != FillNone)
        continue;
      const int32_t At = labelAt(Tb.Rec[I].L);
      if (At < 0)
        continue;
      uint32_t F = uint32_t(At);
      while (F < N && Tb.Rec[F].K == RecOp::Lbl)
        ++F;
      if (F >= N || F == I || Plan[F].Consumed || !SlotEligible(Tb.Rec[F]))
        continue;
      Plan[I].Fill = FillTarget;
      Plan[I].FillSrc = int32_t(F);
      if (!Plan[F].SkipAfter.isValid())
        Plan[F].SkipAfter = V.genLabel();
    }
  }

  Peephole PH(V, /*Enabled=*/true);

  // Raw single-word emission for delay slots (operands are unspilled by
  // eligibility).
  auto EmitRaw = [&](const RecOp &O) {
    switch (O.K) {
    case RecOp::Binop:
      V.binop(BinOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1), physOf(O.S2));
      break;
    case RecOp::BinopImm:
      V.binopImm(BinOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1), O.Imm);
      break;
    case RecOp::Unop:
      V.unop(UnOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1));
      break;
    case RecOp::SetInt:
      V.setInt(O.Ty, physOf(O.D), uint64_t(O.Imm));
      break;
    default:
      fatal("vreg layer: op kind not legal in a delay slot");
    }
  };

  // Loads a (possibly spilled) source operand; spilled ops run outside
  // the peephole window, staged through the reserved scratch registers.
  auto Use = [&](int32_t Vr, unsigned Which) {
    if (!isSpilled(Vr))
      return physOf(Vr);
    Reg Sc = scratchFor(Tb.Slots[Vr].Ty, Which);
    V.loadLocal(Tb.Slots[Vr].Ty, Sc, Tb.Slots[Vr].Home);
    return Sc;
  };
  auto DefReg = [&](int32_t Vr) {
    return isSpilled(Vr) ? scratchFor(Tb.Slots[Vr].Ty, 0) : physOf(Vr);
  };
  auto DefStore = [&](int32_t Vr, Reg R) {
    if (isSpilled(Vr))
      V.storeLocal(Tb.Slots[Vr].Ty, R, Tb.Slots[Vr].Home);
  };
  auto AnySpilled = [&](const RecOp &O) {
    return isSpilled(O.D) || isSpilled(O.S1) || isSpilled(O.S2);
  };

  // If an emission error (CgAbort) unwinds out of the loop, drop the
  // peephole window first: its dtor would otherwise flush into the
  // poisoned function and raise again mid-unwind.
  try {
  for (uint32_t I = 0; I < N; ++I) {
    const RecOp &O = Tb.Rec[I];
    const OpPlan &Pl = Plan[I];
    if (Pl.Consumed) {
      // Folded into the following branch's delay slot or return.
    } else if (Pl.RetImm) {
      PH.flush();
      V.retImm(O.Ty, Tb.Rec[I - 1].Imm);
      ++RetFolds;
    } else if (Pl.Fill == FillPred) {
      PH.flush();
      const RecOp &SlotOp = Tb.Rec[I - 1];
      V.scheduleDelay(
          [&] {
            if (O.K == RecOp::Branch)
              V.branch(Cond(O.Op), O.Ty, physOf(O.S1), physOf(O.S2), O.L);
            else if (O.K == RecOp::BranchImm)
              V.branchImm(Cond(O.Op), O.Ty, physOf(O.S1), O.Imm, O.L);
            else
              V.jmp(O.L);
          },
          [&] { EmitRaw(SlotOp); });
      ++DelayFills;
    } else if (Pl.Fill == FillTarget) {
      PH.flush();
      Label Skip = Plan[Pl.FillSrc].SkipAfter;
      V.scheduleDelay([&] { V.jmp(Skip); },
                      [&] { EmitRaw(Tb.Rec[Pl.FillSrc]); });
      ++DelayFills;
    } else {
      switch (O.K) {
      case RecOp::Binop:
        if (AnySpilled(O)) {
          PH.flush();
          Reg A = Use(O.S1, 0), B = Use(O.S2, 1), D = DefReg(O.D);
          V.binop(BinOp(O.Op), O.Ty, D, A, B);
          DefStore(O.D, D);
        } else {
          PH.binop(BinOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1),
                   physOf(O.S2));
        }
        break;
      case RecOp::BinopImm:
        if (AnySpilled(O)) {
          PH.flush();
          Reg A = Use(O.S1, 0), D = DefReg(O.D);
          V.binopImm(BinOp(O.Op), O.Ty, D, A, O.Imm);
          DefStore(O.D, D);
        } else if (BinOp(O.Op) == BinOp::Mul && !isFpType(O.Ty) &&
                   physOf(O.D) != physOf(O.S1)) {
          // Strength-reduce multiply-by-constant through the extension
          // expansion (shift/add chains); it emits directly, so flush.
          PH.flush();
          emitMulConst(V, O.Ty, physOf(O.D), physOf(O.S1), O.Imm);
        } else {
          PH.binopImm(BinOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1), O.Imm);
        }
        break;
      case RecOp::Unop:
        if (AnySpilled(O)) {
          PH.flush();
          Reg A = Use(O.S1, 0), D = DefReg(O.D);
          V.unop(UnOp(O.Op), O.Ty, D, A);
          DefStore(O.D, D);
        } else {
          PH.unop(UnOp(O.Op), O.Ty, physOf(O.D), physOf(O.S1));
        }
        break;
      case RecOp::SetInt:
        if (isSpilled(O.D)) {
          PH.flush();
          Reg D = DefReg(O.D);
          V.setInt(O.Ty, D, uint64_t(O.Imm));
          DefStore(O.D, D);
        } else {
          PH.setInt(O.Ty, physOf(O.D), uint64_t(O.Imm));
        }
        break;
      case RecOp::Load:
        if (AnySpilled(O)) {
          PH.flush();
          Reg B = Use(O.S1, 1), D = DefReg(O.D);
          V.loadImm(O.Ty, D, B, O.Imm);
          DefStore(O.D, D);
        } else {
          PH.loadImm(O.Ty, physOf(O.D), physOf(O.S1), O.Imm);
        }
        break;
      case RecOp::Store:
        if (AnySpilled(O)) {
          PH.flush();
          Reg Val = Use(O.S1, 0), B = Use(O.S2, 1);
          V.storeImm(O.Ty, Val, B, O.Imm);
        } else {
          PH.storeImm(O.Ty, physOf(O.S1), physOf(O.S2), O.Imm);
        }
        break;
      case RecOp::Branch:
        if (AnySpilled(O)) {
          PH.flush();
          Reg A = Use(O.S1, 0), B = Use(O.S2, 1);
          V.branch(Cond(O.Op), O.Ty, A, B, O.L);
        } else {
          PH.branch(Cond(O.Op), O.Ty, physOf(O.S1), physOf(O.S2), O.L);
        }
        break;
      case RecOp::BranchImm:
        if (AnySpilled(O)) {
          PH.flush();
          Reg A = Use(O.S1, 0);
          V.branchImm(Cond(O.Op), O.Ty, A, O.Imm, O.L);
        } else {
          PH.branchImm(Cond(O.Op), O.Ty, physOf(O.S1), O.Imm, O.L);
        }
        break;
      case RecOp::Ret:
        if (AnySpilled(O)) {
          PH.flush();
          V.ret(O.Ty, Use(O.S1, 0));
        } else {
          PH.ret(O.Ty, physOf(O.S1));
        }
        break;
      case RecOp::Lbl:
        PH.label(O.L);
        break;
      case RecOp::Jmp:
        PH.jmp(O.L);
        break;
      case RecOp::JmpReg:
        PH.flush();
        V.jmpr(Use(O.S1, 0));
        break;
      case RecOp::FromPhys:
        if (Tb.Slots[O.D].Pre.isValid()) {
          // Pre-colored: the vreg *is* the argument register.
        } else if (isSpilled(O.D)) {
          PH.flush();
          V.storeLocal(O.Ty, O.Phys, Tb.Slots[O.D].Home);
        } else if (physOf(O.D) != O.Phys) {
          PH.unop(UnOp::Mov, O.Ty, physOf(O.D), O.Phys);
        }
        break;
      }
    }
    // Bind the fill-from-target skip label that lands right after this op.
    if (Pl.SkipAfter.isValid()) {
      PH.flush();
      V.label(Pl.SkipAfter);
    }
  }
  PH.flush();
  } catch (...) {
    PH.discard();
    throw;
  }
  PhSaved = PH.saved();
}

void VRegLayer::finish() {
  if (Mode == Tier::Tier0 || Finished)
    return;
  Finished = true;
  VCODE_TM_COUNT("core.tier1.recordings", 1);
  VCODE_TM_COUNT("core.tier1.recorded_ops", Tb.Rec.size());
  claimPools();
  try {
    allocate();
    replay();
  } catch (...) {
    // An emission error (e.g. buffer overflow) unwound out of the
    // replay: release the claimed pool so the caller's retry starts
    // from a clean allocator, then let the driver see the error.
    releaseClaimed();
    throw;
  }
  releaseClaimed();
  if (Spills)
    VCODE_TM_COUNT("core.tier1.spills", Spills);
  if (DelayFills)
    VCODE_TM_COUNT("core.tier1.delay_fills", DelayFills);
  if (RetFolds)
    VCODE_TM_COUNT("core.tier1.ret_folds", RetFolds);
}
