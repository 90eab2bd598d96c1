//===- sim/SparcSim.cpp - SPARC V8 simulator --------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/SparcSim.h"
#include "profile/Profiler.h"
#include "sparc/SparcDecode.h"
#include "sparc/SparcTarget.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;
using namespace vcode::sparc;

SparcSim::SparcSim(Memory &M, MachineConfig C) : Mem(M), Cfg(C) {
  ICache.configure(Cfg.ICacheBytes, Cfg.LineBytes);
  DCache.configure(Cfg.DCacheBytes, Cfg.LineBytes);
}

const CallConv &SparcSim::defaultConv() const {
  return sparcTargetInfo().DefaultCC;
}

void SparcSim::flushCaches() {
  ICache.flush();
  DCache.flush();
}

void SparcSim::warmData(SimAddr A, size_t Len) { DCache.warm(A, Len); }

uint32_t SparcSim::fetch(SimAddr A) {
  if (Cfg.ModelCaches && !ICache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.ICacheMisses;
  }
  return Mem.read<uint32_t>(A);
}

uint32_t SparcSim::loadMem(SimAddr A, unsigned Bytes, bool SignExtend) {
  if (Cfg.ModelCaches && !DCache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.DCacheMisses;
  }
  switch (Bytes) {
  case 1: {
    uint8_t V = Mem.read<uint8_t>(A);
    return SignExtend ? uint32_t(int32_t(int8_t(V))) : V;
  }
  case 2: {
    if (A & 1)
      fatalKind(CgErrKind::SimFault,
          "sparc sim: unaligned halfword access at 0x%llx",
            (unsigned long long)A);
    uint16_t V = Mem.read<uint16_t>(A);
    return SignExtend ? uint32_t(int32_t(int16_t(V))) : V;
  }
  case 4:
    if (A & 3)
      fatalKind(CgErrKind::SimFault,
          "sparc sim: unaligned word access at 0x%llx",
            (unsigned long long)A);
    return Mem.read<uint32_t>(A);
  }
  unreachable("bad load size");
}

void SparcSim::storeMem(SimAddr A, unsigned Bytes, uint32_t V) {
  if (Cfg.ModelCaches && !DCache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.DCacheMisses;
  }
  switch (Bytes) {
  case 1:
    Mem.write<uint8_t>(A, uint8_t(V));
    return;
  case 2:
    Mem.write<uint16_t>(A, uint16_t(V));
    return;
  case 4:
    if (A & 3)
      fatalKind(CgErrKind::SimFault,
          "sparc sim: unaligned word store at 0x%llx",
            (unsigned long long)A);
    Mem.write<uint32_t>(A, V);
    return;
  }
  unreachable("bad store size");
}

void SparcSim::setIccSub(uint32_t A, uint32_t B) {
  uint32_t R32 = A - B;
  IccN = (R32 >> 31) != 0;
  IccZ = R32 == 0;
  IccV = (((A ^ B) & (A ^ R32)) >> 31) != 0;
  IccC = A < B;
}

bool SparcSim::iccHolds(unsigned Cond) const {
  switch (Cond) {
  case CondN:
    return false;
  case CondE:
    return IccZ;
  case CondLE:
    return IccZ || (IccN != IccV);
  case CondL:
    return IccN != IccV;
  case CondLEU:
    return IccC || IccZ;
  case CondCS:
    return IccC;
  case CondNEG:
    return IccN;
  case CondVS:
    return IccV;
  case CondA:
    return true;
  case CondNE:
    return !IccZ;
  case CondG:
    return !(IccZ || (IccN != IccV));
  case CondGE:
    return IccN == IccV;
  case CondGU:
    return !(IccC || IccZ);
  case CondCC:
    return !IccC;
  case CondPOS:
    return !IccN;
  case CondVC:
    return !IccV;
  }
  unreachable("bad icc condition");
}

bool SparcSim::fccHolds(unsigned Cond) const {
  bool E = Fcc == 0, L = Fcc == 1, G = Fcc == 2, U = Fcc == 3;
  switch (Cond) {
  case FCondN:
    return false;
  case FCondNE:
    return L || G || U;
  case FCondLG:
    return L || G;
  case FCondUL:
    return U || L;
  case FCondL:
    return L;
  case FCondUG:
    return U || G;
  case FCondG:
    return G;
  case FCondU:
    return U;
  case FCondA:
    return true;
  case FCondE:
    return E;
  case FCondUE:
    return U || E;
  case FCondGE:
    return G || E;
  case FCondUGE:
    return U || G || E;
  case FCondLE:
    return L || E;
  case FCondULE:
    return U || L || E;
  case FCondO:
    return !U;
  }
  unreachable("bad fcc condition");
}

float SparcSim::getS(unsigned F) const {
  float V;
  std::memcpy(&V, &FPR[F], 4);
  return V;
}
void SparcSim::setS(unsigned F, float V) { std::memcpy(&FPR[F], &V, 4); }

double SparcSim::getD(unsigned F) const {
  uint64_t Bits = uint64_t(FPR[F]) | (uint64_t(FPR[F + 1]) << 32);
  double V;
  std::memcpy(&V, &Bits, 8);
  return V;
}
void SparcSim::setD(unsigned F, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  FPR[F] = uint32_t(Bits);
  FPR[F + 1] = uint32_t(Bits >> 32);
}

void SparcSim::step() {
  SimAddr InstrPC = PC;
  const uint32_t I = fetch(InstrPC);
  const Insn D = decode(I);
  PC = NPC;
  NPC += 4;
  ++Stats.Instrs;
  ++Stats.Cycles;

  const unsigned Rd = D.rd(), Fs1 = D.rs1(), Fs2 = D.rs2();
  auto W = [this](unsigned N, uint32_t V) {
    if (N)
      R[N] = V;
  };
  // Format-3 operands, read only by the instructions that use them:
  // reading them before the switch slows the interpreter (EXPERIMENTS E20).
  auto A = [&] { return R[D.rs1()]; };
  auto B = [&] { return D.useImm() ? uint32_t(D.simm13()) : R[D.rs2()]; };
  auto Addr = [&] { return SimAddr(A() + B()); };

  switch (D.Op) {
  case Opc::Invalid:
    fatalKind(CgErrKind::SimFault,
              "sparc sim: unknown instruction 0x%08x at 0x%llx", I,
              (unsigned long long)InstrPC);
  case Opc::Call:
    R[O7] = uint32_t(InstrPC);
    NPC = branchTarget(InstrPC, D);
    return;
  case Opc::Sethi:
    W(Rd, D.imm22() << 10);
    return;
  case Opc::Bicc:
    if (iccHolds(D.cond()))
      NPC = branchTarget(InstrPC, D);
    return;
  case Opc::FBfcc:
    if (fccHolds(D.cond()))
      NPC = branchTarget(InstrPC, D);
    return;

  case Opc::Add:
    W(Rd, A() + B());
    return;
  case Opc::Sub:
    W(Rd, A() - B());
    return;
  case Opc::Subcc:
    setIccSub(A(), B());
    W(Rd, A() - B());
    return;
  case Opc::And:
    W(Rd, A() & B());
    return;
  case Opc::Or:
    W(Rd, A() | B());
    return;
  case Opc::Xor:
    W(Rd, A() ^ B());
    return;
  case Opc::Xnor:
    W(Rd, ~(A() ^ B()));
    return;
  case Opc::Addx:
    W(Rd, A() + B() + (IccC ? 1 : 0));
    return;
  case Opc::Umul: {
    uint64_t P = uint64_t(A()) * uint64_t(B());
    W(Rd, uint32_t(P));
    Y = uint32_t(P >> 32);
    Stats.Cycles += Cfg.MulCycles;
    return;
  }
  case Opc::Smul: {
    int64_t P = int64_t(int32_t(A())) * int64_t(int32_t(B()));
    W(Rd, uint32_t(P));
    Y = uint32_t(uint64_t(P) >> 32);
    Stats.Cycles += Cfg.MulCycles;
    return;
  }
  case Opc::Udiv: {
    uint64_t Dividend = (uint64_t(Y) << 32) | A();
    uint32_t Q = B() == 0 ? 0 : uint32_t(Dividend / B());
    W(Rd, Q);
    Stats.Cycles += Cfg.DivCycles;
    return;
  }
  case Opc::Sdiv: {
    int64_t Dividend = int64_t((uint64_t(Y) << 32) | A());
    int32_t Divisor = int32_t(B());
    uint32_t Q;
    if (Divisor == 0)
      Q = 0;
    else if (Dividend == INT64_MIN && Divisor == -1)
      Q = uint32_t(Dividend);
    else
      Q = uint32_t(int32_t(Dividend / Divisor));
    W(Rd, Q);
    Stats.Cycles += Cfg.DivCycles;
    return;
  }
  case Opc::Sll:
    W(Rd, A() << (B() & 31));
    return;
  case Opc::Srl:
    W(Rd, A() >> (B() & 31));
    return;
  case Opc::Sra:
    W(Rd, uint32_t(int32_t(A()) >> (B() & 31)));
    return;
  case Opc::RdY:
    W(Rd, Y);
    return;
  case Opc::WrY:
    Y = A() ^ B(); // wry: rs1 xor operand2 per the V8 spec
    return;
  case Opc::Jmpl: // the target first: rd may be rs1 or rs2
    NPC = (A() + B()) & ~SimAddr(3);
    W(Rd, uint32_t(InstrPC));
    return;

  case Opc::Fmovs:
    FPR[Rd] = FPR[Fs2];
    return;
  case Opc::Fnegs:
    FPR[Rd] = FPR[Fs2] ^ 0x80000000u;
    return;
  case Opc::Fabss:
    FPR[Rd] = FPR[Fs2] & 0x7fffffffu;
    return;
  case Opc::Fsqrts:
    setS(Rd, std::sqrt(getS(Fs2)));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Fsqrtd:
    setD(Rd, std::sqrt(getD(Fs2)));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Fadds:
    setS(Rd, getS(Fs1) + getS(Fs2));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Faddd:
    setD(Rd, getD(Fs1) + getD(Fs2));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Fsubs:
    setS(Rd, getS(Fs1) - getS(Fs2));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Fsubd:
    setD(Rd, getD(Fs1) - getD(Fs2));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Fmuls:
    setS(Rd, getS(Fs1) * getS(Fs2));
    Stats.Cycles += Cfg.FpMulCycles - 1;
    return;
  case Opc::Fmuld:
    setD(Rd, getD(Fs1) * getD(Fs2));
    Stats.Cycles += Cfg.FpMulCycles - 1;
    return;
  case Opc::Fdivs:
    setS(Rd, getS(Fs1) / getS(Fs2));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Fdivd:
    setD(Rd, getD(Fs1) / getD(Fs2));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Fitos:
    setS(Rd, float(int32_t(FPR[Fs2])));
    return;
  case Opc::Fitod:
    setD(Rd, double(int32_t(FPR[Fs2])));
    return;
  case Opc::Fstod:
    setD(Rd, double(getS(Fs2)));
    return;
  case Opc::Fdtos:
    setS(Rd, float(getD(Fs2)));
    return;
  case Opc::Fstoi:
    FPR[Rd] = uint32_t(int32_t(getS(Fs2)));
    return;
  case Opc::Fdtoi:
    FPR[Rd] = uint32_t(int32_t(getD(Fs2)));
    return;
  case Opc::Fcmps: {
    float X = getS(Fs1), Z = getS(Fs2);
    Fcc = X == Z ? 0 : (X < Z ? 1 : (X > Z ? 2 : 3));
    return;
  }
  case Opc::Fcmpd: {
    double X = getD(Fs1), Z = getD(Fs2);
    Fcc = X == Z ? 0 : (X < Z ? 1 : (X > Z ? 2 : 3));
    return;
  }

  case Opc::Ld:
    W(Rd, loadMem(Addr(), 4, false));
    return;
  case Opc::Ldub:
    W(Rd, loadMem(Addr(), 1, false));
    return;
  case Opc::Lduh:
    W(Rd, loadMem(Addr(), 2, false));
    return;
  case Opc::Ldsb:
    W(Rd, loadMem(Addr(), 1, true));
    return;
  case Opc::Ldsh:
    W(Rd, loadMem(Addr(), 2, true));
    return;
  case Opc::St:
    storeMem(Addr(), 4, R[Rd]);
    return;
  case Opc::Stb:
    storeMem(Addr(), 1, R[Rd]);
    return;
  case Opc::Sth:
    storeMem(Addr(), 2, R[Rd]);
    return;
  case Opc::Ldf:
    FPR[Rd] = loadMem(Addr(), 4, false);
    return;
  case Opc::Lddf:
    FPR[Rd] = loadMem(Addr(), 4, false);
    FPR[Rd + 1] = loadMem(Addr() + 4, 4, false);
    return;
  case Opc::Stf:
    storeMem(Addr(), 4, FPR[Rd]);
    return;
  case Opc::Stdf:
    storeMem(Addr(), 4, FPR[Rd]);
    storeMem(Addr() + 4, 4, FPR[Rd + 1]);
    return;
  }
  unreachable("bad SPARC opcode");
}

TypedValue SparcSim::callWithConv(const CallConv &CC, SimAddr Entry,
                                  const std::vector<TypedValue> &Args,
                                  Type RetTy) {
  Stats = RunStats();
  std::memset(R, 0, sizeof(R));
  Y = 0;
  IccN = IccZ = IccV = IccC = false;
  Fcc = 0;

  R[SP] = uint32_t(initialSp(Mem));
  unsigned Link = CC.LinkReg.isValid() ? unsigned(CC.LinkReg.Num) : unsigned(O7);
  R[Link] = uint32_t(StopAddr - 8); // retl jumps to link+8

  std::vector<Type> Types;
  Types.reserve(Args.size());
  for (const TypedValue &A : Args)
    Types.push_back(A.Ty);
  std::vector<ArgLoc> Locs = computeArgLocs(CC, Types, 4);
  for (size_t I = 0; I < Args.size(); ++I) {
    const ArgLoc &L = Locs[I];
    const TypedValue &A = Args[I];
    if (!L.OnStack) {
      if (L.R.isInt()) {
        R[L.R.Num] = uint32_t(A.Bits);
      } else if (A.Ty == Type::D) {
        FPR[L.R.Num] = uint32_t(A.Bits);
        FPR[L.R.Num + 1] = uint32_t(A.Bits >> 32);
      } else {
        FPR[L.R.Num] = uint32_t(A.Bits);
      }
      continue;
    }
    SimAddr Slot = SimAddr(R[SP]) + uint32_t(L.StackOff);
    Mem.write<uint32_t>(Slot, uint32_t(A.Bits));
    if (A.Ty == Type::D)
      Mem.write<uint32_t>(Slot + 4, uint32_t(A.Bits >> 32));
  }

  PC = Entry;
  NPC = Entry + 4;
  while (PC != StopAddr) {
    if (Stats.Instrs >= InstrLimit)
      fatalKind(CgErrKind::SimFault,
          "sparc sim: instruction limit exceeded; runaway code?");
    VCODE_PF_SAMPLE_VPC(++PfClock, PC);
    step();
  }

  TypedValue Res;
  Res.Ty = RetTy;
  if (RetTy == Type::D)
    Res.Bits =
        uint64_t(FPR[CC.FpRet.Num]) | (uint64_t(FPR[CC.FpRet.Num + 1]) << 32);
  else if (RetTy == Type::F)
    Res.Bits = FPR[CC.FpRet.Num];
  else if (isSignedType(RetTy))
    Res.Bits = uint64_t(int64_t(int32_t(R[CC.IntRet.Num])));
  else
    Res.Bits = R[CC.IntRet.Num];
  finishRun(Stats);
  return Res;
}
