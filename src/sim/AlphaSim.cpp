//===- sim/AlphaSim.cpp - Alpha (21064-class) simulator ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/AlphaSim.h"
#include "alpha/AlphaDecode.h"
#include "alpha/AlphaTarget.h"
#include "profile/Profiler.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;
using namespace vcode::alpha;

AlphaSim::AlphaSim(Memory &M, MachineConfig C) : Mem(M), Cfg(C) {
  ICache.configure(Cfg.ICacheBytes, Cfg.LineBytes);
  DCache.configure(Cfg.DCacheBytes, Cfg.LineBytes);
}

const CallConv &AlphaSim::defaultConv() const {
  return alphaTargetInfo().DefaultCC;
}

void AlphaSim::flushCaches() {
  ICache.flush();
  DCache.flush();
}

void AlphaSim::warmData(SimAddr A, size_t Len) { DCache.warm(A, Len); }

uint32_t AlphaSim::fetch(SimAddr A) {
  if (Cfg.ModelCaches && !ICache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.ICacheMisses;
  }
  return Mem.read<uint32_t>(A);
}

uint64_t AlphaSim::loadMem(SimAddr A, unsigned Bytes) {
  if (Cfg.ModelCaches && !DCache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.DCacheMisses;
  }
  if (A & (Bytes - 1))
    fatalKind(CgErrKind::SimFault,
        "alpha sim: unaligned %u-byte load at 0x%llx", Bytes,
          (unsigned long long)A);
  if (Bytes == 4)
    return Mem.read<uint32_t>(A);
  return Mem.read<uint64_t>(A);
}

void AlphaSim::storeMem(SimAddr A, unsigned Bytes, uint64_t V) {
  if (Cfg.ModelCaches && !DCache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.DCacheMisses;
  }
  if (A & (Bytes - 1))
    fatalKind(CgErrKind::SimFault,
        "alpha sim: unaligned %u-byte store at 0x%llx", Bytes,
          (unsigned long long)A);
  if (Bytes == 4)
    Mem.write<uint32_t>(A, uint32_t(V));
  else
    Mem.write<uint64_t>(A, V);
}

double AlphaSim::getT(unsigned N) const {
  double V;
  std::memcpy(&V, &F[N], 8);
  return V;
}

void AlphaSim::setT(unsigned N, double V) {
  if (N == 31)
    return;
  std::memcpy(&F[N], &V, 8);
}

void AlphaSim::step() {
  SimAddr InstrPC = PC;
  const uint32_t I = fetch(InstrPC);
  const Insn D = decode(I);
  PC += 4;
  ++Stats.Instrs;
  ++Stats.Cycles;

  const unsigned Ra = D.Ra, Rb = D.Rb, Rc = D.Rc;
  auto W = [this](unsigned N, uint64_t V) {
    if (N != 31)
      R[N] = V;
  };
  auto BranchTo = [&] { PC = branchTarget(InstrPC, D); };
  // Operands, read only by the instructions that use them: reading them
  // before the switch slows the interpreter (EXPERIMENTS E20).
  auto Addr = [&] { return R[Rb] + uint64_t(int64_t(D.Disp16)); };
  // Operate format: Ra op (literal or Rb) -> Rc.
  auto A = [&] { return R[Ra]; };
  auto B = [&] { return D.UseLit ? uint64_t(D.Lit) : R[Rb]; };
  auto Sh = [&] { return unsigned(B() & 63); };
  auto ByteIdx = [&] { return unsigned(B() & 7); };

  switch (D.Op) {
  case Opc::Invalid:
    fatalKind(CgErrKind::SimFault,
              "alpha sim: unknown instruction 0x%08x at 0x%llx", I,
              (unsigned long long)InstrPC);
  case Opc::Lda:
    W(Ra, Addr());
    return;
  case Opc::Ldah:
    W(Ra, R[Rb] + (uint64_t(int64_t(D.Disp16)) << 16));
    return;
  case Opc::LdqU:
    W(Ra, loadMem(Addr() & ~SimAddr(7), 8));
    return;
  case Opc::StqU:
    storeMem(Addr() & ~SimAddr(7), 8, R[Ra]);
    return;
  case Opc::Ldl:
    W(Ra, uint64_t(int64_t(int32_t(loadMem(Addr(), 4)))));
    return;
  case Opc::Ldq:
    W(Ra, loadMem(Addr(), 8));
    return;
  case Opc::Stl:
    storeMem(Addr(), 4, R[Ra]);
    return;
  case Opc::Stq:
    storeMem(Addr(), 8, R[Ra]);
    return;
  case Opc::Lds: { // S-format memory -> T-format register
    uint32_t Bits = uint32_t(loadMem(Addr(), 4));
    float Fv;
    std::memcpy(&Fv, &Bits, 4);
    setT(Ra, double(Fv));
    return;
  }
  case Opc::Sts: {
    float Fv = float(getT(Ra));
    uint32_t Bits;
    std::memcpy(&Bits, &Fv, 4);
    storeMem(Addr(), 4, Bits);
    return;
  }
  case Opc::Ldt:
    if (Ra != 31)
      F[Ra] = loadMem(Addr(), 8);
    return;
  case Opc::Stt:
    storeMem(Addr(), 8, F[Ra]);
    return;

  case Opc::Br:
  case Opc::Bsr:
    W(Ra, InstrPC + 4);
    BranchTo();
    return;
  case Opc::Beq:
    if (R[Ra] == 0)
      BranchTo();
    return;
  case Opc::Bne:
    if (R[Ra] != 0)
      BranchTo();
    return;
  case Opc::Blt:
    if (int64_t(R[Ra]) < 0)
      BranchTo();
    return;
  case Opc::Ble:
    if (int64_t(R[Ra]) <= 0)
      BranchTo();
    return;
  case Opc::Bgt:
    if (int64_t(R[Ra]) > 0)
      BranchTo();
    return;
  case Opc::Bge:
    if (int64_t(R[Ra]) >= 0)
      BranchTo();
    return;
  case Opc::Fbeq: // true for +0.0/-0.0
    if ((F[Ra] << 1) == 0)
      BranchTo();
    return;
  case Opc::Fbne:
    if ((F[Ra] << 1) != 0)
      BranchTo();
    return;

  case Opc::Jmp:
  case Opc::Jsr:
  case Opc::Ret: { // read the target before linking: Ra may == Rb
    SimAddr Target = R[Rb] & ~SimAddr(3);
    W(Ra, InstrPC + 4);
    PC = Target;
    return;
  }

  case Opc::Addl:
    W(Rc, uint64_t(int64_t(int32_t(uint32_t(A()) + uint32_t(B())))));
    return;
  case Opc::Subl:
    W(Rc, uint64_t(int64_t(int32_t(uint32_t(A()) - uint32_t(B())))));
    return;
  case Opc::Addq:
    W(Rc, A() + B());
    return;
  case Opc::Subq:
    W(Rc, A() - B());
    return;
  case Opc::Cmpeq:
    W(Rc, A() == B() ? 1 : 0);
    return;
  case Opc::Cmplt:
    W(Rc, int64_t(A()) < int64_t(B()) ? 1 : 0);
    return;
  case Opc::Cmple:
    W(Rc, int64_t(A()) <= int64_t(B()) ? 1 : 0);
    return;
  case Opc::Cmpult:
    W(Rc, A() < B() ? 1 : 0);
    return;
  case Opc::Cmpule:
    W(Rc, A() <= B() ? 1 : 0);
    return;
  case Opc::And:
    W(Rc, A() & B());
    return;
  case Opc::Bis:
    W(Rc, A() | B());
    return;
  case Opc::Xor:
    W(Rc, A() ^ B());
    return;
  case Opc::Ornot:
    W(Rc, A() | ~B());
    return;
  case Opc::Bic:
    W(Rc, A() & ~B());
    return;
  case Opc::Sll:
    W(Rc, A() << Sh());
    return;
  case Opc::Srl:
    W(Rc, A() >> Sh());
    return;
  case Opc::Sra:
    W(Rc, uint64_t(int64_t(A()) >> Sh()));
    return;
  case Opc::Extbl:
    W(Rc, (A() >> (8 * ByteIdx())) & 0xff);
    return;
  case Opc::Extwl:
    W(Rc, (A() >> (8 * ByteIdx())) & 0xffff);
    return;
  case Opc::Insbl:
    W(Rc, (A() & 0xff) << (8 * ByteIdx()));
    return;
  case Opc::Inswl:
    W(Rc, (A() & 0xffff) << (8 * ByteIdx()));
    return;
  case Opc::Mskbl:
    W(Rc, A() & ~(uint64_t(0xff) << (8 * ByteIdx())));
    return;
  case Opc::Mskwl:
    W(Rc, A() & ~(uint64_t(0xffff) << (8 * ByteIdx())));
    return;
  case Opc::Zapnot:
  case Opc::Zap: {
    uint64_t Mask = 0;
    for (unsigned K = 0; K < 8; ++K)
      if (B() & (1u << K))
        Mask |= uint64_t(0xff) << (8 * K);
    W(Rc, D.Op == Opc::Zapnot ? A() & Mask : A() & ~Mask);
    return;
  }
  case Opc::Mull:
    W(Rc, uint64_t(int64_t(int32_t(uint32_t(A()) * uint32_t(B())))));
    Stats.Cycles += Cfg.MulCycles;
    return;
  case Opc::Mulq:
    W(Rc, A() * B());
    Stats.Cycles += Cfg.MulCycles;
    return;
  case Opc::Umulh:
    W(Rc, uint64_t((__uint128_t(A()) * __uint128_t(B())) >> 64));
    Stats.Cycles += Cfg.MulCycles;
    return;

  case Opc::Sqrts:
    setT(Rc, double(float(std::sqrt(getT(Rb)))));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Sqrtt:
    setT(Rc, std::sqrt(getT(Rb)));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Adds:
    setT(Rc, double(float(getT(Ra)) + float(getT(Rb))));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Addt:
    setT(Rc, getT(Ra) + getT(Rb));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Subs:
    setT(Rc, double(float(getT(Ra)) - float(getT(Rb))));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Subt:
    setT(Rc, getT(Ra) - getT(Rb));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::Muls:
    setT(Rc, double(float(getT(Ra)) * float(getT(Rb))));
    Stats.Cycles += Cfg.FpMulCycles - 1;
    return;
  case Opc::Mult:
    setT(Rc, getT(Ra) * getT(Rb));
    Stats.Cycles += Cfg.FpMulCycles - 1;
    return;
  case Opc::Divs:
    setT(Rc, double(float(getT(Ra)) / float(getT(Rb))));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Divt:
    setT(Rc, getT(Ra) / getT(Rb));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::Cmpteq:
    setT(Rc, getT(Ra) == getT(Rb) ? 2.0 : 0.0);
    return;
  case Opc::Cmptlt:
    setT(Rc, getT(Ra) < getT(Rb) ? 2.0 : 0.0);
    return;
  case Opc::Cmptle:
    setT(Rc, getT(Ra) <= getT(Rb) ? 2.0 : 0.0);
    return;
  case Opc::Cvtqs:
    setT(Rc, double(float(int64_t(F[Rb]))));
    return;
  case Opc::Cvtqt:
    setT(Rc, double(int64_t(F[Rb])));
    return;
  case Opc::Cvttqc:
    if (Rc != 31)
      F[Rc] = uint64_t(int64_t(getT(Rb)));
    return;
  case Opc::Cvtts:
    setT(Rc, double(float(getT(Rb))));
    return;
  case Opc::Cpys:
  case Opc::Cpysn: {
    constexpr uint64_t SignBit = uint64_t(1) << 63;
    uint64_t Sign = (F[Ra] & SignBit) ^ (D.Op == Opc::Cpysn ? SignBit : 0);
    if (Rc != 31)
      F[Rc] = Sign | (F[Rb] & ~SignBit);
    return;
  }
  }
  unreachable("bad Alpha opcode");
}

TypedValue AlphaSim::callWithConv(const CallConv &CC, SimAddr Entry,
                                  const std::vector<TypedValue> &Args,
                                  Type RetTy) {
  Stats = RunStats();
  std::memset(R, 0, sizeof(R));
  std::memset(F, 0, sizeof(F));

  R[SP] = initialSp(Mem);
  unsigned Link = CC.LinkReg.isValid() ? unsigned(CC.LinkReg.Num) : unsigned(RA);
  R[Link] = StopAddr;

  std::vector<Type> Types;
  Types.reserve(Args.size());
  for (const TypedValue &A : Args)
    Types.push_back(A.Ty);
  std::vector<ArgLoc> Locs = computeArgLocs(CC, Types, 8);
  for (size_t I = 0; I < Args.size(); ++I) {
    const ArgLoc &L = Locs[I];
    const TypedValue &A = Args[I];
    uint64_t Bits = A.Bits;
    // Integer values travel in canonical (sign-extended) longword form.
    if (A.Ty == Type::I || A.Ty == Type::U)
      Bits = uint64_t(int64_t(int32_t(uint32_t(Bits))));
    if (!L.OnStack) {
      if (L.R.isInt()) {
        R[L.R.Num] = Bits;
      } else if (A.Ty == Type::F) {
        // Register F values are held in T format.
        float Fv = A.asFloat();
        double Dv = double(Fv);
        std::memcpy(&F[L.R.Num], &Dv, 8);
      } else {
        F[L.R.Num] = A.Bits;
      }
      continue;
    }
    SimAddr Slot = R[SP] + uint32_t(L.StackOff);
    if (A.Ty == Type::F)
      Mem.write<uint32_t>(Slot, uint32_t(A.Bits)); // read back with lds
    else if (A.Ty == Type::I || A.Ty == Type::U)
      Mem.write<uint32_t>(Slot, uint32_t(A.Bits)); // read back with ldl
    else
      Mem.write<uint64_t>(Slot, Bits);
  }

  PC = Entry;
  while (PC != StopAddr) {
    if (Stats.Instrs >= InstrLimit)
      fatalKind(CgErrKind::SimFault,
          "alpha sim: instruction limit exceeded; runaway code?");
    VCODE_PF_SAMPLE_VPC(++PfClock, PC);
    step();
  }

  TypedValue Res;
  Res.Ty = RetTy;
  if (RetTy == Type::D) {
    Res.Bits = F[CC.FpRet.Num];
  } else if (RetTy == Type::F) {
    float Fv = float(getT(CC.FpRet.Num));
    uint32_t B;
    std::memcpy(&B, &Fv, 4);
    Res.Bits = B;
  } else if (RetTy == Type::I || RetTy == Type::C || RetTy == Type::S) {
    Res.Bits = uint64_t(int64_t(int32_t(uint32_t(R[CC.IntRet.Num]))));
  } else if (RetTy == Type::U || RetTy == Type::UC || RetTy == Type::US) {
    Res.Bits = uint32_t(R[CC.IntRet.Num]);
  } else {
    Res.Bits = R[CC.IntRet.Num];
  }
  finishRun(Stats);
  return Res;
}
