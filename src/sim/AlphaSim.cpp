//===- sim/AlphaSim.cpp - Alpha (21064-class) simulator ----------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/AlphaSim.h"
#include "alpha/AlphaDecode.h"
#include "alpha/AlphaTarget.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;
using namespace vcode::alpha;

AlphaSim::AlphaSim(Memory &M, MachineConfig C)
    : Interp(M, C, alphaTargetInfo().DefaultCC) {}

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
    W(Ra, load<uint64_t>(Addr() & ~SimAddr(7)));
    return;
  case Opc::StqU:
    store(Addr() & ~SimAddr(7), R[Ra]);
    return;
  case Opc::Ldl:
    W(Ra, uint64_t(load<int32_t>(Addr())));
    return;
  case Opc::Ldq:
    W(Ra, load<uint64_t>(Addr()));
    return;
  case Opc::Stl:
    store(Addr(), uint32_t(R[Ra]));
    return;
  case Opc::Stq:
    store(Addr(), R[Ra]);
    return;
  case Opc::Lds: { // S-format memory -> T-format register
    uint32_t Bits = load<uint32_t>(Addr());
    float Fv;
    std::memcpy(&Fv, &Bits, 4);
    setT(Ra, double(Fv));
    return;
  }
  case Opc::Sts: {
    float Fv = float(getT(Ra));
    uint32_t Bits;
    std::memcpy(&Bits, &Fv, 4);
    store(Addr(), Bits);
    return;
  }
  case Opc::Ldt:
    if (Ra != 31)
      F[Ra] = load<uint64_t>(Addr());
    return;
  case Opc::Stt:
    store(Addr(), F[Ra]);
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

void AlphaSim::resetForCall(const CallConv &CC, SimAddr, SimAddr Sp) {
  std::memset(R, 0, sizeof(R));
  std::memset(F, 0, sizeof(F));
  R[SP] = Sp;
  R[CC.LinkReg.isValid() ? unsigned(CC.LinkReg.Num) : unsigned(RA)] = StopAddr;
}

void AlphaSim::setArg(Reg Loc, const TypedValue &A) {
  if (Loc.isInt()) {
    // Integer values travel in canonical (sign-extended) longword form.
    bool Longword = A.Ty == Type::I || A.Ty == Type::U;
    R[Loc.Num] = Longword ? uint64_t(int64_t(int32_t(uint32_t(A.Bits))))
                          : A.Bits;
  } else if (A.Ty == Type::F) {
    // Register F values are held in T format.
    double Dv = double(A.asFloat());
    std::memcpy(&F[Loc.Num], &Dv, 8);
  } else {
    F[Loc.Num] = A.Bits;
  }
}

void AlphaSim::storeArg(Memory &M, SimAddr Slot, const TypedValue &A) {
  // F slots are read back with lds, I and U slots with ldl.
  if (A.Ty == Type::F || A.Ty == Type::I || A.Ty == Type::U)
    M.write<uint32_t>(Slot, uint32_t(A.Bits));
  else
    M.write<uint64_t>(Slot, A.Bits);
}

uint64_t AlphaSim::resultBits(const CallConv &CC, Type RetTy) const {
  if (RetTy == Type::D)
    return F[CC.FpRet.Num];
  if (RetTy == Type::F) {
    float Fv = float(getT(CC.FpRet.Num));
    uint32_t B;
    std::memcpy(&B, &Fv, 4);
    return B;
  }
  if (RetTy == Type::I || RetTy == Type::C || RetTy == Type::S)
    return uint64_t(int64_t(int32_t(uint32_t(R[CC.IntRet.Num]))));
  if (RetTy == Type::U || RetTy == Type::UC || RetTy == Type::US)
    return uint32_t(R[CC.IntRet.Num]);
  return R[CC.IntRet.Num];
}

template class vcode::sim::Interp<AlphaSim>;
