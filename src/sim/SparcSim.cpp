//===- sim/SparcSim.cpp - SPARC V8 simulator --------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/SparcSim.h"
#include "sparc/SparcDecode.h"
#include "sparc/SparcTarget.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;
using namespace vcode::sparc;

SparcSim::SparcSim(Memory &M, MachineConfig C)
    : Interp(M, C, sparcTargetInfo().DefaultCC) {}

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
    W(Rd, load<uint32_t>(Addr()));
    return;
  case Opc::Ldub:
    W(Rd, load<uint8_t>(Addr()));
    return;
  case Opc::Lduh:
    W(Rd, load<uint16_t>(Addr()));
    return;
  case Opc::Ldsb:
    W(Rd, uint32_t(load<int8_t>(Addr())));
    return;
  case Opc::Ldsh:
    W(Rd, uint32_t(load<int16_t>(Addr())));
    return;
  case Opc::St:
    store(Addr(), R[Rd]);
    return;
  case Opc::Stb:
    store(Addr(), uint8_t(R[Rd]));
    return;
  case Opc::Sth:
    store(Addr(), uint16_t(R[Rd]));
    return;
  case Opc::Ldf:
    FPR[Rd] = load<uint32_t>(Addr());
    return;
  case Opc::Lddf:
    FPR[Rd] = load<uint32_t>(Addr());
    FPR[Rd + 1] = load<uint32_t>(Addr() + 4);
    return;
  case Opc::Stf:
    store(Addr(), FPR[Rd]);
    return;
  case Opc::Stdf:
    store(Addr(), FPR[Rd]);
    store(Addr() + 4, FPR[Rd + 1]);
    return;
  }
  unreachable("bad SPARC opcode");
}

void SparcSim::resetForCall(const CallConv &CC, SimAddr Entry, SimAddr Sp) {
  std::memset(R, 0, sizeof(R));
  Y = 0;
  IccN = IccZ = IccV = IccC = false;
  Fcc = 0;
  R[SP] = uint32_t(Sp);
  unsigned Link = CC.LinkReg.isValid() ? unsigned(CC.LinkReg.Num) : unsigned(O7);
  R[Link] = uint32_t(StopAddr - 8); // retl jumps to link+8
  NPC = Entry + 4;
}

template class vcode::sim::Interp<SparcSim>;
