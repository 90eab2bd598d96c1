//===- sim/MipsSim.cpp - MIPS32 (R3000-class) simulator --------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/MipsSim.h"
#include "mips/MipsDecode.h"
#include "mips/MipsTarget.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;

MipsSim::MipsSim(Memory &M, MachineConfig C)
    : Interp(M, C, mips::mipsTargetInfo().DefaultCC) {}

/// Conservative approximation of "instruction reads register N" for the
/// load-use interlock cost model. It reads the raw word rather than the
/// decoded Opc on purpose: its exact answers, the conservative ones for
/// lwc1/ldc1 and undecodable words included, fix the simulated cycle
/// counts of Tables 3 and 4.
static bool readsReg(uint32_t I, unsigned N) {
  if (N == 0)
    return false;
  unsigned Op = I >> 26;
  unsigned Rs = (I >> 21) & 31;
  unsigned Rt = (I >> 16) & 31;
  if (Op == 0x0f) // lui reads nothing
    return false;
  if (Rs == N)
    return true;
  // rt is a source for R-type ALU ops, stores, and beq/bne.
  bool RtIsSource = Op == 0 || (Op >= 0x28 && Op <= 0x3d) || Op == 4 || Op == 5;
  return RtIsSource && Rt == N;
}

void MipsSim::chargeLoadUse(uint32_t Instr) {
  if (LastLoadReg > 0 && readsReg(Instr, unsigned(LastLoadReg))) {
    ++Stats.Cycles;
    ++Stats.LoadStalls;
  }
  LastLoadReg = -1;
}

void MipsSim::step() {
  using mips::Opc;
  SimAddr InstrPC = PC;
  uint32_t I = fetch(InstrPC);
  PC = NPC;
  NPC += 4;
  ++Stats.Instrs;
  ++Stats.Cycles;
  chargeLoadUse(I);

  const mips::Insn D = mips::decode(I);
  unsigned Rs = D.Rs, Rt = D.Rt, Rd = D.Rd, Sh = D.Sh;
  int32_t Imm = D.Imm;
  uint32_t UImm = D.UImm;
  auto W = [this](unsigned N, uint32_t V) {
    if (N)
      R[N] = V;
  };
  auto Branch = [&](bool Taken) {
    if (Taken)
      NPC = mips::branchTarget(InstrPC, D);
  };
  // COP1 arithmetic: fmt 17 is double, any other fmt single.
  unsigned Ft = Rt, Fs = Rd, Fd = Sh;
  bool Dbl = mips::isDouble(D);

  switch (D.Op) {
  case Opc::Sll:
    W(Rd, R[Rt] << Sh);
    return;
  case Opc::Srl:
    W(Rd, R[Rt] >> Sh);
    return;
  case Opc::Sra:
    W(Rd, uint32_t(int32_t(R[Rt]) >> Sh));
    return;
  case Opc::Sllv:
    W(Rd, R[Rt] << (R[Rs] & 31));
    return;
  case Opc::Srlv:
    W(Rd, R[Rt] >> (R[Rs] & 31));
    return;
  case Opc::Srav:
    W(Rd, uint32_t(int32_t(R[Rt]) >> (R[Rs] & 31)));
    return;
  case Opc::Jr:
    NPC = R[Rs];
    return;
  case Opc::Jalr:
    W(Rd, uint32_t(InstrPC + 8));
    NPC = R[Rs];
    return;
  case Opc::Mfhi:
    W(Rd, HI);
    return;
  case Opc::Mflo:
    W(Rd, LO);
    return;
  case Opc::Mthi:
    HI = R[Rs];
    return;
  case Opc::Mtlo:
    LO = R[Rs];
    return;
  case Opc::Mult: {
    int64_t P = int64_t(int32_t(R[Rs])) * int64_t(int32_t(R[Rt]));
    LO = uint32_t(P);
    HI = uint32_t(uint64_t(P) >> 32);
    Stats.Cycles += Cfg.MulCycles;
    return;
  }
  case Opc::Multu: {
    uint64_t P = uint64_t(R[Rs]) * uint64_t(R[Rt]);
    LO = uint32_t(P);
    HI = uint32_t(P >> 32);
    Stats.Cycles += Cfg.MulCycles;
    return;
  }
  case Opc::Div:
    if (R[Rt] == 0) {
      LO = 0;
      HI = R[Rs];
    } else if (int32_t(R[Rs]) == INT32_MIN && int32_t(R[Rt]) == -1) {
      LO = R[Rs];
      HI = 0;
    } else {
      LO = uint32_t(int32_t(R[Rs]) / int32_t(R[Rt]));
      HI = uint32_t(int32_t(R[Rs]) % int32_t(R[Rt]));
    }
    Stats.Cycles += Cfg.DivCycles;
    return;
  case Opc::Divu:
    if (R[Rt] == 0) {
      LO = 0;
      HI = R[Rs];
    } else {
      LO = R[Rs] / R[Rt];
      HI = R[Rs] % R[Rt];
    }
    Stats.Cycles += Cfg.DivCycles;
    return;
  case Opc::Add: // no overflow traps modeled
  case Opc::Addu:
    W(Rd, R[Rs] + R[Rt]);
    return;
  case Opc::Sub:
  case Opc::Subu:
    W(Rd, R[Rs] - R[Rt]);
    return;
  case Opc::And:
    W(Rd, R[Rs] & R[Rt]);
    return;
  case Opc::Or:
    W(Rd, R[Rs] | R[Rt]);
    return;
  case Opc::Xor:
    W(Rd, R[Rs] ^ R[Rt]);
    return;
  case Opc::Nor:
    W(Rd, ~(R[Rs] | R[Rt]));
    return;
  case Opc::Slt:
    W(Rd, int32_t(R[Rs]) < int32_t(R[Rt]) ? 1 : 0);
    return;
  case Opc::Sltu:
    W(Rd, R[Rs] < R[Rt] ? 1 : 0);
    return;

  case Opc::Bltz:
    Branch(int32_t(R[Rs]) < 0);
    return;
  case Opc::Bgez:
    Branch(int32_t(R[Rs]) >= 0);
    return;
  case Opc::Jal:
    R[31] = uint32_t(InstrPC + 8);
    [[fallthrough]];
  case Opc::J:
    NPC = mips::jumpTarget(InstrPC, D);
    return;
  case Opc::Beq:
    Branch(R[Rs] == R[Rt]);
    return;
  case Opc::Bne:
    Branch(R[Rs] != R[Rt]);
    return;
  case Opc::Blez:
    Branch(int32_t(R[Rs]) <= 0);
    return;
  case Opc::Bgtz:
    Branch(int32_t(R[Rs]) > 0);
    return;
  case Opc::Addi: // overflow traps not modeled
  case Opc::Addiu:
    W(Rt, R[Rs] + uint32_t(Imm));
    return;
  case Opc::Slti:
    W(Rt, int32_t(R[Rs]) < Imm ? 1 : 0);
    return;
  case Opc::Sltiu:
    W(Rt, R[Rs] < uint32_t(Imm) ? 1 : 0);
    return;
  case Opc::Andi:
    W(Rt, R[Rs] & UImm);
    return;
  case Opc::Ori:
    W(Rt, R[Rs] | UImm);
    return;
  case Opc::Xori:
    W(Rt, R[Rs] ^ UImm);
    return;
  case Opc::Lui:
    W(Rt, UImm << 16);
    return;

  case Opc::Mfc1:
    W(Rt, FPR[Rd]);
    return;
  case Opc::Mtc1:
    FPR[Rd] = R[Rt];
    return;
  case Opc::Bc1f:
    Branch(!FpCond);
    return;
  case Opc::Bc1t:
    Branch(FpCond);
    return;
  case Opc::AddF:
    Dbl ? setD(Fd, getD(Fs) + getD(Ft)) : setS(Fd, getS(Fs) + getS(Ft));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::SubF:
    Dbl ? setD(Fd, getD(Fs) - getD(Ft)) : setS(Fd, getS(Fs) - getS(Ft));
    Stats.Cycles += Cfg.FpAddCycles - 1;
    return;
  case Opc::MulF:
    Dbl ? setD(Fd, getD(Fs) * getD(Ft)) : setS(Fd, getS(Fs) * getS(Ft));
    Stats.Cycles += Cfg.FpMulCycles - 1;
    return;
  case Opc::DivF:
    Dbl ? setD(Fd, getD(Fs) / getD(Ft)) : setS(Fd, getS(Fs) / getS(Ft));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::SqrtF:
    Dbl ? setD(Fd, std::sqrt(getD(Fs))) : setS(Fd, std::sqrt(getS(Fs)));
    Stats.Cycles += Cfg.FpDivCycles - 1;
    return;
  case Opc::AbsF:
    Dbl ? setD(Fd, std::fabs(getD(Fs))) : setS(Fd, std::fabs(getS(Fs)));
    return;
  case Opc::MovF:
    Dbl ? setD(Fd, getD(Fs)) : setS(Fd, getS(Fs));
    return;
  case Opc::NegF:
    Dbl ? setD(Fd, -getD(Fs)) : setS(Fd, -getS(Fs));
    return;
  case Opc::TruncW: {
    double V = Dbl ? getD(Fs) : double(getS(Fs));
    FPR[Fd] = uint32_t(int32_t(V));
    return;
  }
  case Opc::CvtS: // from double (fmt 17) or word (fmt 20)
    if (Rs == 17)
      setS(Fd, float(getD(Fs)));
    else if (Rs == 20)
      setS(Fd, float(int32_t(FPR[Fs])));
    else
      fatalKind(CgErrKind::SimFault,
          "mips sim: cvt.s from fmt %u", Rs);
    return;
  case Opc::CvtD: // from single (fmt 16) or word (fmt 20)
    if (Rs == 16)
      setD(Fd, double(getS(Fs)));
    else if (Rs == 20)
      setD(Fd, double(int32_t(FPR[Fs])));
    else
      fatalKind(CgErrKind::SimFault,
          "mips sim: cvt.d from fmt %u", Rs);
    return;
  case Opc::CvtW: // round-to-nearest not modeled; truncates
    FPR[Fd] = uint32_t(int32_t(Dbl ? getD(Fs) : double(getS(Fs))));
    return;
  case Opc::CEq:
    FpCond = Dbl ? getD(Fs) == getD(Ft) : getS(Fs) == getS(Ft);
    return;
  case Opc::CLt:
    FpCond = Dbl ? getD(Fs) < getD(Ft) : getS(Fs) < getS(Ft);
    return;
  case Opc::CLe:
    FpCond = Dbl ? getD(Fs) <= getD(Ft) : getS(Fs) <= getS(Ft);
    return;

  case Opc::Lb:
    W(Rt, uint32_t(load<int8_t>(R[Rs] + uint32_t(Imm))));
    LastLoadReg = int(Rt);
    return;
  case Opc::Lh:
    W(Rt, uint32_t(load<int16_t>(R[Rs] + uint32_t(Imm))));
    LastLoadReg = int(Rt);
    return;
  case Opc::Lw:
    W(Rt, load<uint32_t>(R[Rs] + uint32_t(Imm)));
    LastLoadReg = int(Rt);
    return;
  case Opc::Lbu:
    W(Rt, load<uint8_t>(R[Rs] + uint32_t(Imm)));
    LastLoadReg = int(Rt);
    return;
  case Opc::Lhu:
    W(Rt, load<uint16_t>(R[Rs] + uint32_t(Imm)));
    LastLoadReg = int(Rt);
    return;
  case Opc::Sb:
    store(R[Rs] + uint32_t(Imm), uint8_t(R[Rt]));
    return;
  case Opc::Sh:
    store(R[Rs] + uint32_t(Imm), uint16_t(R[Rt]));
    return;
  case Opc::Sw:
    store(R[Rs] + uint32_t(Imm), R[Rt]);
    return;
  case Opc::Lwc1:
    FPR[Rt] = load<uint32_t>(R[Rs] + uint32_t(Imm));
    return;
  case Opc::Ldc1: {
    SimAddr A = R[Rs] + uint32_t(Imm);
    FPR[Rt] = load<uint32_t>(A);
    FPR[Rt + 1] = load<uint32_t>(A + 4);
    return;
  }
  case Opc::Swc1:
    store(R[Rs] + uint32_t(Imm), FPR[Rt]);
    return;
  case Opc::Sdc1: {
    SimAddr A = R[Rs] + uint32_t(Imm);
    store(A, FPR[Rt]);
    store(A + 4, FPR[Rt + 1]);
    return;
  }
  case Opc::Invalid:
    break;
  }
  mips::InvalidField Bad = mips::invalidField(I);
  fatalKind(CgErrKind::SimFault, "mips sim: unknown %s 0x%x at 0x%llx",
            Bad.What, Bad.Value, (unsigned long long)InstrPC);
}

void MipsSim::exportState(ArchState &S) const {
  std::memcpy(S.R, R, sizeof(R));
  std::memcpy(S.FPR, FPR, sizeof(FPR));
  S.HI = HI;
  S.LO = LO;
  S.FpCond = FpCond;
}

void MipsSim::importState(const ArchState &S) {
  std::memcpy(R, S.R, sizeof(R));
  R[0] = 0;
  std::memcpy(FPR, S.FPR, sizeof(FPR));
  HI = S.HI;
  LO = S.LO;
  FpCond = S.FpCond;
}

SimAddr MipsSim::stepUnit(SimAddr At) {
  PC = At;
  NPC = At + 4;
  // A unit is one instruction, extended while the pipeline is mid-transfer:
  // after a CTI executes, NPC != PC + 4 and the delay slot (possibly itself
  // a CTI, extending the chain) must run before control is architecturally
  // at rest again.
  do {
    checkLimit();
    step();
  } while (PC != StopAddr && NPC != PC + 4);
  return PC;
}

void MipsSim::resetForCall(const CallConv &CC, SimAddr Entry, SimAddr Sp) {
  resetRegsForCall(*this, CC, Sp);
  LastLoadReg = -1;
  NPC = Entry + 4;
}

template class vcode::sim::Interp<MipsSim>;
