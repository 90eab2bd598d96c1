//===- sim/MipsSim.cpp - MIPS32 (R3000-class) simulator --------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "sim/MipsSim.h"
#include "mips/MipsTarget.h"
#include "profile/Profiler.h"
#include "support/BitUtils.h"
#include "support/Telemetry.h"
#include <cmath>
#include <cstring>

using namespace vcode;
using namespace vcode::sim;

// Virtual method anchor.
Cpu::~Cpu() = default;

void Cpu::finishRun(const RunStats &S) {
  accumulateStats(S);
  VCODE_TM_COUNT_BATCHED("sim.calls", 1);
  VCODE_TM_COUNT_BATCHED("sim.instrs", S.Instrs);
  VCODE_TM_COUNT_BATCHED("sim.cycles", S.Cycles);
  VCODE_TM_COUNT_BATCHED("sim.icache_misses", S.ICacheMisses);
  VCODE_TM_COUNT_BATCHED("sim.dcache_misses", S.DCacheMisses);
  VCODE_TM_COUNT_BATCHED("sim.load_stalls", S.LoadStalls);
}

MipsSim::MipsSim(Memory &M, MachineConfig C) : Mem(M), Cfg(C) {
  ICache.configure(Cfg.ICacheBytes, Cfg.LineBytes);
  DCache.configure(Cfg.DCacheBytes, Cfg.LineBytes);
}

const CallConv &MipsSim::defaultConv() const {
  return mips::mipsTargetInfo().DefaultCC;
}

void MipsSim::flushCaches() {
  ICache.flush();
  DCache.flush();
}

void MipsSim::warmData(SimAddr A, size_t Len) { DCache.warm(A, Len); }

uint32_t MipsSim::fetch(SimAddr A) {
  if (Cfg.ModelCaches && !ICache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.ICacheMisses;
  }
  return Mem.read<uint32_t>(A);
}

uint32_t MipsSim::loadMem(SimAddr A, unsigned Bytes, bool SignExtend) {
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
          "mips sim: unaligned halfword load at 0x%llx",
            (unsigned long long)A);
    uint16_t V = Mem.read<uint16_t>(A);
    return SignExtend ? uint32_t(int32_t(int16_t(V))) : V;
  }
  case 4:
    if (A & 3)
      fatalKind(CgErrKind::SimFault,
          "mips sim: unaligned word load at 0x%llx", (unsigned long long)A);
    return Mem.read<uint32_t>(A);
  }
  unreachable("bad load size");
}

void MipsSim::storeMem(SimAddr A, unsigned Bytes, uint32_t V) {
  if (Cfg.ModelCaches && !DCache.access(A)) {
    Stats.Cycles += Cfg.MissPenalty;
    ++Stats.DCacheMisses;
  }
  switch (Bytes) {
  case 1:
    Mem.write<uint8_t>(A, uint8_t(V));
    return;
  case 2:
    if (A & 1)
      fatalKind(CgErrKind::SimFault,
          "mips sim: unaligned halfword store at 0x%llx",
            (unsigned long long)A);
    Mem.write<uint16_t>(A, uint16_t(V));
    return;
  case 4:
    if (A & 3)
      fatalKind(CgErrKind::SimFault,
          "mips sim: unaligned word store at 0x%llx", (unsigned long long)A);
    Mem.write<uint32_t>(A, V);
    return;
  }
  unreachable("bad store size");
}

float MipsSim::getS(unsigned F) const {
  float V;
  std::memcpy(&V, &FPR[F], 4);
  return V;
}

void MipsSim::setS(unsigned F, float V) { std::memcpy(&FPR[F], &V, 4); }

double MipsSim::getD(unsigned F) const {
  uint64_t Bits = uint64_t(FPR[F]) | (uint64_t(FPR[F + 1]) << 32);
  double V;
  std::memcpy(&V, &Bits, 8);
  return V;
}

void MipsSim::setD(unsigned F, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  FPR[F] = uint32_t(Bits);
  FPR[F + 1] = uint32_t(Bits >> 32);
}

/// Conservative approximation of "instruction reads register N" for the
/// load-use interlock cost model.
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
  SimAddr InstrPC = PC;
  uint32_t I = fetch(InstrPC);
  PC = NPC;
  NPC += 4;
  ++Stats.Instrs;
  ++Stats.Cycles;
  chargeLoadUse(I);

  unsigned Op = I >> 26;
  unsigned Rs = (I >> 21) & 31;
  unsigned Rt = (I >> 16) & 31;
  unsigned Rd = (I >> 11) & 31;
  unsigned Sh = (I >> 6) & 31;
  unsigned Fn = I & 63;
  int32_t Imm = signExtend32<16>(I & 0xffff);
  uint32_t UImm = I & 0xffff;
  auto W = [this](unsigned N, uint32_t V) {
    if (N)
      R[N] = V;
  };

  switch (Op) {
  case 0x00: // SPECIAL
    switch (Fn) {
    case 0x00:
      W(Rd, R[Rt] << Sh);
      return;
    case 0x02:
      W(Rd, R[Rt] >> Sh);
      return;
    case 0x03:
      W(Rd, uint32_t(int32_t(R[Rt]) >> Sh));
      return;
    case 0x04:
      W(Rd, R[Rt] << (R[Rs] & 31));
      return;
    case 0x06:
      W(Rd, R[Rt] >> (R[Rs] & 31));
      return;
    case 0x07:
      W(Rd, uint32_t(int32_t(R[Rt]) >> (R[Rs] & 31)));
      return;
    case 0x08: // jr
      NPC = R[Rs];
      return;
    case 0x09: // jalr
      W(Rd, uint32_t(InstrPC + 8));
      NPC = R[Rs];
      return;
    case 0x10:
      W(Rd, HI);
      return;
    case 0x12:
      W(Rd, LO);
      return;
    case 0x11:
      HI = R[Rs];
      return;
    case 0x13:
      LO = R[Rs];
      return;
    case 0x18: { // mult
      int64_t P = int64_t(int32_t(R[Rs])) * int64_t(int32_t(R[Rt]));
      LO = uint32_t(P);
      HI = uint32_t(uint64_t(P) >> 32);
      Stats.Cycles += Cfg.MulCycles;
      return;
    }
    case 0x19: { // multu
      uint64_t P = uint64_t(R[Rs]) * uint64_t(R[Rt]);
      LO = uint32_t(P);
      HI = uint32_t(P >> 32);
      Stats.Cycles += Cfg.MulCycles;
      return;
    }
    case 0x1a: // div
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
    case 0x1b: // divu
      if (R[Rt] == 0) {
        LO = 0;
        HI = R[Rs];
      } else {
        LO = R[Rs] / R[Rt];
        HI = R[Rs] % R[Rt];
      }
      Stats.Cycles += Cfg.DivCycles;
      return;
    case 0x20: // add (no overflow traps modeled)
    case 0x21:
      W(Rd, R[Rs] + R[Rt]);
      return;
    case 0x22:
    case 0x23:
      W(Rd, R[Rs] - R[Rt]);
      return;
    case 0x24:
      W(Rd, R[Rs] & R[Rt]);
      return;
    case 0x25:
      W(Rd, R[Rs] | R[Rt]);
      return;
    case 0x26:
      W(Rd, R[Rs] ^ R[Rt]);
      return;
    case 0x27:
      W(Rd, ~(R[Rs] | R[Rt]));
      return;
    case 0x2a:
      W(Rd, int32_t(R[Rs]) < int32_t(R[Rt]) ? 1 : 0);
      return;
    case 0x2b:
      W(Rd, R[Rs] < R[Rt] ? 1 : 0);
      return;
    }
    fatalKind(CgErrKind::SimFault,
        "mips sim: unknown SPECIAL funct 0x%x at 0x%llx", Fn,
          (unsigned long long)InstrPC);
  case 0x01: // REGIMM: bltz/bgez
    if (Rt == 0 ? int32_t(R[Rs]) < 0 : int32_t(R[Rs]) >= 0)
      NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
    return;
  case 0x02: // j
    NPC = (InstrPC & ~SimAddr(0x0fffffff)) | SimAddr((I & 0x03ffffff) << 2);
    return;
  case 0x03: // jal
    R[31] = uint32_t(InstrPC + 8);
    NPC = (InstrPC & ~SimAddr(0x0fffffff)) | SimAddr((I & 0x03ffffff) << 2);
    return;
  case 0x04: // beq
    if (R[Rs] == R[Rt])
      NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
    return;
  case 0x05: // bne
    if (R[Rs] != R[Rt])
      NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
    return;
  case 0x06: // blez
    if (int32_t(R[Rs]) <= 0)
      NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
    return;
  case 0x07: // bgtz
    if (int32_t(R[Rs]) > 0)
      NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
    return;
  case 0x08: // addi (overflow traps not modeled)
  case 0x09:
    W(Rt, R[Rs] + uint32_t(Imm));
    return;
  case 0x0a:
    W(Rt, int32_t(R[Rs]) < Imm ? 1 : 0);
    return;
  case 0x0b:
    W(Rt, R[Rs] < uint32_t(Imm) ? 1 : 0);
    return;
  case 0x0c:
    W(Rt, R[Rs] & UImm);
    return;
  case 0x0d:
    W(Rt, R[Rs] | UImm);
    return;
  case 0x0e:
    W(Rt, R[Rs] ^ UImm);
    return;
  case 0x0f:
    W(Rt, UImm << 16);
    return;

  case 0x11: { // COP1
    unsigned Sub = Rs;
    if (Sub == 0) { // mfc1
      W(Rt, FPR[Rd]);
      return;
    }
    if (Sub == 4) { // mtc1
      FPR[Rd] = R[Rt];
      return;
    }
    if (Sub == 8) { // bc1f/bc1t
      bool WantTrue = (Rt & 1) != 0;
      if (FpCond == WantTrue)
        NPC = InstrPC + 4 + (SimAddr(int64_t(Imm)) << 2);
      return;
    }
    unsigned Fmt = Sub, Ft = Rt, Fs = Rd, Fd = Sh;
    bool Dbl = Fmt == 17;
    switch (Fn) {
    case 0x00:
      Dbl ? setD(Fd, getD(Fs) + getD(Ft)) : setS(Fd, getS(Fs) + getS(Ft));
      Stats.Cycles += Cfg.FpAddCycles - 1;
      return;
    case 0x01:
      Dbl ? setD(Fd, getD(Fs) - getD(Ft)) : setS(Fd, getS(Fs) - getS(Ft));
      Stats.Cycles += Cfg.FpAddCycles - 1;
      return;
    case 0x02:
      Dbl ? setD(Fd, getD(Fs) * getD(Ft)) : setS(Fd, getS(Fs) * getS(Ft));
      Stats.Cycles += Cfg.FpMulCycles - 1;
      return;
    case 0x03:
      Dbl ? setD(Fd, getD(Fs) / getD(Ft)) : setS(Fd, getS(Fs) / getS(Ft));
      Stats.Cycles += Cfg.FpDivCycles - 1;
      return;
    case 0x04:
      Dbl ? setD(Fd, std::sqrt(getD(Fs))) : setS(Fd, std::sqrt(getS(Fs)));
      Stats.Cycles += Cfg.FpDivCycles - 1;
      return;
    case 0x05:
      Dbl ? setD(Fd, std::fabs(getD(Fs))) : setS(Fd, std::fabs(getS(Fs)));
      return;
    case 0x06:
      Dbl ? setD(Fd, getD(Fs)) : setS(Fd, getS(Fs));
      return;
    case 0x07:
      Dbl ? setD(Fd, -getD(Fs)) : setS(Fd, -getS(Fs));
      return;
    case 0x0d: { // trunc.w.fmt
      double V = Dbl ? getD(Fs) : double(getS(Fs));
      FPR[Fd] = uint32_t(int32_t(V));
      return;
    }
    case 0x20: // cvt.s.fmt
      if (Fmt == 17)
        setS(Fd, float(getD(Fs)));
      else if (Fmt == 20)
        setS(Fd, float(int32_t(FPR[Fs])));
      else
        fatalKind(CgErrKind::SimFault,
            "mips sim: cvt.s from fmt %u", Fmt);
      return;
    case 0x21: // cvt.d.fmt
      if (Fmt == 16)
        setD(Fd, double(getS(Fs)));
      else if (Fmt == 20)
        setD(Fd, double(int32_t(FPR[Fs])));
      else
        fatalKind(CgErrKind::SimFault,
            "mips sim: cvt.d from fmt %u", Fmt);
      return;
    case 0x24: // cvt.w.fmt (round-to-nearest not modeled; truncates)
      FPR[Fd] = uint32_t(int32_t(Dbl ? getD(Fs) : double(getS(Fs))));
      return;
    case 0x32:
      FpCond = Dbl ? getD(Fs) == getD(Ft) : getS(Fs) == getS(Ft);
      return;
    case 0x3c:
      FpCond = Dbl ? getD(Fs) < getD(Ft) : getS(Fs) < getS(Ft);
      return;
    case 0x3e:
      FpCond = Dbl ? getD(Fs) <= getD(Ft) : getS(Fs) <= getS(Ft);
      return;
    }
    fatalKind(CgErrKind::SimFault,
        "mips sim: unknown COP1 funct 0x%x at 0x%llx", Fn,
          (unsigned long long)InstrPC);
  }

  case 0x20: // lb
    W(Rt, loadMem(R[Rs] + uint32_t(Imm), 1, true));
    LastLoadReg = int(Rt);
    return;
  case 0x21: // lh
    W(Rt, loadMem(R[Rs] + uint32_t(Imm), 2, true));
    LastLoadReg = int(Rt);
    return;
  case 0x23: // lw
    W(Rt, loadMem(R[Rs] + uint32_t(Imm), 4, false));
    LastLoadReg = int(Rt);
    return;
  case 0x24: // lbu
    W(Rt, loadMem(R[Rs] + uint32_t(Imm), 1, false));
    LastLoadReg = int(Rt);
    return;
  case 0x25: // lhu
    W(Rt, loadMem(R[Rs] + uint32_t(Imm), 2, false));
    LastLoadReg = int(Rt);
    return;
  case 0x28: // sb
    storeMem(R[Rs] + uint32_t(Imm), 1, R[Rt]);
    return;
  case 0x29: // sh
    storeMem(R[Rs] + uint32_t(Imm), 2, R[Rt]);
    return;
  case 0x2b: // sw
    storeMem(R[Rs] + uint32_t(Imm), 4, R[Rt]);
    return;
  case 0x31: // lwc1
    FPR[Rt] = loadMem(R[Rs] + uint32_t(Imm), 4, false);
    return;
  case 0x35: { // ldc1
    SimAddr A = R[Rs] + uint32_t(Imm);
    FPR[Rt] = loadMem(A, 4, false);
    FPR[Rt + 1] = loadMem(A + 4, 4, false);
    return;
  }
  case 0x39: // swc1
    storeMem(R[Rs] + uint32_t(Imm), 4, FPR[Rt]);
    return;
  case 0x3d: { // sdc1
    SimAddr A = R[Rs] + uint32_t(Imm);
    storeMem(A, 4, FPR[Rt]);
    storeMem(A + 4, 4, FPR[Rt + 1]);
    return;
  }
  }
  fatalKind(CgErrKind::SimFault,
      "mips sim: unknown opcode 0x%x at 0x%llx", Op,
        (unsigned long long)InstrPC);
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
    if (Stats.Instrs >= InstrLimit)
      fatalKind(CgErrKind::SimFault,
          "mips sim: instruction limit (%llu) exceeded; runaway code?",
            (unsigned long long)InstrLimit);
    step();
  } while (PC != StopAddr && NPC != PC + 4);
  return PC;
}

TypedValue MipsSim::callWithConv(const CallConv &CC, SimAddr Entry,
                                 const std::vector<TypedValue> &Args,
                                 Type RetTy) {
  Stats = RunStats();
  std::memset(R, 0, sizeof(R));
  HI = LO = 0;
  FpCond = false;
  LastLoadReg = -1;

  R[29] = uint32_t(initialSp(Mem)); // sp
  unsigned Link = CC.LinkReg.isValid() ? CC.LinkReg.Num : 31;
  R[Link] = uint32_t(StopAddr);

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
    SimAddr Slot = SimAddr(R[29]) + uint32_t(L.StackOff);
    if (A.Ty == Type::D) {
      Mem.write<uint32_t>(Slot, uint32_t(A.Bits));
      Mem.write<uint32_t>(Slot + 4, uint32_t(A.Bits >> 32));
    } else {
      Mem.write<uint32_t>(Slot, uint32_t(A.Bits));
    }
  }

  PC = Entry;
  NPC = Entry + 4;
  uint64_t Limit = InstrLimit;
  while (PC != StopAddr) {
    if (Stats.Instrs >= Limit)
      fatalKind(CgErrKind::SimFault,
          "mips sim: instruction limit (%llu) exceeded; runaway code?",
            (unsigned long long)Limit);
    // Virtual-PC sampling (profile/Profiler.h): PfClock is cumulative
    // across calls (Stats resets per call) so the sampling phase does
    // not realign with every callWithConv.
    VCODE_PF_SAMPLE_VPC(++PfClock, PC);
    step();
  }

  TypedValue Res;
  Res.Ty = RetTy;
  if (RetTy == Type::D)
    Res.Bits = uint64_t(FPR[CC.FpRet.Num]) | (uint64_t(FPR[CC.FpRet.Num + 1]) << 32);
  else if (RetTy == Type::F)
    Res.Bits = FPR[CC.FpRet.Num];
  else if (isSignedType(RetTy))
    Res.Bits = uint64_t(int64_t(int32_t(R[CC.IntRet.Num])));
  else
    Res.Bits = R[CC.IntRet.Num];
  finishRun(Stats);
  return Res;
}
