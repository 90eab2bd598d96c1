//===- dbt/MipsRegion.cpp - Guest basic-block discovery ---------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "dbt/MipsRegion.h"
#include <deque>

using namespace vcode;
using namespace vcode::dbt;

bool vcode::dbt::isMipsTranslatable(const mips::Insn &D) {
  using mips::Opc;
  // Double operands read FPR[f] and FPR[f+1], so f == 31 goes to the
  // interpreter (whose own bounds behavior applies).
  bool Dbl = mips::isDouble(D);
  auto BadD = [&](unsigned R) { return Dbl && R == 31; };
  unsigned Ft = D.Rt, Fs = D.Rd, Fd = D.Sh;
  switch (D.Op) {
  case Opc::Invalid: // the interpreter faults: route through it
    return false;
  case Opc::Ldc1:
  case Opc::Sdc1:
    return D.Rt != 31;
  case Opc::AddF:
  case Opc::SubF:
  case Opc::MulF:
  case Opc::DivF:
    return !BadD(Ft) && !BadD(Fs) && !BadD(Fd);
  case Opc::SqrtF:
  case Opc::AbsF:
  case Opc::MovF:
  case Opc::NegF:
    return !BadD(Fs) && !BadD(Fd);
  case Opc::TruncW: // the result is one word
  case Opc::CvtW:
    return !BadD(Fs);
  case Opc::CvtS: // from double (17) or word (20) only
    return (D.Rs == 17 && Fs != 31) || D.Rs == 20;
  case Opc::CvtD: // from single (16) or word (20) only
    return (D.Rs == 16 || D.Rs == 20) && Fd != 31;
  case Opc::CEq:
  case Opc::CLt:
  case Opc::CLe:
    return !BadD(Fs) && !BadD(Ft);
  default:
    return true;
  }
}

namespace {

/// Static successors of a CTI at \p PC (fall-through and/or taken target).
/// Indirect transfers contribute none.
void staticSuccessors(SimAddr PC, const mips::Insn &D,
                      std::deque<SimAddr> &Out) {
  switch (D.Op) {
  case mips::Opc::Jr: // indirect
  case mips::Opc::Jalr:
    return;
  case mips::Opc::J:
  case mips::Opc::Jal: // static target; the return lands wherever $ra points
    Out.push_back(mips::jumpTarget(PC, D));
    return;
  default: // conditional branches: taken target + fall-through
    Out.push_back(mips::branchTarget(PC, D));
    Out.push_back(PC + 8);
    return;
  }
}

} // namespace

MipsRegion vcode::dbt::discoverRegion(const sim::Memory &GuestMem,
                                      SimAddr Entry) {
  MipsRegion R;
  R.Entry = Entry;

  std::deque<SimAddr> Work;
  Work.push_back(Entry);

  while (!Work.empty() && R.Blocks.size() < MaxRegionBlocks &&
         R.TotalWords < MaxRegionWords) {
    SimAddr Start = Work.front();
    Work.pop_front();
    if (R.isLeader(Start))
      continue;

    R.Leaders.emplace(Start, unsigned(R.Blocks.size()));
    R.Blocks.emplace_back();
    MipsBlock &B = R.Blocks.back();
    B.Entry = Start;

    SimAddr PC = Start;
    for (;;) {
      // Falling into another block's entry: chain instead of duplicating.
      if (PC != Start && R.isLeader(PC)) {
        B.Term = TermKind::Goto;
        B.ExitPC = PC;
        break;
      }
      if (R.TotalWords >= MaxRegionWords) {
        B.Term = TermKind::Goto; // cap: hand the plain PC back
        B.ExitPC = PC;
        break;
      }
      if ((PC & 3) != 0 || !GuestMem.contains(PC, 4)) {
        // The interpreter's fetch will fault here with its own message.
        B.Term = TermKind::InterpExit;
        B.ExitPC = PC;
        break;
      }
      mips::Insn I = mips::decode(GuestMem.read<uint32_t>(PC));
      if (!isMipsTranslatable(I)) {
        B.Term = TermKind::InterpExit;
        B.ExitPC = PC;
        break;
      }
      if (mips::info(I.Op).IsCti) {
        // The unit needs its delay slot. A missing, untranslatable, or
        // CTI delay word sends the whole unit to the interpreter, which
        // owns every delay-slot edge case (chained CTIs included).
        if (!GuestMem.contains(PC + 4, 4)) {
          B.Term = TermKind::InterpExit;
          B.ExitPC = PC;
          break;
        }
        mips::Insn D = mips::decode(GuestMem.read<uint32_t>(PC + 4));
        if (mips::info(D.Op).IsCti || !isMipsTranslatable(D)) {
          B.Term = TermKind::InterpExit;
          B.ExitPC = PC;
          break;
        }
        MipsUnit U;
        U.PC = PC;
        U.Insn = I;
        U.Delay = D;
        U.Kind = UnitKind::Cti;
        B.Units.push_back(U);
        R.TotalWords += 2;
        B.Term = TermKind::Cti;
        staticSuccessors(PC, I, Work);
        break;
      }
      MipsUnit U;
      U.PC = PC;
      U.Insn = I;
      B.Units.push_back(U);
      R.TotalWords += 1;
      PC += 4;
    }
  }

  // Blocks queued but never built stay mere exit targets: any reference
  // to them from a built block falls back to a plain-PC return and the
  // dispatcher translates them as their own region entries.
  return R;
}
