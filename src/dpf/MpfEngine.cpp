//===- dpf/MpfEngine.cpp - MPF-style linear filter interpreter -------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
//
// Data layout in simulator memory:
//   per filter program:  u32 natoms, then natoms x {u32 off,size,mask,val}
//   program table:       nfilters pointers (word-sized)
//   id table:            nfilters x i32
//
// The interpreter itself is generated once per install with VCODE; the
// per-message work — the cost Table 3 measures — is the interpretation
// loop over these structures, one filter after another. This models MPF's
// defining behaviour: "traditionally, packet filters are interpreted,
// which entails a high computational cost."
//
//===----------------------------------------------------------------------===//

#include "dpf/Engines.h"
#include "support/BitUtils.h"

using namespace vcode;
using namespace vcode::dpf;

// Virtual anchor.
Engine::~Engine() = default;

void MpfEngine::install(const std::vector<Filter> &Filters) {
  unsigned WB = Tgt.info().WordBytes;

  // Encode the filter programs.
  std::vector<SimAddr> Progs;
  for (const Filter &F : Filters) {
    SimAddr P = Mem.alloc(4 + F.Atoms.size() * 16, 8);
    Progs.push_back(P);
    Mem.write<uint32_t>(P, uint32_t(F.Atoms.size()));
    SimAddr Q = P + 4;
    for (const Atom &A : F.Atoms) {
      Mem.write<uint32_t>(Q + 0, A.Offset);
      Mem.write<uint32_t>(Q + 4, A.Size);
      Mem.write<uint32_t>(Q + 8, A.Mask);
      Mem.write<uint32_t>(Q + 12, A.Value);
      Q += 16;
    }
  }
  SimAddr ProgTable = Mem.alloc(Progs.size() * WB, 8);
  for (size_t I = 0; I < Progs.size(); ++I) {
    if (WB == 8)
      Mem.write<uint64_t>(ProgTable + I * 8, Progs[I]);
    else
      Mem.write<uint32_t>(ProgTable + I * 4, uint32_t(Progs[I]));
  }
  SimAddr Ids = Mem.alloc(Filters.size() * 4, 4);
  for (size_t I = 0; I < Filters.size(); ++I)
    Mem.write<int32_t>(Ids + I * 4, Filters[I].Id);

  // Generate the interpreter (retrying with a grown region on overflow;
  // the filter structures above persist across attempts).
  VCode V(Tgt);
  installWithRetry(V, [&](CodeMem CM) {
    Reg Arg[1];
    V.lambda("%p", Arg, LeafHint, CM);
    Reg Msg = Arg[0];
    Reg Idx = V.getreg(Type::I);
    Reg Pp = V.getreg(Type::P);
    Reg N = V.getreg(Type::I);
    Reg Vv = V.getreg(Type::U);
    Reg T = V.getreg(Type::P);
    Reg Fld = V.getreg(Type::U);
    Reg BaseProg = V.getreg(Type::P);
    Reg BaseIds = V.getreg(Type::P);

    Label LFilter = V.genLabel(), LAtom = V.genLabel(), LNext = V.genLabel();
    Label LAccept = V.genLabel(), LFail = V.genLabel();
    Label LByte = V.genLabel(), LHalf = V.genLabel(), LHave = V.genLabel();

    V.setp(BaseProg, ProgTable);
    V.setp(BaseIds, Ids);
    V.seti(Idx, 0);

    V.label(LFilter);
    V.bgeii(Idx, int64_t(Filters.size()), LFail);
    // pp = progTable[idx]
    V.lshii(T, Idx, int64_t(log2Floor(WB)));
    V.addp(T, BaseProg, T);
    V.ldpi(Pp, T, 0);
    V.ldui(N, Pp, 0);
    V.addpi(Pp, Pp, 4);

    V.label(LAtom);
    V.beqii(N, 0, LAccept);
    // t = msg + off
    V.ldui(Fld, Pp, 0);
    V.addp(T, Msg, Fld);
    // size dispatch
    V.ldui(Fld, Pp, 4);
    V.beqii(Fld, 1, LByte);
    V.beqii(Fld, 2, LHalf);
    V.ldui(Vv, T, 0);
    V.jmp(LHave);
    V.label(LByte);
    V.lduci(Vv, T, 0);
    V.jmp(LHave);
    V.label(LHalf);
    V.ldusi(Vv, T, 0);
    V.label(LHave);
    // mask & compare
    V.ldui(Fld, Pp, 8);
    V.andu(Vv, Vv, Fld);
    V.ldui(Fld, Pp, 12);
    V.bneu(Vv, Fld, LNext);
    // next atom
    V.addpi(Pp, Pp, 16);
    V.subii(N, N, 1);
    V.jmp(LAtom);

    V.label(LNext);
    V.addii(Idx, Idx, 1);
    V.jmp(LFilter);

    V.label(LAccept);
    V.lshii(T, Idx, 2);
    V.addp(T, BaseIds, T);
    V.ldii(Vv, T, 0);
    V.reti(Vv);

    V.label(LFail);
    V.seti(Vv, -1);
    V.reti(Vv);

    return V.end();
  });
}
