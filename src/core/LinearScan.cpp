//===- core/LinearScan.cpp - Linear-scan register allocation ---------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/LinearScan.h"
#include "support/Error.h"
#include <cassert>

using namespace vcode;

namespace {

/// One register pool's scan state. Every active interval holds one pool
/// register, so there are never more active intervals than registers.
struct PoolState {
  static constexpr size_t MaxRegs = 64;
  struct Held {
    uint32_t Iv;     // interval index
    unsigned RegIdx; // pool index
  };
  const std::vector<Reg> &Regs;
  uint64_t Free = 0;          // bit K set: Regs[K] is free
  Held Active[MaxRegs] = {};  // unsorted
  unsigned NActive = 0;
  explicit PoolState(const std::vector<Reg> &P) : Regs(P) {
    if (P.size() > MaxRegs)
      fatal("linear scan: register pool of %zu exceeds %zu", P.size(),
            MaxRegs);
    Free = P.size() == MaxRegs ? ~uint64_t(0) : (uint64_t(1) << P.size()) - 1;
  }
};

} // namespace

unsigned vcode::linearScan(std::vector<LsInterval> &Ivs,
                           const std::vector<LsEdge> &BackEdges,
                           const std::vector<Reg> &IntPool,
                           const std::vector<Reg> &FpPool) {
  // Loop extension: a value live at a backward branch's target must
  // survive to the branch (it is needed again next iteration). Iterate
  // to a fixpoint so nested loops compose. Intervals are ordered by
  // start, so only a prefix can be live at the target.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const LsEdge &E : BackEdges) {
      assert(E.Target <= E.Pos && "back edge points forward");
      for (LsInterval &I : Ivs) {
        if (I.Start > E.Target)
          break;
        if (I.End >= E.Target && I.End < E.Pos) {
          I.End = E.Pos;
          Changed = true;
        }
      }
    }
  }

  PoolState Int(IntPool), Fp(FpPool);
  unsigned Spills = 0;
  for (uint32_t Idx = 0; Idx < Ivs.size(); ++Idx) {
    LsInterval &I = Ivs[Idx];
    assert((Idx == 0 || Ivs[Idx - 1].Start <= I.Start) &&
           "intervals not ordered by start");
    I.Spilled = false;
    I.Phys = Reg{};
    PoolState &PS = I.Fp ? Fp : Int;

    // Expire intervals that ended strictly before this one starts.
    for (unsigned A = 0; A < PS.NActive;) {
      if (Ivs[PS.Active[A].Iv].End < I.Start) {
        PS.Free |= uint64_t(1) << PS.Active[A].RegIdx;
        PS.Active[A] = PS.Active[--PS.NActive];
      } else {
        ++A;
      }
    }

    // Lowest free pool index = most-preferred register.
    if (PS.Free) {
      unsigned K = unsigned(__builtin_ctzll(PS.Free));
      PS.Free &= PS.Free - 1;
      I.Phys = PS.Regs[K];
      PS.Active[PS.NActive++] = {Idx, K};
      continue;
    }

    // Pressure: spill the interval with the furthest end (it blocks a
    // register for the longest time).
    uint32_t Victim = Idx;
    unsigned VictimAt = 0;
    for (unsigned A = 0; A < PS.NActive; ++A)
      if (Ivs[PS.Active[A].Iv].End > Ivs[Victim].End) {
        Victim = PS.Active[A].Iv;
        VictimAt = A;
      }
    if (Victim != Idx) {
      LsInterval &V = Ivs[Victim];
      I.Phys = V.Phys;
      V.Phys = Reg{};
      V.Spilled = true;
      PS.Active[VictimAt].Iv = Idx;
    } else {
      I.Spilled = true;
    }
    ++Spills;
  }
  return Spills;
}
