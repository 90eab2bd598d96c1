//===- core/VRegLayer.h - Unlimited virtual registers -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unlimited-virtual-register extension layer the paper describes in
/// §5.4/§6.2: "support for unlimited virtual registers could be added in a
/// similar manner [as an extension] ... preliminary results indicate that
/// the addition of this (optional) support would increase code generation
/// cost by roughly a factor of two."
///
/// The layer runs at either generation tier (core/Tier.h):
///
/// Tier-0 (the original layer): virtual registers are backed by stack
/// locals (v_local) plus a small set of physical staging registers; every
/// layered instruction loads its sources, operates, and stores its
/// destination — the paper's naive cost model, measured by bench_ablation.
///
/// Tier-1: the same mirrored surface *records* a compact buffered IR
/// (per-op vreg defs/uses) instead of emitting. While it records, the
/// layer also keeps what allocation and replay need, so neither rescans
/// the recording: each vreg's live interval (opened at its first
/// reference, extended at every later one, so intervals come out ordered
/// by start), the op index of every bound label (a flat table by label
/// id), every branch or jump to an already-bound label (a back edge), and
/// the op index of every branch, jump and return (where the replay looks
/// for delay-slot fills and return folds). finish() then runs linear-scan
/// register allocation over those intervals (core/LinearScan.h) and
/// replays the recording through the real emitters with the Peephole and
/// StrengthReduce layers applied unconditionally and branch delay slots
/// filled on machines that have them (MIPS/SPARC). Values live in real
/// registers; stack homes are allocated only for vregs the allocator
/// spills under pressure.
///
/// At either tier the layer's tables (VRegTables) come from a table set
/// borrowed from the same per-thread free list as its VCode's (FnTables,
/// core/VCode.h), so recording allocates only while a thread's tables
/// still grow.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_VREGLAYER_H
#define VCODE_CORE_VREGLAYER_H

#include "core/LinearScan.h"
#include "core/Tier.h"
#include "core/VCode.h"
#include <vector>

namespace vcode {

/// A virtual register handle.
struct VReg {
  int32_t Id = -1;
  constexpr bool isValid() const { return Id >= 0; }
};

/// The vreg layer's growable tables: one set per borrowed FnTables
/// (core/VCode.h), so a layer, like its VCode, reuses what earlier
/// functions on its thread grew.
struct VRegTables {
  struct Slot {
    Local Home;          ///< Tier-0: staging home. Tier-1: spill home.
    Type Ty = Type::I;
    Reg Pre;             ///< Tier-1 pre-color (argument registers)
    Reg Phys;            ///< Tier-1 assignment (invalid when spilled)
    bool Spilled = false;
    int32_t Iv = -1;     ///< Tier-1 live interval (index into Ivs)
  };

  /// One recorded operation of the Tier-1 buffered IR.
  struct RecOp {
    enum Kind : uint8_t {
      Binop,
      BinopImm,
      Unop,
      SetInt,
      Load,
      Store,
      Branch,
      BranchImm,
      Ret,
      Lbl,
      Jmp,
      JmpReg,
      FromPhys,
    };
    Kind K = Binop;
    uint8_t Op = 0; ///< BinOp / UnOp / Cond, per kind
    Type Ty = Type::I;
    int32_t D = -1, S1 = -1, S2 = -1; ///< vreg refs
    int64_t Imm = 0;                  ///< immediate / offset / set value
    Label L;                          ///< branch target / bound label
    Reg Phys;                         ///< FromPhys source
  };

  enum FillKind : uint8_t { FillNone = 0, FillPred, FillTarget };

  /// What the replay does at one recorded op besides emitting it.
  struct OpPlan {
    FillKind Fill = FillNone; ///< branch: how its delay slot is filled
    bool Consumed = false;    ///< folded into a neighbor's slot or return
    bool RetImm = false;      ///< ret emitted as retImm of the previous op
    int32_t FillSrc = -1;     ///< FillTarget: the op copied into the slot
    Label SkipAfter;          ///< bound right after this op: the retarget
                              ///< of jumps whose slot holds a copy of it
  };

  std::vector<Slot> Slots;
  std::vector<RecOp> Rec;
  std::vector<LsInterval> Ivs;  ///< by start (first reference)
  std::vector<int32_t> LabelAt; ///< label id -> op index of Lbl, or -1
  std::vector<LsEdge> BackEdges;
  std::vector<uint32_t> Exits; ///< op indices of branches, jumps and rets
  std::vector<OpPlan> Plan;    ///< replay plan, by op index
  std::vector<Reg> IntPool, FpPool;
  std::vector<Reg> Claimed; ///< everything to putreg (pool + scratch)

  /// Empties every table, keeping its capacity.
  void clear();
  /// Bytes the tables have reserved.
  size_t capacityBytes() const;
};

/// Per-function virtual-register state layered over a VCode stream.
/// Create after v_lambda; use the mirrored instruction surface; call
/// finish() before v_end (a no-op at Tier-0, the allocate-and-replay
/// pass at Tier-1).
class VRegLayer {
public:
  explicit VRegLayer(VCode &V, Tier T = Tier::Tier0);
  ~VRegLayer();

  Tier tier() const { return Mode; }

  /// Allocates a fresh virtual register of type \p Ty (never fails until
  /// stack space runs out).
  VReg alloc(Type Ty);

  /// A vreg holding the incoming argument in \p ArgReg. At Tier-1 the
  /// vreg is pre-colored to the argument register (no copy); at Tier-0
  /// this is alloc + fromPhys.
  VReg fromArg(Type Ty, Reg ArgReg);

  /// Copies a physical register into a vreg. The source must still hold
  /// its value when finish() replays at Tier-1 — argument registers and
  /// registers the client has not released qualify.
  void fromPhys(VReg Dst, Reg Src);

  // Mirrored instruction surface.
  void binop(BinOp Op, Type Ty, VReg Rd, VReg Rs1, VReg Rs2);
  void binopImm(BinOp Op, Type Ty, VReg Rd, VReg Rs1, int64_t Imm);
  void unop(UnOp Op, Type Ty, VReg Rd, VReg Rs);
  void setInt(Type Ty, VReg Rd, uint64_t Imm);
  void load(Type Ty, VReg Rd, VReg Base, int64_t Off);
  void store(Type Ty, VReg Val, VReg Base, int64_t Off);
  void branch(Cond C, Type Ty, VReg A, VReg B, Label L);
  void branchImm(Cond C, Type Ty, VReg A, int64_t Imm, Label L);
  void ret(Type Ty, VReg Rs);

  // Control flow must route through the layer so the Tier-1 recording
  // sees it (labels resolve positions, backward branches extend
  // liveness across loops). At Tier-0 these forward directly.
  void label(Label L);
  void jmp(Label L);
  void jmpReg(VReg R);

  /// Tier-1: allocates registers over the recording and replays it
  /// through the optimizing emitters. Tier-0: no-op. Idempotent.
  void finish();

  // Post-finish() introspection (Tier-1; zero at Tier-0).
  unsigned spillCount() const { return Spills; }
  unsigned delayFills() const { return DelayFills; }
  unsigned retFolds() const { return RetFolds; }
  unsigned peepholeSaved() const { return PhSaved; }
  size_t recordedOps() const { return Tb.Rec.size(); }

private:
  using Slot = VRegTables::Slot;
  using RecOp = VRegTables::RecOp;
  using OpPlan = VRegTables::OpPlan;

  // --- Tier-0 path ----------------------------------------------------------
  Reg stage(unsigned Which, Type Ty); ///< staging register 0/1/2
  Reg readIn(VReg R, unsigned Which); ///< load vreg into a staging reg
  void writeBack(VReg R, Reg Phys);   ///< store staging reg to its home

  // --- Tier-1 path ----------------------------------------------------------
  /// Appends an op with its vreg operands (-1 when absent) and notes
  /// their references in the order S1, S2, D.
  RecOp &rec(RecOp::Kind K, int32_t D = -1, int32_t S1 = -1, int32_t S2 = -1);
  /// rec() for a branch or jump to \p L; notes a back edge when \p L is
  /// already bound.
  RecOp &recBranch(RecOp::Kind K, Label L, int32_t S1 = -1, int32_t S2 = -1);
  void ref(int32_t Vr, uint32_t Pos); ///< notes a reference at op \p Pos
  void openInterval(int32_t Vr, uint32_t Pos);
  int32_t labelAt(Label L) const; ///< op index of L's binding, or -1
  void checkVReg(VReg R) const;
  void claimPools();
  void releaseClaimed();
  void allocate();
  void replay();
  Reg physOf(int32_t V) const;
  Reg scratchFor(Type Ty, unsigned Which) const;

  VCode &V;
  Tier Mode;
  FnTablesPtr Set; ///< borrowed from this thread's free list
  VRegTables &Tb;  ///< Set's vreg tables
  Reg IntStage[3];
  Reg FpStage[3];
  Reg IntScratch[2], FpScratch[2];
  bool Finished = false;
  unsigned Spills = 0;
  unsigned DelayFills = 0;
  unsigned RetFolds = 0;
  unsigned PhSaved = 0;
};

} // namespace vcode

#endif // VCODE_CORE_VREGLAYER_H
