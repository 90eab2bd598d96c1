//===- core/VCode.h - The VCODE dynamic code generator ----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VCODE client interface (paper §3). A VCode object is the per-function
/// dynamic code generation state: clients begin a function with lambda()
/// (the paper's v_lambda), emit instructions of the idealized load-store
/// RISC machine through the typed method families (v_addii -> addii), and
/// finish with end() (v_end), which backpatches prologue/epilogue code and
/// unresolved jumps and returns a pointer to the finished code. Machine code
/// is generated in place: every instruction method writes machine words
/// directly into the client-supplied code region.
///
/// Beside the emitted code a function keeps only tables: label positions,
/// unresolved jumps, the constant pool and argument locations (FnTables).
/// A VCode borrows them from a small per-thread free list for its lifetime
/// and returns them cleared, so a client that builds a fresh VCode per
/// function, on a thread that has generated before, goes from construction
/// through lambda, emission and end to destruction without touching the
/// heap.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_VCODE_H
#define VCODE_CORE_VCODE_H

#include "core/CallConv.h"
#include "core/CodeBuffer.h"
#include "core/Ops.h"
#include "core/Reg.h"
#include "core/RegAlloc.h"
#include "core/Target.h"
#include "core/Tier.h"
#include "core/Types.h"
#include "support/Error.h"
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace vcode {

/// A stack local allocated with VCode::localVar (the paper's v_local).
/// Offsets are SP-relative and stable from the moment of allocation
/// because the register save area has a fixed worst-case size (§5.2).
struct Local {
  int32_t Off = -1;
  Type Ty = Type::V;
  constexpr bool isValid() const { return Off >= 0; }
};

/// Leaf-procedure hints for lambda() (paper V_LEAF / V_NLEAF).
inline constexpr bool LeafHint = true;
inline constexpr bool NonLeafHint = false;

/// A stack argument that the prologue must copy into a register.
struct PrologueArgCopy {
  Type Ty;
  Reg Dst;
  int32_t IncomingOff; ///< byte offset above the callee frame
};

/// A fixed-width target's prologue, built at v_end before it is copied
/// into the reservation, in place of a heap vector: frame allocation,
/// link save, up to 32 + 32 register saves and one load per stack-passed
/// argument (each into a register of its own, so at most every register
/// of both kinds).
class PrologueWords {
public:
  void push_back(uint32_t W) {
    if (N == Cap)
      fatalKind(CgErrKind::Internal, "prologue exceeds %u words", Cap);
    Words[N++] = W;
  }
  size_t size() const { return N; }
  uint32_t operator[](size_t I) const { return Words[I]; }

private:
  static constexpr unsigned Cap = 2 + 32 + 32 + 2 * RegAlloc::MaxRegs;
  uint32_t Words[Cap];
  unsigned N = 0;
};

struct VRegTables; // core/VRegLayer.h
struct FnTables;

/// Returns a borrowed FnTables set to its thread's free list.
struct FnTablesRelease {
  void operator()(FnTables *T) const;
};
using FnTablesPtr = std::unique_ptr<FnTables, FnTablesRelease>;

/// Every growable table of one function. A VCode and a VRegLayer each
/// borrow a set from a small per-thread free list for their lifetime and
/// give it back cleared, so on a thread that has generated before a
/// function's lifecycle allocates nothing: the tables keep the capacity
/// earlier functions grew them to. A thread keeps at most a few sets, and
/// frees a returned set whose capacity passed a fixed ceiling, so what is
/// retained is bounded by constants.
struct FnTables {
  std::vector<int32_t> LabelPos; ///< word index by label id, -1 if unbound
  std::vector<Fixup> Fixups;
  std::vector<uint64_t> ConstPool; ///< in first-use order
  std::vector<Label> ConstPoolLabels;
  /// Open-addressing index over ConstPool (slot -> entry + 1, 0 if
  /// empty), at most half full; empty until the first entry.
  std::vector<uint32_t> ConstPoolIndex;
  std::vector<ArgLoc> ArgLocations;
  std::vector<PrologueArgCopy> ArgCopies;
  std::vector<ArgLoc> CallLocs; ///< out-call in progress
  /// The vreg layer's tables, made the first time a VRegLayer borrows
  /// this set.
  std::unique_ptr<VRegTables> VReg;

  FnTables();
  ~FnTables();
  /// Borrows a set from this thread's free list (a new one if it is empty).
  static FnTablesPtr acquire();
  /// The vreg layer's tables.
  VRegTables &vreg();
  /// Empties every table, keeping its capacity.
  void clear();
  /// Bytes the tables have reserved.
  size_t capacityBytes() const;
};

/// Per-function dynamic code generation state.
class VCode {
public:
  explicit VCode(Target &Tgt);
  ~VCode();
  VCode(const VCode &) = delete;
  VCode &operator=(const VCode &) = delete;

  Target &target() { return T; }
  const TargetInfo &info() const { return TI; }

  // --- Error policy ---------------------------------------------------------

  /// Selects the error policy. Off (the default) is the paper's policy:
  /// any error aborts the process with a diagnostic. On, errors raised
  /// while this VCode emits are recorded into lastError(), the in-progress
  /// function is poisoned (end() returns an invalid CodePtr; partially
  /// emitted code is never executable), and control unwinds out of the
  /// failing emitter via a CgAbort exception. Handlers nest per thread:
  /// enable/disable in LIFO order when using several VCode objects.
  void setErrorRecovery(bool Enable);
  /// True when recovery mode is active.
  bool errorRecovery() const { return RecoverMode; }
  /// The first error recorded since the last lambda()/clearError();
  /// CgErrKind::None if generation has succeeded so far.
  const CgError &lastError() const { return Err; }
  /// Clears the recorded error.
  void clearError() { Err = CgError{}; }
  /// Discards an in-progress (poisoned) function so lambda() can be
  /// called again, e.g. with a larger code region. See generateWithRetry.
  void abandon();

  // --- Function lifecycle (paper §3.2) ------------------------------------

  /// Overrides the calling convention for subsequently generated functions
  /// (paper §5.4: "clients can dynamically substitute calling conventions
  /// on a per-generated-function basis").
  void setCallConv(const CallConv &CC) {
    CustomCC = CC;
    CurCC = &CustomCC;
  }

  /// Begins generation of a function. \p ArgTypeStr lists incoming
  /// parameter types, e.g. "%i%p%d" ('U' stands for unsigned long); the
  /// registers holding the parameters are returned in \p ArgRegs. \p IsLeaf
  /// declares a leaf procedure; calling out of one is an error. \p Mem is
  /// the storage for the generated code.
  void lambda(const char *ArgTypeStr, Reg *ArgRegs, bool IsLeaf, CodeMem Mem);

  /// Ends generation: links jumps, writes prologue/epilogue, emits the
  /// floating-point constant pool, and returns the entry point.
  CodePtr end();

  /// Tier recorded on the published CodeMap entry (generateWithRetry
  /// stamps its GenerateOptions tier here). Unlike the name (CodeMem::Name,
  /// bound by lambda()), the tier persists across lambda() so a stamp
  /// placed before the emitter runs survives to end().
  void setPublishTier(Tier T) { PubTier = T; }
  /// Guest-PC range [Lo, Hi) recorded on the published CodeMap entry (a
  /// DBT translation's source). Persists across lambda() like the tier.
  void setPublishGuestRange(uint64_t Lo, uint64_t Hi) {
    PubGuestLo = Lo;
    PubGuestHi = Hi;
  }

  // --- Registers (paper §3.2, §5.3) ---------------------------------------

  /// Allocates a register for \p Ty; returns an invalid Reg on exhaustion.
  Reg getreg(Type Ty, RegClass C = RegClass::Temp);
  /// Releases a register obtained from getreg().
  void putreg(Reg R);

  /// Architecture-independent hard-coded caller-saved register names
  /// ("T0", "T1", ... in the paper §5.3). Fatal if \p I exceeds what the
  /// machine provides (the paper's "register assertion").
  Reg tmp(unsigned I, Type Ty = Type::I) const;
  /// Hard-coded callee-saved names ("S0", ...); noting the use so the
  /// prologue saves the register.
  Reg sav(unsigned I, Type Ty = Type::I);

  /// The hardwired zero register.
  Reg zeroReg() const { return TI.Zero; }
  /// The stack pointer.
  Reg spReg() const { return TI.Sp; }
  /// The register in which a function of result type \p Ty returns its
  /// value under the current convention (for register targeting).
  Reg resultReg(Type Ty) const {
    return isFpType(Ty) ? CurCC->FpRet : CurCC->IntRet;
  }

  /// Dynamically reclassifies a register (paper §5.3).
  void setRegKind(Reg R, RegKind K) { RA.setKind(R, K); }
  /// Treats every register as callee-saved (interrupt handler mode).
  void allRegsCalleeSaved() { RA.allCalleeSaved(); }
  /// Declares a new allocation priority ordering.
  void setRegPriority(Reg::KindType K, const std::vector<Reg> &Order) {
    RA.setPriorityOrder(K, Order);
  }

  // --- Labels ---------------------------------------------------------------

  /// Creates a fresh, unbound label (paper v_genlabel).
  Label genLabel();
  /// Binds \p L to the current position (paper v_label).
  void label(Label L);

  // --- Locals (paper v_local) -----------------------------------------------

  /// Allocates a stack local of type \p Ty.
  Local localVar(Type Ty);
  /// Loads a local into a register.
  void loadLocal(Type Ty, Reg Rd, Local Lo);
  /// Stores a register into a local.
  void storeLocal(Type Ty, Reg Rs, Local Lo);
  /// Materializes the address of a local into \p Rd.
  void localAddr(Reg Rd, Local Lo);

  // --- Dynamically constructed calls (paper §2: argument marshaling) --------

  /// Starts a call whose argument types are given by \p ArgTypeStr. The
  /// number and types of arguments need not be known until runtime.
  void callBegin(const char *ArgTypeStr);
  /// Supplies the next argument from \p Src (moved to its ABI location).
  void callArg(Reg Src);
  /// Performs the call to an absolute address.
  void callAddr(SimAddr Callee);
  /// Performs the call through a register.
  void callReg(Reg Callee);
  /// Performs the call to a label in the current stream (a local
  /// subroutine; the callee returns with retlink()).
  void callLabel(Label L);
  /// Returns from a local subroutine through the link register.
  void retlink() { T.emitLinkReturn(*this); }
  /// Where the callee left a result of type \p Ty.
  Reg retvalReg(Type Ty) const { return resultReg(Ty); }

  // --- Raw instruction surface ----------------------------------------------

  void binop(BinOp Op, Type Ty, Reg Rd, Reg Rs1, Reg Rs2) {
    T.emitBinop(*this, Op, Ty, Rd, Rs1, Rs2);
  }
  void binopImm(BinOp Op, Type Ty, Reg Rd, Reg Rs1, int64_t Imm) {
    T.emitBinopImm(*this, Op, Ty, Rd, Rs1, Imm);
  }
  void unop(UnOp Op, Type Ty, Reg Rd, Reg Rs) {
    T.emitUnop(*this, Op, Ty, Rd, Rs);
  }
  void cvt(Type From, Type To, Reg Rd, Reg Rs) {
    T.emitCvt(*this, From, To, Rd, Rs);
  }
  void load(Type Ty, Reg Rd, Reg Base, Reg Off) {
    T.emitLoad(*this, Ty, Rd, Base, Off);
  }
  void loadImm(Type Ty, Reg Rd, Reg Base, int64_t Off) {
    T.emitLoadImm(*this, Ty, Rd, Base, Off);
  }
  void store(Type Ty, Reg Val, Reg Base, Reg Off) {
    T.emitStore(*this, Ty, Val, Base, Off);
  }
  void storeImm(Type Ty, Reg Val, Reg Base, int64_t Off) {
    T.emitStoreImm(*this, Ty, Val, Base, Off);
  }
  void branch(Cond C, Type Ty, Reg A, Reg B, Label L) {
    T.emitBranch(*this, C, Ty, A, B, L);
  }
  void branchImm(Cond C, Type Ty, Reg A, int64_t Imm, Label L) {
    T.emitBranchImm(*this, C, Ty, A, Imm, L);
  }
  /// Unconditional jump to a label (paper "v j ... label").
  void jmp(Label L) { T.emitJump(*this, L); }
  /// Jump through a register.
  void jmpr(Reg R) { T.emitJumpReg(*this, R); }
  /// Jump to an absolute address.
  void jmpi(SimAddr A) { T.emitJumpAddr(*this, A); }
  /// Return \p Rs (typed variants in Instructions.inc).
  void ret(Type Ty, Reg Rs) { T.emitRet(*this, Ty, Rs); }
  /// Return with no value.
  void retv() { T.emitRet(*this, Type::V, Reg()); }
  /// Return the integer constant \p Imm (fused setInt + ret; see
  /// Target::emitRetImm).
  void retImm(Type Ty, int64_t Imm) { T.emitRetImm(*this, Ty, Imm); }
  void nop() { T.emitNop(*this); }
  void setInt(Type Ty, Reg Rd, uint64_t V) { T.emitSetInt(*this, Ty, Rd, V); }
  void setFp(Type Ty, Reg Rd, double V) { T.emitSetFp(*this, Ty, Rd, V); }

  // Named per-type families (paper Table 2 naming: v_addii -> addii).
#include "core/Instructions.inc"

  // --- Portable instruction scheduling (paper §5.3) --------------------------

  /// Emits branch \p Br with \p Slot scheduled into its delay slot when the
  /// machine has one; otherwise \p Slot is placed before the branch. \p Slot
  /// must emit exactly one instruction word and must not change the branch
  /// condition (the paper's v_schedule_delay).
  template <typename BrFn, typename SlotFn>
  void scheduleDelay(BrFn Br, SlotFn Slot) {
    if (!TI.HasBranchDelaySlot) {
      Slot();
      Br();
      return;
    }
    SuppressDelayNop = true;
    Br();
    SuppressDelayNop = false;
    uint32_t Before = Buf.wordIndex();
    Slot();
    if (Buf.wordIndex() != Before + 1)
      fatal("scheduleDelay: delay-slot instruction must be one word");
  }

  /// Emits load \p Ld whose result is first used \p InstrsUntilUse VCODE
  /// instructions later; pads with nops if the machine's load delay is
  /// longer (the paper's v_raw_load).
  template <typename LdFn> void rawLoad(LdFn Ld, unsigned InstrsUntilUse) {
    Ld();
    for (unsigned I = InstrsUntilUse; I < TI.LoadDelaySlots; ++I)
      nop();
  }

  /// True while a branch emitter must omit its delay-slot nop.
  bool suppressDelayNop() const { return SuppressDelayNop; }

  // --- Extension instructions (paper §5.4) -----------------------------------

  /// Emits the extension instruction \p Name with \p Ops.
  void ext(const char *Name, std::initializer_list<Operand> Ops) {
    T.emitExtension(*this, Name, Ops.begin(), unsigned(Ops.size()));
  }
  /// Emits a pre-interned extension instruction (no string lookup; intern
  /// the name once with Target::defineInstruction or findInstruction).
  void ext(ExtId Id, std::initializer_list<Operand> Ops) {
    T.emitExtension(*this, Id, Ops.begin(), unsigned(Ops.size()));
  }

  // --- Interface used by targets ---------------------------------------------

  CodeBuffer &buf() { return Buf; }
  RegAlloc &regAlloc() { return RA; }
  Reg atReg() const { return TI.At; }
  const CallConv &cc() const { return *CurCC; }
  bool isLeaf() const { return LeafFlag; }
  bool inFunction() const { return InFunction; }
  bool madeCall() const { return MadeCall; }
  Label epilogueLabel() const { return EpiLabel; }
  uint32_t localBytes() const { return LocalBytes; }
  const std::vector<ArgLoc> &argLocs() const { return Tb->ArgLocations; }
  const std::vector<PrologueArgCopy> &prologueArgCopies() const {
    return Tb->ArgCopies;
  }
  /// Frame size in bytes, valid during Target::endFunction.
  uint32_t frameBytes() const { return FrameBytes; }
  /// Prologue reservation, recorded by Target::beginFunction and read
  /// back by Target::endFunction. Per-function state lives here, not on
  /// the Target: one backend instance serves concurrent VCode emitters.
  void setReservedPrologueWords(uint32_t N) { ReservedPrologueWords = N; }
  uint32_t reservedPrologueWords() const { return ReservedPrologueWords; }
  /// True if the function needs a stack frame / prologue / epilogue.
  bool frameNeeded() const;

  /// Records a fixup anchored at the *next* word to be emitted.
  void addFixup(FixupKind K, Label L) {
    Tb->Fixups.push_back(Fixup{Buf.wordIndex(), L, K});
  }
  /// Records a fixup at an explicit word index.
  void addFixupAt(uint32_t WordIdx, FixupKind K, Label L) {
    Tb->Fixups.push_back(Fixup{WordIdx, L, K});
  }
  /// Returns a label bound (at end()) to an 8-byte constant-pool entry
  /// holding \p Bits. Entries are de-duplicated.
  Label constPoolLabel(uint64_t Bits);

  /// Number of pending fixups (the *only* per-instruction-stream state
  /// VCODE keeps: "other than the memory needed to store emitted
  /// instructions, VCODE need only store pointers to labels and
  /// unresolved jumps", paper §3).
  size_t pendingFixups() const { return Tb->Fixups.size(); }
  /// Number of labels created so far.
  size_t labelCount() const { return Tb->LabelPos.size(); }

  /// Resolved address of a bound label; fatal if unbound (used during
  /// fixup application).
  SimAddr labelAddr(Label L) const;
  /// True if the label has been bound.
  bool labelBound(Label L) const;

private:
  /// Recovery-mode ErrorHandler: records the error (adding the emission
  /// cursor's word index when a function is in progress) and throws CgAbort.
  class RecoveryHandler : public ErrorHandler {
  public:
    explicit RecoveryHandler(VCode &V) : V(V) {}
    [[noreturn]] void handle(const CgError &E) override;

  private:
    VCode &V;
  };

  /// Places the parameters of type string \p Str (e.g. "%i%p%d") under
  /// the current convention into \p Locs, one ArgWalker step per type.
  void parseTypeString(const char *Str, std::vector<ArgLoc> &Locs) const;
  void resetFunctionState();
  CodePtr endImpl();

  Target &T;
  const TargetInfo &TI;
  /// This function's tables: labels, fixups, constant pool, argument and
  /// out-call locations (the paper's "pointers to labels and unresolved
  /// jumps", §3), borrowed for the VCode's lifetime.
  FnTablesPtr Tb;
  CodeBuffer Buf;
  RegAlloc RA;
  /// The convention in force: the target's default (shared, never
  /// copied) until setCallConv installs a copy of the client's.
  const CallConv *CurCC;
  CallConv CustomCC;

  RecoveryHandler Recover{*this};
  ErrorHandler *PrevHandler = nullptr;
  bool RecoverMode = false;
  CgError Err;

  bool InFunction = false;
  bool LeafFlag = false;
  bool MadeCall = false;
  bool SuppressDelayNop = false;

  // W^X bookkeeping for the bound code region: lambda() unprotects it for
  // writing through the arena's hooks, end() publishes it executable once
  // the bytes are final. Null arena (simulated memory) means no-ops.
  CodeArena *MemArena = nullptr;
  SimAddr MemGuest = 0;
  size_t MemSize = 0;

  // Introspection metadata carried to the CodeMap entry end() publishes.
  const std::string *FnName = nullptr; ///< the region's CodeMem::Name
  Tier PubTier = Tier::Tier0;
  uint64_t PubGuestLo = 0, PubGuestHi = 0;

  Label EpiLabel;

  uint32_t LocalBytes = 0;
  uint32_t FrameBytes = 0;
  uint32_t ReservedPrologueWords = 0;

  // Tick at which v_lambda handed control to the client (start of the
  // "core.emit" telemetry phase). Unconditional so the layout is identical
  // in VCODE_TELEMETRY=ON and OFF builds; only written when ON.
  uint64_t TmEmitStart = 0;

  unsigned CallNextArg = 0; ///< next argument of the out-call in progress
};

} // namespace vcode

#endif // VCODE_CORE_VCODE_H
