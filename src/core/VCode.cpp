//===- core/VCode.cpp - The VCODE dynamic code generator ------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "core/VRegLayer.h"
#include "profile/CodeMap.h"
#include "support/BitUtils.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <cassert>

using namespace vcode;

// --- Per-thread table sets ------------------------------------------------

namespace {

/// Sets a thread keeps: a VCode and its VRegLayer, twice over (two
/// functions open at once).
constexpr unsigned MaxKeptSets = 4;
/// A returned set that reserved more than this is freed, not kept.
constexpr size_t MaxKeptBytes = size_t(1) << 20;

template <class T> size_t reserved(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

struct FreeSets {
  FnTables *Sets[MaxKeptSets] = {};
  unsigned N = 0;
  ~FreeSets();
};

// Set once this thread's list is destroyed (thread exit): a VCode that
// outlives it, e.g. one with static storage, frees its set instead.
thread_local bool FreeSetsGone = false;
thread_local FreeSets Free;

FreeSets::~FreeSets() {
  while (N)
    delete Sets[--N];
  FreeSetsGone = true;
}

} // namespace

FnTables::FnTables() = default;
FnTables::~FnTables() = default;

FnTablesPtr FnTables::acquire() {
  if (!FreeSetsGone && Free.N)
    return FnTablesPtr(Free.Sets[--Free.N]);
  return FnTablesPtr(new FnTables);
}

void FnTablesRelease::operator()(FnTables *T) const {
  if (FreeSetsGone || Free.N == MaxKeptSets ||
      T->capacityBytes() > MaxKeptBytes) {
    delete T;
    return;
  }
  T->clear();
  Free.Sets[Free.N++] = T;
}

VRegTables &FnTables::vreg() {
  if (!VReg)
    VReg = std::make_unique<VRegTables>();
  return *VReg;
}

void FnTables::clear() {
  LabelPos.clear();
  Fixups.clear();
  ConstPool.clear();
  ConstPoolLabels.clear();
  ConstPoolIndex.clear();
  ArgLocations.clear();
  ArgCopies.clear();
  CallLocs.clear();
  if (VReg)
    VReg->clear();
}

size_t FnTables::capacityBytes() const {
  return reserved(LabelPos) + reserved(Fixups) + reserved(ConstPool) +
         reserved(ConstPoolLabels) + reserved(ConstPoolIndex) +
         reserved(ArgLocations) + reserved(ArgCopies) + reserved(CallLocs) +
         (VReg ? VReg->capacityBytes() : 0);
}

// --- VCode ------------------------------------------------------------------

VCode::VCode(Target &Tgt)
    : T(Tgt), TI(Tgt.info()), Tb(FnTables::acquire()), CurCC(&TI.DefaultCC) {
  RA.init(TI);
}

VCode::~VCode() {
  // Never leave a dangling handler pointing at a destroyed object.
  if (RecoverMode)
    setErrorRecovery(false);
}

void VCode::setErrorRecovery(bool Enable) {
  if (Enable == RecoverMode)
    return;
  if (Enable)
    PrevHandler = setErrorHandler(&Recover);
  else {
    setErrorHandler(PrevHandler);
    PrevHandler = nullptr;
  }
  RecoverMode = Enable;
}

void VCode::RecoveryHandler::handle(const CgError &E) {
  CgError Rec = E;
  if (Rec.WordIndex == CgError::NoWordIndex && V.InFunction && V.Buf.isBound())
    Rec.WordIndex = V.Buf.wordIndex();
  if (!V.Err) // keep the first (root-cause) error
    V.Err = Rec;
  throw CgAbort(Rec);
}

void VCode::abandon() {
  InFunction = false;
  Tb->CallLocs.clear();
  CallNextArg = 0;
  SuppressDelayNop = false;
}

void VCode::parseTypeString(const char *Str, std::vector<ArgLoc> &Locs) const {
  Locs.clear();
  ArgWalker Walk(*CurCC, TI.WordBytes);
  for (const char *P = Str; *P;) {
    if (*P != '%')
      fatal("bad type string '%s': expected '%%<type>'", Str);
    ++P;
    Type Ty = Type::V;
    switch (*P++) {
    case 'v':
      continue; // void: no parameters
    case 'i':
      Ty = Type::I;
      break;
    case 'u':
      if (*P == 'l') { // "%ul": unsigned long
        ++P;
        Ty = Type::UL;
      } else {
        Ty = Type::U;
      }
      break;
    case 'l':
      Ty = Type::L;
      break;
    case 'U':
      Ty = Type::UL;
      break;
    case 'p':
      Ty = Type::P;
      break;
    case 'f':
      Ty = Type::F;
      break;
    case 'd':
      Ty = Type::D;
      break;
    default:
      fatal("bad type string '%s': unknown type letter '%c'", Str, P[-1]);
    }
    Locs.push_back(Walk.next(Ty));
  }
}

void VCode::resetFunctionState() {
  MadeCall = false;
  SuppressDelayNop = false;
  LocalBytes = 0;
  FrameBytes = 0;
  Tb->clear();
  CallNextArg = 0;
  // PubTier deliberately persists (the retry driver stamps it once, before
  // Emit() runs lambda()).
}

void VCode::lambda(const char *ArgTypeStr, Reg *ArgRegs, bool IsLeaf,
                   CodeMem Mem) {
  if (InFunction)
    fatal("v_lambda: previous function not finished with v_end");
  Err = CgError{};
  resetFunctionState();
  InFunction = true;
  LeafFlag = IsLeaf;
  Buf.reset(Mem, TI.CodeUnitBytes);
  MemArena = Mem.Arena;
  MemGuest = Mem.Guest;
  MemSize = Mem.Size;
  FnName = Mem.Name;
  if (MemArena)
    MemArena->beginWrite(MemGuest, MemSize);
  RA.init(TI);
  EpiLabel = genLabel();

  parseTypeString(ArgTypeStr, Tb->ArgLocations);
  for (size_t I = 0; I < Tb->ArgLocations.size(); ++I) {
    const ArgLoc &L = Tb->ArgLocations[I];
    Reg R;
    if (!L.OnStack) {
      // Keep the parameter in its incoming register (paper §3.2: "strives
      // to keep parameters in their incoming registers"). The register may
      // not be an allocation candidate under a substituted convention; it
      // is used in place either way.
      RA.take(L.R);
      R = L.R;
    } else {
      R = RA.get(L.Ty, RegClass::Temp, LeafFlag);
      if (!R.isValid())
        fatalKind(CgErrKind::RegisterPressure,
                  "v_lambda: out of registers for parameter %zu", I);
      Tb->ArgCopies.push_back(PrologueArgCopy{L.Ty, R, L.StackOff});
    }
    if (ArgRegs)
      ArgRegs[I] = R;
  }
  T.beginFunction(*this);
  VCODE_TM_STMT(TmEmitStart = telemetry::tick());
}

CodePtr VCode::end() {
  if (!RecoverMode)
    return endImpl();
  if (Err) {
    // Poisoned mid-emission: never hand out partially-emitted code.
    abandon();
    return CodePtr{};
  }
  try {
    return endImpl();
  } catch (const CgAbort &) {
    abandon();
    return CodePtr{};
  }
}

CodePtr VCode::endImpl() {
  if (!InFunction)
    fatal("v_end without v_lambda");

  // Phase boundary: everything from v_lambda to here was client-driven
  // emission; everything below is finishing (prologue/epilogue patching,
  // constant pool, label resolution and backpatch). One tick serves as
  // both the emit end and the backpatch start — aggregated per function,
  // never per instruction, so the hot put() path stays untouched.
  VCODE_TM_TICK(TmFinishStart);
  VCODE_TM_SPAN_AT("core.emit", TmEmitStart, TmFinishStart);

  // Fix the activation record size now that all locals are allocated
  // (paper §5.2): fixed outgoing-argument reserve, worst-case register save
  // area, then locals, rounded to 16 bytes.
  FrameBytes = frameNeeded()
                   ? uint32_t(alignTo(TI.localAreaBase() + LocalBytes, 16))
                   : 0;

  // Write the real prologue into the reserved area and the epilogue after
  // the body; returns the entry point (which skips unused reserved words).
  CodePtr Entry = T.endFunction(*this);

  // Floating-point immediates go at the end of the instruction stream so
  // their space is reclaimed with the function (paper §5.2).
  const std::vector<uint64_t> &Pool = Tb->ConstPool;
  if (!Pool.empty()) {
    while (Buf.cursorAddr() & 7)
      Buf.put(0);
    for (size_t I = 0; I < Pool.size(); ++I) {
      label(Tb->ConstPoolLabels[I]);
      if (Buf.unitBytes() == 1) {
        Buf.put64(Pool[I]);
      } else {
        Buf.put(uint32_t(Pool[I]));
        Buf.put(uint32_t(Pool[I] >> 32));
      }
    }
  }

  // Backpatch unresolved jumps, branches, and constant references
  // (paper §3.2 step 4).
  for (const Fixup &F : Tb->Fixups) {
    if (F.Kind == FixupKind::EpilogueJump && !frameNeeded()) {
      // No epilogue: the target rewrites the site into a direct return.
      T.applyFixup(*this, F, 0);
      continue;
    }
    T.applyFixup(*this, F, labelAddr(F.Lab));
  }

  InFunction = false;
  Entry.SizeBytes = Buf.usedBytes();

  // The bytes are final: flip the region executable and flush icaches.
  // Unreached on a poisoned function (recovery unwinds above), so
  // partially emitted code is never made executable.
  if (MemArena)
    MemArena->publish(MemGuest, Entry.SizeBytes);

  // Register the finished region with the process-wide CodeMap (no-op
  // when telemetry is compiled out) under its final name, tier and guest
  // range: the entry is never changed after this.
  profile::CodeMap::instance().publish(
      Buf.baseAddr(), Entry.SizeBytes, Entry.Entry, uintptr_t(Buf.hostBase()),
      FnName ? std::string_view(*FnName) : std::string_view(), TI.Name,
      PubTier, PubGuestLo, PubGuestHi);

  VCODE_TM_SPAN("core.backpatch", TmFinishStart);
  VCODE_TM_COUNT("core.functions", 1);
  // Emitted words: body instructions plus constant-pool words.
  VCODE_TM_COUNT("core.instrs_emitted", Buf.wordIndex());
  VCODE_TM_COUNT("core.bytes_emitted", Entry.SizeBytes);
  VCODE_TM_COUNT("core.fixups", Tb->Fixups.size());
  return Entry;
}

bool VCode::frameNeeded() const {
  return !LeafFlag || MadeCall || LocalBytes != 0 ||
         RA.usedCalleeSavedMask(Reg::Int) != 0 ||
         RA.usedCalleeSavedMask(Reg::Fp) != 0;
}

Reg VCode::getreg(Type Ty, RegClass C) { return RA.get(Ty, C, LeafFlag); }

void VCode::putreg(Reg R) { RA.put(R); }

Reg VCode::tmp(unsigned I, Type Ty) const {
  const std::vector<Reg> &L = isFpType(Ty) ? TI.FpTemps : TI.IntTemps;
  if (I >= L.size())
    fatalKind(CgErrKind::RegisterPressure,
              "register assertion: %s has only %zu %s temporaries, T%u "
              "requested",
              TI.Name, L.size(), isFpType(Ty) ? "fp" : "integer", I);
  return L[I];
}

Reg VCode::sav(unsigned I, Type Ty) {
  const std::vector<Reg> &L = isFpType(Ty) ? TI.FpSaves : TI.IntSaves;
  if (I >= L.size())
    fatalKind(CgErrKind::RegisterPressure,
              "register assertion: %s has only %zu %s callee-saved "
              "registers, S%u requested",
              TI.Name, L.size(), isFpType(Ty) ? "fp" : "integer", I);
  RA.noteCalleeSavedUse(L[I]);
  return L[I];
}

Label VCode::genLabel() {
  std::vector<int32_t> &Pos = Tb->LabelPos;
  Pos.push_back(-1);
  return Label{int32_t(Pos.size() - 1)};
}

void VCode::label(Label L) {
  std::vector<int32_t> &Pos = Tb->LabelPos;
  assert(L.isValid() && size_t(L.Id) < Pos.size() && "bad label");
  if (Pos[L.Id] != -1)
    fatal("label %d bound twice", L.Id);
  Pos[L.Id] = int32_t(Buf.wordIndex());
}

SimAddr VCode::labelAddr(Label L) const {
  const std::vector<int32_t> &Pos = Tb->LabelPos;
  assert(L.isValid() && size_t(L.Id) < Pos.size() && "bad label");
  if (Pos[L.Id] < 0)
    fatalKind(CgErrKind::UnboundLabel,
              "v_end: label %d is referenced but never bound", L.Id);
  return Buf.addrOfWord(uint32_t(Pos[L.Id]));
}

bool VCode::labelBound(Label L) const {
  const std::vector<int32_t> &Pos = Tb->LabelPos;
  return L.isValid() && size_t(L.Id) < Pos.size() && Pos[L.Id] >= 0;
}

Local VCode::localVar(Type Ty) {
  unsigned Size = typeSize(Ty, TI.WordBytes);
  LocalBytes = uint32_t(alignTo(LocalBytes, Size));
  Local Lo{int32_t(TI.localAreaBase() + LocalBytes), Ty};
  LocalBytes += Size;
  return Lo;
}

void VCode::loadLocal(Type Ty, Reg Rd, Local Lo) {
  assert(Lo.isValid() && "local never allocated");
  loadImm(Ty, Rd, spReg(), Lo.Off);
}

void VCode::storeLocal(Type Ty, Reg Rs, Local Lo) {
  assert(Lo.isValid() && "local never allocated");
  storeImm(Ty, Rs, spReg(), Lo.Off);
}

void VCode::localAddr(Reg Rd, Local Lo) {
  assert(Lo.isValid() && "local never allocated");
  binopImm(BinOp::Add, Type::P, Rd, spReg(), Lo.Off);
}

namespace {
/// Home slot of \p Bits in an index of \p Mask + 1 slots (Fibonacci
/// hashing: the multiply carries every input bit into the slot bits).
size_t poolSlot(uint64_t Bits, size_t Mask) {
  return size_t((Bits * 0x9e3779b97f4a7c15ull) >> 32) & Mask;
}
} // namespace

Label VCode::constPoolLabel(uint64_t Bits) {
  std::vector<uint64_t> &Pool = Tb->ConstPool;
  std::vector<uint32_t> &Index = Tb->ConstPoolIndex;
  // Keep the index at most half full: start at 16 slots, double and
  // reinsert. Entries never move, so the pool keeps first-use order.
  if (2 * (Pool.size() + 1) > Index.size()) {
    Index.assign(std::max<size_t>(16, 2 * Index.size()), 0);
    const size_t Mask = Index.size() - 1;
    for (uint32_t E = 0; E < Pool.size(); ++E) {
      size_t S = poolSlot(Pool[E], Mask);
      while (Index[S])
        S = (S + 1) & Mask;
      Index[S] = E + 1;
    }
  }
  const size_t Mask = Index.size() - 1;
  size_t S = poolSlot(Bits, Mask);
  for (; Index[S]; S = (S + 1) & Mask)
    if (Pool[Index[S] - 1] == Bits)
      return Tb->ConstPoolLabels[Index[S] - 1];
  Index[S] = uint32_t(Pool.size()) + 1;
  Pool.push_back(Bits);
  Tb->ConstPoolLabels.push_back(genLabel());
  return Tb->ConstPoolLabels.back();
}

void VCode::callBegin(const char *ArgTypeStr) {
  if (LeafFlag)
    fatal("call constructed inside a procedure declared V_LEAF");
  parseTypeString(ArgTypeStr, Tb->CallLocs);
  CallNextArg = 0;
  uint32_t Need = outArgBytes(*CurCC, Tb->CallLocs, TI.WordBytes);
  if (Need > TI.OutArgReserveBytes)
    fatal("call needs %u bytes of stack arguments but the fixed reserve is "
          "%u; raise TargetInfo::OutArgReserveBytes",
          Need, TI.OutArgReserveBytes);
  MadeCall = true;
}

void VCode::callArg(Reg Src) {
  if (CallNextArg >= Tb->CallLocs.size())
    fatal("callArg: more arguments supplied than declared in callBegin");
  const ArgLoc &L = Tb->CallLocs[CallNextArg++];
  if (L.OnStack)
    storeImm(L.Ty, Src, spReg(), L.StackOff);
  else if (Src != L.R)
    unop(UnOp::Mov, L.Ty, L.R, Src);
}

void VCode::callAddr(SimAddr Callee) {
  if (LeafFlag)
    fatal("call constructed inside a procedure declared V_LEAF");
  MadeCall = true;
  T.emitCallAddr(*this, Callee);
}

void VCode::callReg(Reg Callee) {
  if (LeafFlag)
    fatal("call constructed inside a procedure declared V_LEAF");
  MadeCall = true;
  T.emitCallReg(*this, Callee);
}

void VCode::callLabel(Label L) {
  if (LeafFlag)
    fatal("call constructed inside a procedure declared V_LEAF");
  MadeCall = true;
  T.emitCallLabel(*this, L);
}
