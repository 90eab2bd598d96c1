//===- core/VCode.cpp - The VCODE dynamic code generator ------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "profile/CodeMap.h"
#include "support/BitUtils.h"
#include "support/Telemetry.h"
#include <cassert>

using namespace vcode;

VCode::VCode(Target &Tgt) : T(Tgt), TI(Tgt.info()) {
  CurCC = TI.DefaultCC;
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
  CallLocs.clear();
  CallNextArg = 0;
  SuppressDelayNop = false;
}

std::vector<Type> VCode::parseTypeString(const char *Str) const {
  std::vector<Type> Out;
  for (const char *P = Str; *P;) {
    if (*P != '%')
      fatal("bad type string '%s': expected '%%<type>'", Str);
    ++P;
    switch (*P++) {
    case 'v':
      break; // void: no parameters
    case 'i':
      Out.push_back(Type::I);
      break;
    case 'u':
      if (*P == 'l') { // "%ul": unsigned long
        ++P;
        Out.push_back(Type::UL);
      } else {
        Out.push_back(Type::U);
      }
      break;
    case 'l':
      Out.push_back(Type::L);
      break;
    case 'U':
      Out.push_back(Type::UL);
      break;
    case 'p':
      Out.push_back(Type::P);
      break;
    case 'f':
      Out.push_back(Type::F);
      break;
    case 'd':
      Out.push_back(Type::D);
      break;
    default:
      fatal("bad type string '%s': unknown type letter '%c'", Str, P[-1]);
    }
  }
  return Out;
}

void VCode::resetFunctionState() {
  MadeCall = false;
  SuppressDelayNop = false;
  LabelPos.clear();
  Fixups.clear();
  LocalBytes = 0;
  FrameBytes = 0;
  ArgLocations.clear();
  ArgCopies.clear();
  ConstPool.clear();
  ConstPoolLabels.clear();
  ConstPoolIndex.clear();
  CallLocs.clear();
  CallNextArg = 0;
  // FnName is per-function; PubTier deliberately persists (the retry
  // driver stamps it once, before Emit() runs lambda()).
  FnName.clear();
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
  if (Mem.Name)
    FnName = *Mem.Name;
  if (MemArena)
    MemArena->beginWrite(MemGuest, MemSize);
  RA.init(TI);
  EpiLabel = genLabel();

  std::vector<Type> ArgTypes = parseTypeString(ArgTypeStr);
  ArgLocations = computeArgLocs(CurCC, ArgTypes, TI.WordBytes);
  for (size_t I = 0; I < ArgLocations.size(); ++I) {
    const ArgLoc &L = ArgLocations[I];
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
      ArgCopies.push_back(PrologueArgCopy{L.Ty, R, L.StackOff});
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
  if (!ConstPool.empty()) {
    while (Buf.cursorAddr() & 7)
      Buf.put(0);
    for (size_t I = 0; I < ConstPool.size(); ++I) {
      label(ConstPoolLabels[I]);
      if (Buf.unitBytes() == 1) {
        Buf.put64(ConstPool[I]);
      } else {
        Buf.put(uint32_t(ConstPool[I]));
        Buf.put(uint32_t(ConstPool[I] >> 32));
      }
    }
  }

  // Backpatch unresolved jumps, branches, and constant references
  // (paper §3.2 step 4).
  for (const Fixup &F : Fixups) {
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
      Buf.baseAddr(), Entry.SizeBytes, Entry.Entry,
      uintptr_t(Buf.hostBase()), std::move(FnName), TI.Name, PubTier,
      PubGuestLo, PubGuestHi);

  VCODE_TM_SPAN("core.backpatch", TmFinishStart);
  VCODE_TM_COUNT("core.functions", 1);
  // Emitted words: body instructions plus constant-pool words.
  VCODE_TM_COUNT("core.instrs_emitted", Buf.wordIndex());
  VCODE_TM_COUNT("core.bytes_emitted", Entry.SizeBytes);
  VCODE_TM_COUNT("core.fixups", Fixups.size());
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
  LabelPos.push_back(-1);
  return Label{int32_t(LabelPos.size() - 1)};
}

void VCode::label(Label L) {
  assert(L.isValid() && size_t(L.Id) < LabelPos.size() && "bad label");
  if (LabelPos[L.Id] != -1)
    fatal("label %d bound twice", L.Id);
  LabelPos[L.Id] = Buf.wordIndex();
}

SimAddr VCode::labelAddr(Label L) const {
  assert(L.isValid() && size_t(L.Id) < LabelPos.size() && "bad label");
  if (LabelPos[L.Id] < 0)
    fatalKind(CgErrKind::UnboundLabel,
              "v_end: label %d is referenced but never bound", L.Id);
  return Buf.addrOfWord(uint32_t(LabelPos[L.Id]));
}

bool VCode::labelBound(Label L) const {
  return L.isValid() && size_t(L.Id) < LabelPos.size() &&
         LabelPos[L.Id] >= 0;
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

Label VCode::constPoolLabel(uint64_t Bits) {
  auto It = ConstPoolIndex.find(Bits);
  if (It != ConstPoolIndex.end())
    return ConstPoolLabels[It->second];
  ConstPoolIndex.emplace(Bits, unsigned(ConstPool.size()));
  ConstPool.push_back(Bits);
  ConstPoolLabels.push_back(genLabel());
  return ConstPoolLabels.back();
}

void VCode::callBegin(const char *ArgTypeStr) {
  if (LeafFlag)
    fatal("call constructed inside a procedure declared V_LEAF");
  std::vector<Type> Types = parseTypeString(ArgTypeStr);
  CallLocs = computeArgLocs(CurCC, Types, TI.WordBytes);
  CallNextArg = 0;
  uint32_t Need = outArgBytes(CurCC, CallLocs, TI.WordBytes);
  if (Need > TI.OutArgReserveBytes)
    fatal("call needs %u bytes of stack arguments but the fixed reserve is "
          "%u; raise TargetInfo::OutArgReserveBytes",
          Need, TI.OutArgReserveBytes);
  MadeCall = true;
}

void VCode::callArg(Reg Src) {
  if (CallNextArg >= CallLocs.size())
    fatal("callArg: more arguments supplied than declared in callBegin");
  const ArgLoc &L = CallLocs[CallNextArg++];
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
