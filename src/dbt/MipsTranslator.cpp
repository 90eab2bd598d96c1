//===- dbt/MipsTranslator.cpp - MIPS region -> x86-64 translation ----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The translated ABI and exit protocol:
//
//   uint64_t f(GuestState *S /*RDI*/, uint8_t *GuestHostBase /*RSI*/)
//
// returns the next guest PC. A return value with DbtInterpTag set asks the
// dispatcher to execute exactly one instruction unit at (ret & DbtPcMask)
// through the interpreter — that single mechanism covers memory faults,
// untranslatable opcodes, and the instruction budget, and it is what makes
// the translation bit-exact: anything subtle is *re-executed* by the
// reference implementation from precise spilled state.
//
// Instruction accounting is block-granular with fixups. A block that
// retires N guest instructions adds N to GuestState::Instrs up front
// (exiting untouched to the interpreter if that would cross InstrLimit,
// so the interpreter's own limit fatal triggers at the exact instruction);
// a mid-block exit at unit k subtracts the not-yet-executed remainder in
// its out-of-line stub. Every CTI re-executed by the interpreter after a
// delay-slot fault is idempotent to re-enter: link-register writes write
// the same value, and branch conditions are recomputed from unmodified
// state.
//
//===----------------------------------------------------------------------===//

#include "dbt/MipsTranslator.h"
#include "support/Error.h"
#include "x64/X64Encoding.h"
#include <vector>

using namespace vcode;
using namespace vcode::dbt;

namespace {

class RegionTranslator {
public:
  RegionTranslator(VCodeT<x64::X64Target> &V, const MipsRegion &R,
                   const sim::Memory &Guest)
      : V(V), R(R), GuestBase(uint32_t(Guest.base())), GuestSize(Guest.size()) {
  }

  CodePtr run(CodeMem CM) {
    Reg Args[2];
    V.lambda("%p%p", Args, LeafHint, CM);
    State = Args[0]; // RDI
    Base = Args[1];  // RSI
    A = V.getreg(Type::UL);
    B = V.getreg(Type::UL);
    C = V.getreg(Type::UL);
    D = V.getreg(Type::UL);
    Cap = V.getreg(Type::UL);
    F0 = V.getreg(Type::D);
    F1 = V.getreg(Type::D);
    if (!Cap.isValid() || !F1.isValid())
      fatalKind(CgErrKind::RegisterPressure,
                "dbt: host scratch registers unavailable");
    BlockLbl.reserve(R.Blocks.size());
    for (size_t I = 0; I < R.Blocks.size(); ++I)
      BlockLbl.push_back(V.genLabel());
    for (size_t I = 0; I < R.Blocks.size(); ++I)
      emitBlock(unsigned(I));
    return V.end();
  }

private:
  VCodeT<x64::X64Target> &V;
  const MipsRegion &R;
  uint32_t GuestBase;
  size_t GuestSize;

  Reg State, Base;       // incoming arguments, live throughout
  Reg A, B, C, D, Cap;   // int scratch; Cap survives across delay slots
  Reg F0, F1;            // fp scratch

  std::vector<Label> BlockLbl;

  /// Out-of-line interpreter-exit stubs requested by the current block.
  struct Stub {
    Label L;
    SimAddr FaultPC;       ///< unit the interpreter must re-execute
    unsigned InstrsBefore; ///< guest instructions retired before that unit
  };
  std::vector<Stub> Stubs;
  Label LimitLbl;
  unsigned BlockN = 0; ///< instructions the current block pre-charges

  // -- small emission helpers --------------------------------------------

  void loadG(Reg Rd, unsigned N) {
    // $0 is read from memory like any register: the dispatcher marshals
    // state exactly as the interpreter does (which writes R[Link]
    // unguarded), and execution-time writes below are guarded, so this
    // mirrors MipsSim bit for bit even for exotic calling conventions.
    V.loadImm(Type::U, Rd, State, gsRegOff(N));
  }
  void storeG(Reg Rs, unsigned N) {
    if (N != 0) // the interpreter's W(): writes to $0 are dropped
      V.storeImm(Type::U, Rs, State, gsRegOff(N));
  }
  void loadF(Reg Rd, unsigned F, bool Dbl) {
    V.loadImm(Dbl ? Type::D : Type::F, Rd, State, gsFprOff(F));
  }
  void storeF(Reg Rs, unsigned F, bool Dbl) {
    V.storeImm(Dbl ? Type::D : Type::F, Rs, State, gsFprOff(F));
  }

  /// cmp Ra32, Rb32 (sets flags; no register modified).
  void cmpRR(Reg Ra, Reg Rb) {
    x64::Asm As(V.buf());
    As.rr(false, 0x39, Rb.Num, Ra.Num);
  }
  /// cmp Ra32, imm32.
  void cmpRI(Reg Ra, uint32_t Imm) {
    x64::Asm As(V.buf());
    As.aluRI(false, 7, Ra.Num, Imm);
  }
  /// Rd32 = condition CC of the current flags (0/1), via the AT byte reg.
  void setCond(unsigned CC, Reg Rd) {
    x64::Asm As(V.buf());
    As.setcc(CC, x64::AT);
    As.rr0F(false, 0xB6, Rd.Num, x64::AT); // movzx Rd32, r10b
  }
  /// ucomis{s,d} Ra, Rb (FP compare; sets ZF/PF/CF).
  void ucomis(bool Dbl, Reg Ra, Reg Rb) {
    x64::Asm As(V.buf());
    As.sse(Dbl ? 0x66 : 0x00, false, 0x2E, Ra.Num, Rb.Num);
  }

  void interpExitAt(SimAddr PC) {
    V.retImm(Type::UL, int64_t(DbtInterpTag | (PC & DbtPcMask)));
  }

  /// Continue at guest PC \p T: chain directly when \p T is a translated
  /// leader in this region, otherwise hand the plain PC back.
  void exitTo(SimAddr T) {
    auto It = R.Leaders.find(T);
    if (It != R.Leaders.end())
      V.jmp(BlockLbl[It->second]);
    else
      V.retImm(Type::UL, int64_t(T & DbtPcMask));
  }

  /// Label of a fresh fault stub for the unit at \p FaultPC with
  /// \p InstrsBefore guest instructions retired before it.
  Label faultStub(SimAddr FaultPC, unsigned InstrsBefore) {
    Stub S;
    S.L = V.genLabel();
    S.FaultPC = FaultPC;
    S.InstrsBefore = InstrsBefore;
    Stubs.push_back(S);
    return S.L;
  }

  /// Effective address + access checks for a guest memory operand.
  /// Leaves EA in C (32-bit guest address) and the in-arena byte offset in
  /// D; branches to a fault stub when misaligned (mod \p Align) or out of
  /// [GuestBase, GuestBase+GuestSize-\p Bytes]. The interpreter re-executes
  /// the faulting unit and reproduces its exact diagnostic.
  void emitAccessCheck(unsigned Rs, int32_t Imm, unsigned Bytes,
                       unsigned Align, SimAddr FaultPC,
                       unsigned InstrsBefore) {
    loadG(C, Rs);
    if (Imm != 0)
      V.binopImm(BinOp::Add, Type::U, C, C, Imm); // 32-bit wrap, like uint32_t
    Label F = faultStub(FaultPC, InstrsBefore);
    if (Align > 1) {
      V.binopImm(BinOp::And, Type::U, D, C, int64_t(Align - 1));
      V.branchImm(Cond::Ne, Type::U, D, 0, F);
    }
    V.binopImm(BinOp::Sub, Type::U, D, C, int64_t(GuestBase));
    // Unsigned compare: a wrapped (EA < base) offset is huge and fails too.
    V.branchImm(Cond::Gt, Type::U, D, int64_t(GuestSize - Bytes), F);
  }

  // -- block emission ----------------------------------------------------

  void emitBlock(unsigned Idx) {
    const MipsBlock &Blk = R.Blocks[Idx];
    Stubs.clear();
    BlockN = Blk.instrCount();

    V.label(BlockLbl[Idx]);
    if (BlockN != 0) {
      // Pre-charge the whole block; exit *without storing* if that would
      // cross the budget, so the interpreter recounts from the block entry
      // and its limit fatal fires at the precise instruction.
      V.loadImm(Type::UL, A, State, GsInstrsOff);
      V.binopImm(BinOp::Add, Type::UL, A, A, int64_t(BlockN));
      V.loadImm(Type::UL, B, State, GsInstrLimitOff);
      LimitLbl = V.genLabel();
      V.branch(Cond::Gt, Type::UL, A, B, LimitLbl);
      V.storeImm(Type::UL, A, State, GsInstrsOff);
    }

    unsigned InstrIdx = 0;
    for (const MipsUnit &U : Blk.Units) {
      if (U.Kind == UnitKind::Cti)
        emitCti(U, InstrIdx);
      else
        emitPlain(U.Insn, U.PC, InstrIdx);
      InstrIdx += U.instrs();
    }

    if (Blk.Term == TermKind::InterpExit)
      interpExitAt(Blk.ExitPC);
    else if (Blk.Term == TermKind::Goto)
      exitTo(Blk.ExitPC);
    // TermKind::Cti: emitCti already emitted the dispatch.

    if (BlockN != 0) {
      V.label(LimitLbl);
      interpExitAt(Blk.Entry);
    }
    for (const Stub &S : Stubs) {
      V.label(S.L);
      // Uncharge the instructions this execution did not retire.
      if (BlockN != S.InstrsBefore) {
        V.loadImm(Type::UL, A, State, GsInstrsOff);
        V.binopImm(BinOp::Sub, Type::UL, A, A,
                   int64_t(BlockN - S.InstrsBefore));
        V.storeImm(Type::UL, A, State, GsInstrsOff);
      }
      interpExitAt(S.FaultPC);
    }
  }

  // -- control transfers -------------------------------------------------

  void emitCti(const MipsUnit &U, unsigned InstrIdx) {
    using mips::Opc;
    const mips::Insn &I = U.Insn;
    SimAddr PC = U.PC;
    bool TakenIfZero = false; // bc1f: taken when Cap == 0
    bool IsIndirect = false;  // jr / jalr: Cap holds the target PC
    bool IsStatic = false;    // j / jal: static Target

    // Phase 1: capture everything the transfer needs *before* the delay
    // slot runs (the delay instruction may overwrite sources).
    switch (I.Op) {
    case Opc::Jr:
      loadG(Cap, I.Rs);
      IsIndirect = true;
      break;
    case Opc::Jalr: // link first, then read rs (rd==rs jumps to pc+8,
                    // exactly like the interpreter's W-then-read order)
      V.setInt(Type::U, A, uint32_t(PC + 8));
      storeG(A, I.Rd);
      loadG(Cap, I.Rs);
      IsIndirect = true;
      break;
    case Opc::Bltz:
    case Opc::Bgez:
      loadG(A, I.Rs);
      cmpRI(A, 0);
      setCond(I.Op == Opc::Bltz ? x64::CC_L : x64::CC_GE, Cap);
      break;
    case Opc::J:
      IsStatic = true;
      break;
    case Opc::Jal:
      V.setInt(Type::U, A, uint32_t(PC + 8));
      V.storeImm(Type::U, A, State, gsRegOff(31));
      IsStatic = true;
      break;
    case Opc::Beq:
    case Opc::Bne:
      loadG(A, I.Rs);
      loadG(B, I.Rt);
      cmpRR(A, B);
      setCond(I.Op == Opc::Beq ? x64::CC_E : x64::CC_NE, Cap);
      break;
    case Opc::Blez:
    case Opc::Bgtz:
      loadG(A, I.Rs);
      cmpRI(A, 0);
      setCond(I.Op == Opc::Blez ? x64::CC_LE : x64::CC_G, Cap);
      break;
    case Opc::Bc1f:
    case Opc::Bc1t:
      V.loadImm(Type::U, Cap, State, GsFpCondOff);
      TakenIfZero = I.Op == Opc::Bc1f;
      break;
    default:
      fatalKind(CgErrKind::Internal, "dbt: non-CTI in CTI unit");
    }

    // Phase 2: the delay-slot instruction (never itself a CTI; uses only
    // A/B/C/D/F0/F1, so Cap survives). A fault here re-enters at the CTI,
    // which is idempotent: the link write repeats the same value and the
    // condition re-evaluates from unmodified state.
    emitPlain(U.Delay, PC, InstrIdx);

    // Phase 3: dispatch.
    if (IsIndirect) {
      V.ret(Type::UL, Cap);
      return;
    }
    if (IsStatic) {
      exitTo(mips::jumpTarget(PC, I));
      return;
    }
    Label Tk = V.genLabel();
    if (TakenIfZero)
      V.branchImm(Cond::Eq, Type::U, Cap, 0, Tk);
    else
      V.branchImm(Cond::Ne, Type::U, Cap, 0, Tk);
    exitTo(PC + 8);
    V.label(Tk);
    exitTo(mips::branchTarget(PC, I));
  }

  // -- straight-line instructions ----------------------------------------

  /// Emits one non-CTI instruction. \p FaultPC / \p InstrIdx parameterize
  /// the fault stubs: for a delay-slot instruction they name the CTI unit,
  /// not the slot itself.
  void emitPlain(const mips::Insn &I, SimAddr FaultPC, unsigned InstrIdx) {
    using mips::Opc;
    unsigned Rs = I.Rs, Rt = I.Rt, Rd = I.Rd, Sh = I.Sh;
    int32_t Imm = I.Imm;
    // COP1 arithmetic: fmt 17 is double, every other fmt single.
    bool Dbl = mips::isDouble(I);
    unsigned Ft = Rt, Fs = Rd, Fd = Sh;
    switch (I.Op) {
    case Opc::Sll:
    case Opc::Srl:
    case Opc::Sra:
      loadG(A, Rt);
      if (Sh != 0)
        V.binopImm(I.Op == Opc::Sll ? BinOp::Lsh : BinOp::Rsh,
                   I.Op == Opc::Sra ? Type::I : Type::U, A, A, Sh);
      storeG(A, Rd);
      return;
    case Opc::Sllv:
    case Opc::Srlv:
    case Opc::Srav: // the host masks the count to 5 bits, like &31
      loadG(A, Rt);
      loadG(B, Rs);
      V.binop(I.Op == Opc::Sllv ? BinOp::Lsh : BinOp::Rsh,
              I.Op == Opc::Srav ? Type::I : Type::U, A, A, B);
      storeG(A, Rd);
      return;
    case Opc::Mfhi:
      V.loadImm(Type::U, A, State, GsHiOff);
      storeG(A, Rd);
      return;
    case Opc::Mthi:
      loadG(A, Rs);
      V.storeImm(Type::U, A, State, GsHiOff);
      return;
    case Opc::Mflo:
      V.loadImm(Type::U, A, State, GsLoOff);
      storeG(A, Rd);
      return;
    case Opc::Mtlo:
      loadG(A, Rs);
      V.storeImm(Type::U, A, State, GsLoOff);
      return;
    case Opc::Mult:
    case Opc::Multu:
      loadG(A, Rs);
      loadG(B, Rt);
      if (I.Op == Opc::Mult) { // widen signed: (int64)int32 * (int64)int32
        V.cvt(Type::I, Type::L, A, A);
        V.cvt(Type::I, Type::L, B, B);
      }
      V.binop(BinOp::Mul, Type::UL, A, A, B);
      V.storeImm(Type::U, A, State, GsLoOff);
      V.binopImm(BinOp::Rsh, Type::UL, A, A, 32);
      V.storeImm(Type::U, A, State, GsHiOff);
      return;
    case Opc::Div:
    case Opc::Divu: {
      bool Signed = I.Op == Opc::Div;
      loadG(A, Rs);
      loadG(B, Rt);
      Label Ok = V.genLabel(), End = V.genLabel();
      V.branchImm(Cond::Ne, Type::U, B, 0, Ok);
      // rt == 0: LO = 0, HI = rs (the interpreter's explicit convention).
      V.storeImm(Type::U, V.zeroReg(), State, GsLoOff);
      V.storeImm(Type::U, A, State, GsHiOff);
      V.jmp(End);
      V.label(Ok);
      // 64-bit host division of the widened operands: INT_MIN / -1 yields
      // 2^31 whose low word is the interpreter's 0x80000000, remainder 0.
      V.binop(BinOp::Div, Signed ? Type::I : Type::U, C, A, B);
      V.binop(BinOp::Mod, Signed ? Type::I : Type::U, D, A, B);
      V.storeImm(Type::U, C, State, GsLoOff);
      V.storeImm(Type::U, D, State, GsHiOff);
      V.label(End);
      return;
    }
    case Opc::Add: // no trap in the interpreter
    case Opc::Addu:
    case Opc::Sub:
    case Opc::Subu:
    case Opc::And:
    case Opc::Or:
    case Opc::Xor:
      loadG(A, Rs);
      loadG(B, Rt);
      V.binop(I.Op == Opc::Add || I.Op == Opc::Addu   ? BinOp::Add
              : I.Op == Opc::Sub || I.Op == Opc::Subu ? BinOp::Sub
              : I.Op == Opc::And                      ? BinOp::And
              : I.Op == Opc::Or                       ? BinOp::Or
                                                      : BinOp::Xor,
              Type::U, A, A, B);
      storeG(A, Rd);
      return;
    case Opc::Nor:
      loadG(A, Rs);
      loadG(B, Rt);
      V.binop(BinOp::Or, Type::U, A, A, B);
      V.unop(UnOp::Com, Type::U, A, A);
      storeG(A, Rd);
      return;
    case Opc::Slt:
    case Opc::Sltu:
      loadG(A, Rs);
      loadG(B, Rt);
      cmpRR(A, B);
      setCond(I.Op == Opc::Slt ? x64::CC_L : x64::CC_B, A);
      storeG(A, Rd);
      return;
    case Opc::Addi: // the interpreter ignores the overflow trap
    case Opc::Addiu:
      loadG(A, Rs);
      V.binopImm(BinOp::Add, Type::U, A, A, Imm);
      storeG(A, Rt);
      return;
    case Opc::Slti:
    case Opc::Sltiu:
      loadG(A, Rs);
      cmpRI(A, uint32_t(Imm)); // full 32-bit immediate compare
      setCond(I.Op == Opc::Slti ? x64::CC_L : x64::CC_B, A);
      storeG(A, Rt);
      return;
    case Opc::Andi:
    case Opc::Ori:
    case Opc::Xori:
      loadG(A, Rs);
      V.binopImm(I.Op == Opc::Andi  ? BinOp::And
                 : I.Op == Opc::Ori ? BinOp::Or
                                    : BinOp::Xor,
                 Type::U, A, A, int64_t(I.UImm));
      storeG(A, Rt);
      return;
    case Opc::Lui:
      V.setInt(Type::U, A, I.UImm << 16);
      storeG(A, Rt);
      return;
    case Opc::Mfc1: // W(rt, FPR[rd])
      V.loadImm(Type::U, A, State, gsFprOff(Rd));
      storeG(A, Rt);
      return;
    case Opc::Mtc1: // FPR[rd] = R[rt] (unguarded FPR write)
      loadG(A, Rt);
      V.storeImm(Type::U, A, State, gsFprOff(Rd));
      return;
    case Opc::AddF:
    case Opc::SubF:
    case Opc::MulF:
    case Opc::DivF:
      loadF(F0, Fs, Dbl);
      loadF(F1, Ft, Dbl);
      V.binop(I.Op == Opc::AddF   ? BinOp::Add
              : I.Op == Opc::SubF ? BinOp::Sub
              : I.Op == Opc::MulF ? BinOp::Mul
                                  : BinOp::Div,
              Dbl ? Type::D : Type::F, F0, F0, F1);
      storeF(F0, Fd, Dbl);
      return;
    case Opc::SqrtF: {
      loadF(F0, Fs, Dbl);
      x64::Asm As(V.buf());
      As.sse(Dbl ? 0xF2 : 0xF3, false, 0x51, F0.Num, F0.Num);
      storeF(F0, Fd, Dbl);
      return;
    }
    case Opc::AbsF: // clear the sign bit (bitwise, NaN-preserving)
      if (Dbl) {
        V.loadImm(Type::UL, A, State, gsFprOff(Fs));
        V.binopImm(BinOp::And, Type::UL, A, A, 0x7fffffffffffffffLL);
        V.storeImm(Type::UL, A, State, gsFprOff(Fd));
      } else {
        V.loadImm(Type::U, A, State, gsFprOff(Fs));
        V.binopImm(BinOp::And, Type::U, A, A, 0x7fffffffLL);
        V.storeImm(Type::U, A, State, gsFprOff(Fd));
      }
      return;
    case Opc::MovF: // raw bit copy
      if (Dbl) {
        V.loadImm(Type::UL, A, State, gsFprOff(Fs));
        V.storeImm(Type::UL, A, State, gsFprOff(Fd));
      } else {
        V.loadImm(Type::U, A, State, gsFprOff(Fs));
        V.storeImm(Type::U, A, State, gsFprOff(Fd));
      }
      return;
    case Opc::NegF: // flip the sign bit
      if (Dbl) {
        V.loadImm(Type::UL, A, State, gsFprOff(Fs));
        V.binopImm(BinOp::Xor, Type::UL, A, A, INT64_MIN);
        V.storeImm(Type::UL, A, State, gsFprOff(Fd));
      } else {
        V.loadImm(Type::U, A, State, gsFprOff(Fs));
        V.binopImm(BinOp::Xor, Type::U, A, A, int64_t(0x80000000LL));
        V.storeImm(Type::U, A, State, gsFprOff(Fd));
      }
      return;
    case Opc::TruncW:
    case Opc::CvtW: // the interpreter truncates for both
    {
      loadF(F0, Fs, Dbl);
      // 32-bit cvttss2si / cvttsd2si: the interpreter computes an int32_t
      // cast (float sources widen to double exactly, so the single-
      // precision instruction is equivalent), 0x80000000 when out of range.
      x64::Asm As(V.buf());
      As.sse(Dbl ? 0xF2 : 0xF3, false, 0x2C, A.Num, F0.Num);
      V.storeImm(Type::U, A, State, gsFprOff(Fd));
      return;
    }
    case Opc::CvtS: // from double or from word
      if (I.Rs == 20) { // cvt.s.w
        V.loadImm(Type::U, A, State, gsFprOff(Fs));
        V.cvt(Type::I, Type::F, F0, A);
      } else { // cvt.s.d
        loadF(F0, Fs, true);
        V.cvt(Type::D, Type::F, F0, F0);
      }
      storeF(F0, Fd, false);
      return;
    case Opc::CvtD: // from single or from word
      if (I.Rs == 20) { // cvt.d.w
        V.loadImm(Type::U, A, State, gsFprOff(Fs));
        V.cvt(Type::I, Type::D, F0, A);
      } else { // cvt.d.s
        loadF(F0, Fs, false);
        V.cvt(Type::F, Type::D, F0, F0);
      }
      storeF(F0, Fd, true);
      return;
    case Opc::CEq: // true iff ZF && !PF (NaN compares false)
      loadF(F0, Fs, Dbl);
      loadF(F1, Ft, Dbl);
      ucomis(Dbl, F0, F1);
      setCond(x64::CC_E, A);
      setCond(0x0B /* NP */, B);
      {
        x64::Asm As(V.buf());
        As.rr(false, 0x21, B.Num, A.Num); // and A32, B32
      }
      V.storeImm(Type::U, A, State, GsFpCondOff);
      return;
    case Opc::CLt: // a < b  ==  ucomis(b, a) above (NaN -> false)
    case Opc::CLe:
      loadF(F0, Fs, Dbl);
      loadF(F1, Ft, Dbl);
      ucomis(Dbl, F1, F0);
      setCond(I.Op == Opc::CLt ? x64::CC_A : x64::CC_AE, A);
      V.storeImm(Type::U, A, State, GsFpCondOff);
      return;
    case Opc::Lb:
    case Opc::Lh:
    case Opc::Lw:
    case Opc::Lbu:
    case Opc::Lhu: {
      Type Ty = I.Op == Opc::Lb    ? Type::C
                : I.Op == Opc::Lh  ? Type::S
                : I.Op == Opc::Lw  ? Type::U
                : I.Op == Opc::Lbu ? Type::UC
                                   : Type::US;
      unsigned Bytes = I.Op == Opc::Lw                         ? 4
                       : (I.Op == Opc::Lh || I.Op == Opc::Lhu) ? 2
                                                               : 1;
      emitAccessCheck(Rs, Imm, Bytes, Bytes, FaultPC, InstrIdx);
      V.load(Ty, A, Base, D); // sub-word loads extend into a 32-bit value
      storeG(A, Rt);
      return;
    }
    case Opc::Sb:
    case Opc::Sh:
    case Opc::Sw: {
      Type Ty = I.Op == Opc::Sb   ? Type::UC
                : I.Op == Opc::Sh ? Type::US
                                  : Type::U;
      unsigned Bytes = I.Op == Opc::Sw ? 4 : I.Op == Opc::Sh ? 2 : 1;
      emitAccessCheck(Rs, Imm, Bytes, Bytes, FaultPC, InstrIdx);
      loadG(A, Rt);
      V.store(Ty, A, Base, D);
      return;
    }
    case Opc::Lwc1:
      emitAccessCheck(Rs, Imm, 4, 4, FaultPC, InstrIdx);
      V.load(Type::U, A, Base, D);
      V.storeImm(Type::U, A, State, gsFprOff(Rt));
      return;
    case Opc::Swc1:
      emitAccessCheck(Rs, Imm, 4, 4, FaultPC, InstrIdx);
      V.loadImm(Type::U, A, State, gsFprOff(Rt));
      V.store(Type::U, A, Base, D);
      return;
    case Opc::Ldc1: // two interpreter word accesses, so alignment is 4;
                    // both words checked before either moves (8-byte bounds)
      emitAccessCheck(Rs, Imm, 8, 4, FaultPC, InstrIdx);
      V.load(Type::UL, A, Base, D); // little-endian == FPR[rt] | FPR[rt+1]<<32
      V.storeImm(Type::UL, A, State, gsFprOff(Rt));
      return;
    case Opc::Sdc1:
      emitAccessCheck(Rs, Imm, 8, 4, FaultPC, InstrIdx);
      V.loadImm(Type::UL, A, State, gsFprOff(Rt));
      V.store(Type::UL, A, Base, D);
      return;
    default:
      fatalKind(CgErrKind::Internal, "dbt: untranslatable %s",
                mips::info(I.Op).Mnemonic);
    }
  }
};

} // namespace

CodePtr vcode::dbt::translateRegion(VCodeT<x64::X64Target> &V,
                                    const MipsRegion &R, CodeMem CM,
                                    const sim::Memory &GuestMem) {
  RegionTranslator T(V, R, GuestMem);
  return T.run(CM);
}
