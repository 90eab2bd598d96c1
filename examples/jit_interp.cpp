//===- examples/jit_interp.cpp - Interpreter vs JIT ------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The paper's best-known application class (§1): "interpreters that
// compile frequently used code to machine code and then execute it
// directly [2, 6, 8, 13]". A tiny stack bytecode VM is run two ways:
//
//  - interpreted: a bytecode interpreter (itself generated with VCODE so
//    it runs on the simulated DECstation) dispatches each opcode;
//  - JIT-compiled: the bytecode is translated once to machine code with
//    VCODE, mapping the VM's operand stack onto machine registers.
//
// The program computes sum_{i=1..n} i*i; simulated cycles show the
// order-of-magnitude win dynamic code generation buys.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "substrate/Substrate.h"
#include "support/Error.h"
#include "support/ToolFlags.h"
#include <cstdio>
#include <vector>

using namespace vcode;
using sim::TypedValue;

namespace {

// --- The bytecode VM ---------------------------------------------------------

enum OpCode : uint32_t {
  OpPush,   // push imm
  OpLoadArg, // push the function argument
  OpLoadL,  // push local[imm]
  OpStoreL, // local[imm] = pop
  OpAdd,    // b = pop, a = pop, push a+b
  OpMul,
  OpDup,    // push top
  OpLt,     // b = pop, a = pop, push (a < b)
  OpJz,     // if pop == 0 goto imm (bytecode index)
  OpJmp,    // goto imm
  OpRet,    // return pop
  NumOps
};

struct Insn {
  OpCode Op;
  int32_t Operand = 0;
};

/// Assembles: sum = 0; i = 1; while (!(arg < i)) { sum += i*i; i += 1; }
/// return sum;
std::vector<Insn> buildProgram() {
  std::vector<Insn> P;
  auto Emit = [&](OpCode Op, int32_t V = 0) {
    P.push_back({Op, V});
    return int32_t(P.size() - 1);
  };
  Emit(OpPush, 0);
  Emit(OpStoreL, 0); // sum = 0
  Emit(OpPush, 1);
  Emit(OpStoreL, 1); // i = 1
  int32_t LoopHead = int32_t(P.size());
  Emit(OpLoadArg);
  Emit(OpLoadL, 1);
  Emit(OpLt);                        // arg < i ?
  int32_t JzBody = Emit(OpJz, 0);    // fall into body when false
  int32_t JmpExit = Emit(OpJmp, 0);  // else exit
  P[JzBody].Operand = int32_t(P.size());
  Emit(OpLoadL, 0);
  Emit(OpLoadL, 1);
  Emit(OpDup);
  Emit(OpMul);
  Emit(OpAdd);
  Emit(OpStoreL, 0); // sum += i*i
  Emit(OpLoadL, 1);
  Emit(OpPush, 1);
  Emit(OpAdd);
  Emit(OpStoreL, 1); // i += 1
  Emit(OpJmp, LoopHead);
  P[JmpExit].Operand = int32_t(P.size());
  Emit(OpLoadL, 0);
  Emit(OpRet);
  return P;
}

/// Host reference.
int32_t refRun(int32_t N) {
  int32_t Sum = 0;
  for (int32_t I = 1; I <= N; ++I)
    Sum += I * I;
  return Sum;
}

// --- The interpreter, generated with VCODE so it runs on the simulator ------

/// int interp(const Insn *prog, int arg) — dispatches opcodes with a
/// compare chain; operand stack and locals live in scratch arena memory.
CodePtr genInterpreter(Target &Tgt, sim::Memory &Mem) {
  SimAddr StackBuf = Mem.alloc(4096, 8);
  SimAddr LocalBuf = Mem.alloc(256, 8);

  VCode V(Tgt);
  Reg Arg[2];
  V.lambda("%p%i", Arg, LeafHint, Mem.allocCode(16384));
  Reg Pc = V.getreg(Type::P);   // current instruction
  Reg Sp = V.getreg(Type::P);   // operand stack top (grows up)
  Reg Lb = V.getreg(Type::P);   // locals base
  Reg Op = V.getreg(Type::U);
  Reg Va = V.getreg(Type::I);
  Reg Vb = V.getreg(Type::I);
  Reg Base = V.getreg(Type::P); // program base (for jumps)

  V.movp(Base, Arg[0]);
  V.movp(Pc, Arg[0]);
  V.setp(Sp, StackBuf);
  V.setp(Lb, LocalBuf);

  Label Loop = V.genLabel();
  std::vector<Label> Case(NumOps);
  for (auto &L : Case)
    L = V.genLabel();

  V.label(Loop);
  V.ldui(Op, Pc, 0); // opcode
  for (unsigned K = 0; K < NumOps; ++K)
    V.bequi(Op, K, Case[K]);
  V.seti(Va, -1); // unknown opcode
  V.reti(Va);

  auto Next = [&] {
    V.addpi(Pc, Pc, 8);
    V.jmp(Loop);
  };
  auto Push = [&](Reg R) {
    V.stii(R, Sp, 0);
    V.addpi(Sp, Sp, 4);
  };
  auto PopTo = [&](Reg R) {
    V.addpi(Sp, Sp, -4);
    V.ldii(R, Sp, 0);
  };

  V.label(Case[OpPush]);
  V.ldii(Va, Pc, 4);
  Push(Va);
  Next();

  V.label(Case[OpLoadArg]);
  Push(Arg[1]);
  Next();

  V.label(Case[OpLoadL]);
  V.ldii(Va, Pc, 4);
  V.lshii(Va, Va, 2);
  V.addp(Va, Lb, Va);
  V.ldii(Va, Va, 0);
  Push(Va);
  Next();

  V.label(Case[OpStoreL]);
  PopTo(Va);
  V.ldii(Vb, Pc, 4);
  V.lshii(Vb, Vb, 2);
  V.addp(Vb, Lb, Vb);
  V.stii(Va, Vb, 0);
  Next();

  V.label(Case[OpAdd]);
  PopTo(Vb);
  PopTo(Va);
  V.addi(Va, Va, Vb);
  Push(Va);
  Next();

  V.label(Case[OpMul]);
  PopTo(Vb);
  PopTo(Va);
  V.muli(Va, Va, Vb);
  Push(Va);
  Next();

  V.label(Case[OpDup]);
  V.ldii(Va, Sp, -4);
  Push(Va);
  Next();

  V.label(Case[OpLt]);
  PopTo(Vb);
  PopTo(Va);
  Label T = V.genLabel(), E = V.genLabel();
  V.blti(Va, Vb, T);
  V.seti(Va, 0);
  V.jmp(E);
  V.label(T);
  V.seti(Va, 1);
  V.label(E);
  Push(Va);
  Next();

  V.label(Case[OpJz]);
  PopTo(Va);
  {
    Label Taken = V.genLabel();
    V.beqii(Va, 0, Taken);
    Next(); // fall through
    V.label(Taken);
    V.ldii(Vb, Pc, 4);
    V.lshii(Vb, Vb, 3);
    V.addp(Pc, Base, Vb);
    V.jmp(Loop);
  }

  V.label(Case[OpJmp]);
  V.ldii(Vb, Pc, 4);
  V.lshii(Vb, Vb, 3);
  V.addp(Pc, Base, Vb);
  V.jmp(Loop);

  V.label(Case[OpRet]);
  PopTo(Va);
  V.reti(Va);

  return V.end();
}

// --- The JIT: translate bytecode to machine code, stack in registers --------

CodePtr jitCompile(Target &Tgt, sim::Memory &Mem,
                   const std::vector<Insn> &Prog) {
  VCode V(Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, LeafHint, Mem.allocCode(16384));

  // The VM's operand stack becomes a register stack; its locals become
  // v_local slots.
  std::vector<Reg> Stack;
  for (int I = 0; I < 6; ++I) {
    Reg R = V.getreg(Type::I);
    if (!R.isValid())
      fatal("jit: out of stack registers");
    Stack.push_back(R);
  }
  unsigned Depth = 0;
  Local Locals[8];
  for (auto &L : Locals)
    L = V.localVar(Type::I);

  // One label per bytecode index (jump targets must be at depth 0).
  std::vector<Label> At(Prog.size() + 1);
  for (auto &L : At)
    L = V.genLabel();

  for (size_t I = 0; I < Prog.size(); ++I) {
    V.label(At[I]);
    const Insn &B = Prog[I];
    switch (B.Op) {
    case OpPush:
      V.seti(Stack[Depth++], B.Operand);
      break;
    case OpLoadArg:
      V.movi(Stack[Depth++], Arg[0]);
      break;
    case OpLoadL:
      V.loadLocal(Type::I, Stack[Depth++], Locals[B.Operand]);
      break;
    case OpStoreL:
      V.storeLocal(Type::I, Stack[--Depth], Locals[B.Operand]);
      break;
    case OpAdd:
      V.addi(Stack[Depth - 2], Stack[Depth - 2], Stack[Depth - 1]);
      --Depth;
      break;
    case OpMul:
      V.muli(Stack[Depth - 2], Stack[Depth - 2], Stack[Depth - 1]);
      --Depth;
      break;
    case OpDup:
      V.movi(Stack[Depth], Stack[Depth - 1]);
      ++Depth;
      break;
    case OpLt: {
      Label T = V.genLabel(), E = V.genLabel();
      V.blti(Stack[Depth - 2], Stack[Depth - 1], T);
      V.seti(Stack[Depth - 2], 0);
      V.jmp(E);
      V.label(T);
      V.seti(Stack[Depth - 2], 1);
      V.label(E);
      --Depth;
      break;
    }
    case OpJz:
      V.beqii(Stack[--Depth], 0, At[B.Operand]);
      break;
    case OpJmp:
      V.jmp(At[B.Operand]);
      break;
    case OpRet:
      V.reti(Stack[--Depth]);
      break;
    default:
      fatal("jit: bad opcode");
    }
  }
  V.label(At[Prog.size()]);
  Reg Z = Stack[0];
  V.seti(Z, 0);
  V.reti(Z);
  return V.end();
}

} // namespace

int main(int argc, char **argv) {
  // Shared tool flags (see support/ToolFlags.h). This example drives raw
  // VCode streams (tier-independent by design); the telemetry flags still
  // apply. --target=host builds both the interpreter and the JIT output
  // as native x86-64; --target=dbt runs the MIPS versions through the
  // binary translator (costs are then retired instructions, not cycles).
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  Substrate S = makeSubstrate(Opts, "jit_interp",
                              Substrate::Mips | Substrate::Host |
                                  Substrate::Dbt);
  sim::Memory &Mem = *S.Mem;
  Target &Tgt = *S.Tgt;
  sim::Cpu &Cpu = *S.Cpu;
  bool HaveCycles = S.modelsCycles();

  std::vector<Insn> Prog = buildProgram();

  // Encode the bytecode into simulator memory for the interpreter.
  SimAddr ProgMem = Mem.alloc(Prog.size() * 8, 8);
  for (size_t I = 0; I < Prog.size(); ++I) {
    Mem.write<uint32_t>(ProgMem + I * 8, Prog[I].Op);
    Mem.write<int32_t>(ProgMem + I * 8 + 4, Prog[I].Operand);
  }

  CodePtr Interp = genInterpreter(Tgt, Mem);
  CodePtr Jit = jitCompile(Tgt, Mem, Prog);
  std::printf("bytecode: %zu instructions; interpreter: %zu bytes; "
              "JIT output: %zu bytes\n\n",
              Prog.size(), Interp.SizeBytes, Jit.SizeBytes);

  // Simulated runs are billed in cycles; translated runs count retired
  // instructions (cycles are not modeled); native runs only check results.
  std::printf("%6s %12s %14s %14s %8s\n", "n", "expected",
              HaveCycles ? "interp cycles" : "interp instrs",
              HaveCycles ? "jit cycles" : "jit instrs", "speedup");
  for (int32_t N : {10, 100, 1000}) {
    int32_t Expect = refRun(N);
    int32_t A = Cpu.call(Interp.Entry,
                         {TypedValue::fromPtr(ProgMem), TypedValue::fromInt(N)})
                    .asInt32();
    uint64_t CI = HaveCycles ? Cpu.lastStats().Cycles : Cpu.lastStats().Instrs;
    int32_t Bv = Cpu.call(Jit.Entry, {TypedValue::fromInt(N)}).asInt32();
    uint64_t CJ = HaveCycles ? Cpu.lastStats().Cycles : Cpu.lastStats().Instrs;
    if (A != Expect || Bv != Expect) {
      std::printf("MISMATCH: want %d, interp %d, jit %d\n", Expect, A, Bv);
      return 1;
    }
    if (CJ)
      std::printf("%6d %12d %14llu %14llu %7.1fx\n", N, Expect,
                  (unsigned long long)CI, (unsigned long long)CJ,
                  double(CI) / double(CJ));
    else
      std::printf("%6d %12d %14s %14s %8s\n", N, Expect, "-", "-", "ok");
  }
  std::printf("\n\"dynamic code generation ... enabling applications to use "
              "runtime information to\nimprove performance by up to an "
              "order of magnitude\" (paper abstract)\n");
  return 0;
}
