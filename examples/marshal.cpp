//===- examples/marshal.cpp - Runtime argument marshaling ------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// The §2 capability no automatic system offered: "clients can use VCODE to
// dynamically generate functions (and function calls) that take an
// arbitrary number and type of arguments, allowing them to construct
// efficient argument marshaling and unmarshaling code."
//
// This example receives a message descriptor at runtime — a signature
// string like "iidp" — and generates (1) a marshaler that takes those
// arguments in registers and serializes them into a buffer, and (2) an
// unmarshaler that deserializes the buffer and calls a handler with the
// original arguments. Neither the number nor the types of the arguments
// is known until runtime.
//
//===----------------------------------------------------------------------===//

#include "core/VCode.h"
#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include <cstdio>
#include <string>
#include <vector>

using namespace vcode;
using sim::TypedValue;

namespace {

Type typeOf(char C) {
  switch (C) {
  case 'i':
    return Type::I;
  case 'd':
    return Type::D;
  case 'p':
    return Type::P;
  default:
    fatal("unknown signature letter '%c'", C);
  }
}

/// Generates: void marshal(buf, a0, a1, ...) — stores each argument of the
/// runtime-described signature into the buffer at naturally-aligned
/// offsets.
CodePtr genMarshaler(Target &Tgt, sim::Memory &Mem, const std::string &Sig) {
  VCode V(Tgt);
  std::string ArgStr = "%p";
  for (char C : Sig)
    ArgStr += std::string("%") + C;
  std::vector<Reg> Args(Sig.size() + 1);
  V.lambda(ArgStr.c_str(), Args.data(), LeafHint, Mem.allocCode(4096));

  int64_t Off = 0;
  for (size_t I = 0; I < Sig.size(); ++I) {
    Type Ty = typeOf(Sig[I]);
    unsigned Size = typeSize(Ty, V.info().WordBytes);
    Off = int64_t((Off + Size - 1) & ~int64_t(Size - 1));
    V.storeImm(Ty, Args[I + 1], Args[0], Off);
    Off += Size;
  }
  V.retv();
  return V.end();
}

/// Generates: int unmarshal(buf) — loads every field back and calls the
/// handler with the reconstructed argument list.
CodePtr genUnmarshaler(Target &Tgt, sim::Memory &Mem, const std::string &Sig,
                       SimAddr Handler) {
  VCode V(Tgt);
  Reg Buf[1];
  V.lambda("%p", Buf, NonLeafHint, Mem.allocCode(4096));

  // Keep the buffer pointer in a persistent register across the call
  // marshaling sequence.
  Reg P = V.getreg(Type::P, RegClass::Var);
  V.movp(P, Buf[0]);

  std::string CallSig;
  for (char C : Sig)
    CallSig += std::string("%") + C;
  V.callBegin(CallSig.c_str());
  int64_t Off = 0;
  for (char C : Sig) {
    Type Ty = typeOf(C);
    unsigned Size = typeSize(Ty, V.info().WordBytes);
    Off = int64_t((Off + Size - 1) & ~int64_t(Size - 1));
    Reg T = V.getreg(Ty);
    V.loadImm(Ty, T, P, Off);
    V.callArg(T);
    V.putreg(T);
    Off += Size;
  }
  V.callAddr(Handler);
  V.reti(V.retvalReg(Type::I));
  return V.end();
}

} // namespace

int main(int argc, char **argv) {
  // Shared tool flags (see support/ToolFlags.h). This example drives raw
  // VCode streams (tier-independent by design); the telemetry flags still
  // apply. --target picks the machine: mips (simulated, default), host
  // (marshal/unmarshal/handler all run natively on x86-64), or dbt (the
  // MIPS code runs through the binary translator — including the
  // generated call into the handler).
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  Substrate S = makeSubstrate(Opts, "marshal",
                              Substrate::Mips | Substrate::Host |
                                  Substrate::Dbt);
  sim::Memory &Mem = *S.Mem;
  Target &Tgt = *S.Tgt;
  sim::Cpu &Cpu = *S.Cpu;

  // The "protocol" handler: int handler(int a, int b, double x, char *msg)
  // = a + b + (int)x + msg[0]. Also generated with VCODE, naturally.
  CodePtr Handler = [&] {
    VCode V(Tgt);
    Reg Arg[4];
    V.lambda("%i%i%d%p", Arg, LeafHint, Mem.allocCode(4096));
    Reg S = V.getreg(Type::I);
    V.addi(S, Arg[0], Arg[1]);
    Reg Xi = V.getreg(Type::I);
    V.cvd2i(Xi, Arg[2]);
    V.addi(S, S, Xi);
    Reg C = V.getreg(Type::I);
    V.ldci(C, Arg[3], 0);
    V.addi(S, S, C);
    V.reti(S);
    return V.end();
  }();

  // The signature arrives at runtime (imagine it came off the network).
  std::string Sig = "iidp";
  std::printf("runtime signature: \"%s\"\n", Sig.c_str());
  CodePtr Marshal = genMarshaler(Tgt, Mem, Sig);
  CodePtr Unmarshal = genUnmarshaler(Tgt, Mem, Sig, Handler.Entry);
  std::printf("generated marshaler (%zu bytes) and unmarshaler (%zu "
              "bytes)\n",
              Marshal.SizeBytes, Unmarshal.SizeBytes);

  // Marshal (10, 20, 2.5, "Hello") into a buffer...
  SimAddr Str = Mem.alloc(16);
  Mem.write<uint8_t>(Str, 'H');
  SimAddr Buf = Mem.alloc(64, 8);
  Cpu.call(Marshal.Entry,
           {TypedValue::fromPtr(Buf), TypedValue::fromInt(10),
            TypedValue::fromInt(20), TypedValue::fromDouble(2.5),
            TypedValue::fromPtr(Str)},
           Type::V);

  // ...then unmarshal and dispatch on the "receiving" side.
  int32_t R =
      Cpu.call(Unmarshal.Entry, {TypedValue::fromPtr(Buf)}).asInt32();
  std::printf("unmarshal+dispatch returned %d (want %d)\n", R,
              10 + 20 + 2 + 'H');
  return R == 10 + 20 + 2 + 'H' ? 0 : 1;
}
