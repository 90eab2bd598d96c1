//===- tests/ErrorTest.cpp - API misuse and failure injection -----------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// VCODE's error policy (and the paper's §1 complaint about hand-rolled
// generators being "error-prone, and frequently the source of latent bugs
// due to boundary conditions"): programmer errors abort loudly with a
// diagnostic instead of emitting garbage. These death tests pin down the
// diagnostics for every documented misuse.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Generate.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace vcode;
using namespace vcode::test;

namespace {

class ErrorTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { B = makeSubstrate(GetParam()); }
  CodeMem code(size_t Bytes = 8192) { return B.Mem->allocCode(Bytes); }
  Substrate B;
};

TEST_P(ErrorTest, CodeBufferOverflow) {
  // A buffer too small for even the prologue reservation must fail with
  // the paper's boundary-condition diagnostic, not scribble memory.
  VCode V(*B.Tgt);
  EXPECT_DEATH(
      {
        V.lambda("%v", nullptr, LeafHint, code(64));
        for (int I = 0; I < 1000; ++I)
          V.nop();
      },
      "overflow");
}

TEST_P(ErrorTest, EndWithoutLambda) {
  VCode V(*B.Tgt);
  EXPECT_DEATH((void)V.end(), "v_end without v_lambda");
}

TEST_P(ErrorTest, NestedLambda) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  EXPECT_DEATH(V.lambda("%v", nullptr, LeafHint, code()),
               "not finished");
}

TEST_P(ErrorTest, BadTypeString) {
  VCode V(*B.Tgt);
  EXPECT_DEATH(V.lambda("%q", nullptr, LeafHint, code()), "type letter");
  EXPECT_DEATH(V.lambda("ii", nullptr, LeafHint, code()), "expected");
}

TEST_P(ErrorTest, LabelBoundTwice) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Label L = V.genLabel();
  V.label(L);
  EXPECT_DEATH(V.label(L), "twice");
}

TEST_P(ErrorTest, TooManyCallArguments) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%i", Arg, NonLeafHint, code());
  V.callBegin("%i");
  V.callArg(Arg[0]);
  EXPECT_DEATH(V.callArg(Arg[0]), "more arguments");
}

TEST_P(ErrorTest, TooManyStackArguments) {
  // The fixed outgoing-argument reserve (paper §5.2's space-for-time
  // trade) is a hard limit with a clear diagnostic.
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, NonLeafHint, code());
  std::string Sig;
  for (int I = 0; I < 40; ++I)
    Sig += "%i";
  EXPECT_DEATH(V.callBegin(Sig.c_str()), "reserve");
}

TEST_P(ErrorTest, DoublePutreg) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Reg R = V.getreg(Type::I);
  V.putreg(R);
#ifndef NDEBUG
  EXPECT_DEATH(V.putreg(R), "double putreg");
#endif
}

TEST_P(ErrorTest, FpImmediateOperandRejected) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%d", Arg, LeafHint, code());
  // Paper Table 2: "this operand may be an immediate provided its type is
  // not f or d".
  EXPECT_DEATH(V.binopImm(BinOp::Add, Type::D, Arg[0], Arg[0], 1),
               "immediate");
}

TEST_P(ErrorTest, UnknownExtensionInstruction) {
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  EXPECT_DEATH(V.ext("no.such.instruction", {}), "unknown extension");
}

TEST_P(ErrorTest, SimulatorCatchesRunawayCode) {
  // An infinite loop trips the instruction limit rather than hanging.
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code());
  Label L = V.genLabel();
  V.label(L);
  V.jmp(L);
  CodePtr Fn = V.end();
  B.Cpu->setInstrLimit(100000);
  EXPECT_DEATH(B.Cpu->call(Fn.Entry, {}),
               "instruction limit \\(100000\\) exceeded");
}

TEST_P(ErrorTest, SimulatorCatchesWildMemoryAccess) {
  VCode V(*B.Tgt);
  Reg Arg[1];
  V.lambda("%p", Arg, LeafHint, code());
  Reg T = V.getreg(Type::I);
  V.ldii(T, Arg[0], 0);
  V.reti(T);
  CodePtr Fn = V.end();
  EXPECT_DEATH(B.Cpu->call(Fn.Entry, {sim::TypedValue::fromPtr(4)}),
               "outside the arena");
}

// --- Recovery mode (the opt-in alternative to the abort policy) ------------

TEST_P(ErrorTest, RecoveredBufferOverflow) {
  // Same scenario as CodeBufferOverflow above, but with recovery enabled:
  // the overflow unwinds via CgAbort, records a structured error, and the
  // VCode object remains usable for a retry with a larger region.
  VCode V(*B.Tgt);
  V.setErrorRecovery(true);
  bool Unwound = false;
  try {
    V.lambda("%v", nullptr, LeafHint, code(64));
    for (int I = 0; I < 1000; ++I)
      V.nop();
    (void)V.end();
  } catch (const CgAbort &E) {
    Unwound = true;
    EXPECT_EQ(E.error().Kind, CgErrKind::BufferOverflow);
  }
  ASSERT_TRUE(Unwound);
  EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
  EXPECT_NE(V.lastError().WordIndex, CgError::NoWordIndex);
  EXPECT_NE(std::string(V.lastError().Detail).find("overflow"),
            std::string::npos);

  // Retry: abandon the poisoned function, re-emit into a larger region.
  V.abandon();
  V.lambda("%v", nullptr, LeafHint, code(8192));
  for (int I = 0; I < 1000; ++I)
    V.nop();
  V.retv();
  CodePtr Fn = V.end();
  ASSERT_TRUE(Fn.isValid());
  EXPECT_FALSE(V.lastError()) << "lambda must clear the recorded error";
  B.Cpu->call(Fn.Entry, {});
}

TEST_P(ErrorTest, OverflowAdviceFollowsWhoSizedTheRegion) {
  // A region handed straight to v_lambda is fixed, so the client is told
  // to pass a larger one. A growable region comes from generateWithRetry,
  // which grows and retries on its own up to its cap; past the cap it
  // gives up, so the advice names the cap instead.
  VCode V(*B.Tgt);
  auto Emit = [&](CodeMem CM) {
    V.lambda("%v", nullptr, LeafHint, CM);
    for (int I = 0; I < 1000; ++I)
      V.nop();
    V.retv();
    return V.end();
  };
  V.setErrorRecovery(true);
  EXPECT_THROW((void)Emit(code(64)), CgAbort);
  V.abandon();
  EXPECT_NE(std::strstr(V.lastError().Detail,
                        "pass a larger region to v_lambda"),
            nullptr)
      << V.lastError().Detail;
  V.setErrorRecovery(false);

  GenerateOptions Opts;
  Opts.InitialBytes = 64;
  Opts.MaxBytes = 128;
  GenerateResult R = generateWithRetry(
      V, [&](size_t N) { return code(N); }, Emit, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(std::strstr(R.Err.Detail, "exceed the region's growth cap of 128 "
                                      "(GenerateOptions::MaxBytes)"),
            nullptr)
      << R.Err.Detail;
  EXPECT_EQ(std::strstr(R.Err.Detail, "grows and retries"), nullptr)
      << R.Err.Detail;
}

TEST_P(ErrorTest, PoisonedEndReturnsInvalidCodePtr) {
  // Once an emission error has been recorded, end() must never finalize
  // the partially emitted function into something executable.
  VCode V(*B.Tgt);
  V.setErrorRecovery(true);
  try {
    V.lambda("%v", nullptr, LeafHint, code(64));
    for (int I = 0; I < 1000; ++I)
      V.nop();
  } catch (const CgAbort &) {
  }
  CodePtr Fn = V.end();
  EXPECT_FALSE(Fn.isValid());
  EXPECT_EQ(V.lastError().Kind, CgErrKind::BufferOverflow);
  EXPECT_FALSE(V.inFunction()) << "end() on a poisoned function abandons it";
}

TEST_P(ErrorTest, RecoveredBadPatch) {
  // A fixup at a word index that was never emitted must surface as a
  // structured BadPatch error from end(), not scribble or abort.
  VCode V(*B.Tgt);
  V.setErrorRecovery(true);
  V.lambda("%v", nullptr, LeafHint, code(4096));
  Label L = V.genLabel();
  V.label(L);
  V.nop();
  V.addFixupAt(9999, FixupKind::Jump, L);
  V.retv();
  CodePtr Fn = V.end();
  EXPECT_FALSE(Fn.isValid());
  EXPECT_EQ(V.lastError().Kind, CgErrKind::BadPatch);
}

TEST_P(ErrorTest, RecoveredUnboundLabel) {
  VCode V(*B.Tgt);
  V.setErrorRecovery(true);
  V.lambda("%v", nullptr, LeafHint, code(4096));
  V.jmp(V.genLabel()); // never bound
  V.retv();
  CodePtr Fn = V.end();
  EXPECT_FALSE(Fn.isValid());
  EXPECT_EQ(V.lastError().Kind, CgErrKind::UnboundLabel);
}

// --- Unconditional checks (formerly assert-only / release-mode UB) ---------

TEST_P(ErrorTest, BadPatchIndexIsFatalByDefault) {
  // Patch indices come from client-supplied fixups, so the bound is
  // checked in release builds too.
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code(4096));
  Label L = V.genLabel();
  V.label(L);
  V.nop();
  V.addFixupAt(9999, FixupKind::Jump, L);
  V.retv();
  EXPECT_DEATH((void)V.end(), "out of range");
}

TEST_P(ErrorTest, CalleeSaveMaskBoundIsChecked) {
  // The save mask covers 32 registers per kind; a wild register number
  // from client code must be a diagnosable error, not a UB shift.
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code(4096));
  EXPECT_DEATH(V.regAlloc().noteCalleeSavedUse(intReg(40)), "save mask");
}

// --- Register allocator reordering (paper §3.2 priority declarations) ------

TEST_P(ErrorTest, RegPriorityReorderPreservesLiveRegisters) {
  // Declaring a new priority ordering must not return live registers to
  // the free pool: a register handed out before the reorder would
  // otherwise be allocated a second time and silently clobbered.
  VCode V(*B.Tgt);
  V.lambda("%v", nullptr, LeafHint, code(4096));
  Reg A = V.getreg(Type::I);
  Reg Fr = V.getreg(Type::I);
  ASSERT_TRUE(A.isValid());
  ASSERT_TRUE(Fr.isValid());
  V.putreg(Fr); // free again: the only legitimate candidate below

  V.setRegPriority(Reg::Int, {A, Fr});
  EXPECT_FALSE(V.regAlloc().isFree(A)) << "live register freed by reorder";
  Reg C1 = V.getreg(Type::I);
  EXPECT_EQ(C1, Fr) << "the free candidate must be handed out first";
  Reg C2 = V.getreg(Type::I);
  EXPECT_FALSE(C2.isValid())
      << "A is live; the allocator must not hand it out again";

  // A dropped-then-relisted register becomes a candidate again.
  V.putreg(C1);
  V.setRegPriority(Reg::Int, {A});
  V.setRegPriority(Reg::Int, {A, Fr});
  EXPECT_TRUE(V.regAlloc().isFree(Fr));
  EXPECT_FALSE(V.regAlloc().isFree(A));
}

INSTANTIATE_TEST_SUITE_P(AllTargets, ErrorTest,
                         ::testing::ValuesIn(allTargetNames()),
                         [](const auto &Info) { return Info.param; });

// --- Handler plumbing (target-independent) ---------------------------------

/// Test handler: records the error and unwinds, like VCode's recovery
/// handler but free-standing so non-VCode paths can be exercised.
struct RecordingHandler : ErrorHandler {
  CgError Last;
  [[noreturn]] void handle(const CgError &E) override {
    Last = E;
    throw CgAbort(E);
  }
};

TEST(ErrorHandlerTest, HandlersNestLifo) {
  RecordingHandler Outer, Inner;
  EXPECT_EQ(errorHandler(), nullptr);
  {
    ErrorHandlerScope S1(Outer);
    EXPECT_EQ(errorHandler(), &Outer);
    {
      ErrorHandlerScope S2(Inner);
      EXPECT_THROW(fatalKind(CgErrKind::BadOperand, "inner"), CgAbort);
      EXPECT_EQ(Inner.Last.Kind, CgErrKind::BadOperand);
      EXPECT_EQ(Outer.Last.Kind, CgErrKind::None);
    }
    EXPECT_EQ(errorHandler(), &Outer);
    EXPECT_THROW(fatal("outer"), CgAbort);
    EXPECT_EQ(Outer.Last.Kind, CgErrKind::ApiMisuse);
  }
  EXPECT_EQ(errorHandler(), nullptr);
}

TEST(ErrorHandlerTest, ArenaExhaustionIsRecoverable) {
  sim::Memory M(1 << 20, 0x10000000, 4096);
  RecordingHandler H;
  ErrorHandlerScope Scope(H);
  EXPECT_THROW((void)M.alloc(2 << 20), CgAbort);
  EXPECT_EQ(H.Last.Kind, CgErrKind::ArenaExhausted);
  // The arena is still usable after the recovered failure.
  SimAddr A = M.alloc(64);
  M.write<uint32_t>(A, 0x1234u);
  EXPECT_EQ(M.read<uint32_t>(A), 0x1234u);
}

TEST(ErrorHandlerTest, EnsureWordsReportsBeforeEmitting) {
  // A multi-word synthesis sequence must fail atomically: ensureWords
  // raises before any word of the sequence lands in the buffer.
  alignas(4) uint8_t Store[16] = {};
  CodeMem CM;
  CM.Host = Store;
  CM.Guest = 0x1000;
  CM.Size = sizeof(Store);
  CodeBuffer CB;
  CB.reset(CM);
  CB.put(0x11111111u);
  CB.put(0x22222222u);

  RecordingHandler H;
  ErrorHandlerScope Scope(H);
  EXPECT_THROW(CB.ensureWords(3), CgAbort);
  EXPECT_EQ(H.Last.Kind, CgErrKind::BufferOverflow);
  EXPECT_EQ(H.Last.WordIndex, 2u) << "error reported at the cursor";
  EXPECT_EQ(CB.wordIndex(), 2u) << "no partial sequence in the buffer";
  // The remaining capacity is still usable.
  CB.ensureWords(2);
  CB.put(0x33333333u);
  CB.put(0x44444444u);
  EXPECT_THROW(CB.put(0x55555555u), CgAbort);
  EXPECT_EQ(CB.wordIndex(), 4u);
}

} // namespace
