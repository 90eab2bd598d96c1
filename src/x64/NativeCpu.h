//===- x64/NativeCpu.h - Direct host execution ------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs x64-generated code directly on the host CPU through sim::Cpu's
/// interface, so native execution drops into every harness (benches,
/// differential tests) that drives a simulator today. Requirements:
/// * the backing sim::Memory must be in native mode (identity-mapped mmap
///   arena), so simulated addresses are host addresses;
/// * the entry must have been published executable (W^X flip) — calling
///   unpublished code is rejected, not faulted;
/// * arguments beyond the SysV register set (6 integer, 8 FP) are passed
///   on the stack through the trampoline's trailing slots; up to 64 bytes
///   of stack arguments (eight 8-byte slots) are supported per call.
///
/// Native runs execute on the host thread's own stack and count no
/// simulated statistics: lastStats() is all zeros and the instruction
/// limit is not enforceable.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_X64_NATIVECPU_H
#define VCODE_X64_NATIVECPU_H

#include "sim/Cpu.h"

namespace vcode {
namespace x64 {

/// sim::Cpu implementation that calls generated code at hardware speed.
class NativeCpu final : public sim::Cpu {
public:
  explicit NativeCpu(sim::Memory &M);

  /// The hot path: marshals straight from the caller's storage into the
  /// trampoline's registers, no heap allocation per call.
  sim::TypedValue callWithConvSpan(const CallConv &CC, SimAddr Entry,
                                   const sim::TypedValue *Args,
                                   size_t NumArgs, Type RetTy) override;
  const CallConv &defaultConv() const override;
  void flushCaches() override {} // icache coherence lives in publish()
  void warmData(SimAddr, size_t) override {}
  const sim::RunStats &lastStats() const override { return Last; }
  void setInstrLimit(uint64_t) override {} // real execution has no governor
  const sim::MachineConfig &config() const override { return Cfg; }

private:
  sim::Memory &Mem;
  sim::RunStats Last;
  sim::MachineConfig Cfg;
};

} // namespace x64
} // namespace vcode

#endif // VCODE_X64_NATIVECPU_H
