//===- dbt/MipsTranslatingCpu.h - Drop-in translating MIPS CPU --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sim::Cpu that executes simulated MIPS code by dynamic binary
/// translation: guest basic blocks are translated to host x86-64 through
/// VCODE's own backend, cached per (guest PC, guest code generation), and
/// chained; anything the translator does not handle — faults, delay-slot
/// edge cases, unsupported opcodes, the instruction budget — is executed
/// one unit at a time by an embedded reference MipsSim from precise
/// spilled state. Architectural results are bit-identical to MipsSim by
/// construction; timing statistics are not modeled (Instrs is exact,
/// Cycles and cache counters read zero).
///
/// Drop-in: DPF engines, tcc, ash pipelines, and benches that take a
/// sim::Cpu run unchanged. On hosts where translation is unavailable the
/// embedded interpreter transparently runs the whole call.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_DBT_MIPSTRANSLATINGCPU_H
#define VCODE_DBT_MIPSTRANSLATINGCPU_H

#include "dbt/GuestState.h"
#include "dbt/TranslationEngine.h"
#include "sim/MipsSim.h"
#include <memory>
#include <unordered_map>

namespace vcode {
namespace dbt {

/// Binary-translating MIPS CPU over a simulated memory arena.
class MipsTranslatingCpu final : public sim::Cpu {
public:
  /// Creates a CPU with its own TranslationEngine.
  explicit MipsTranslatingCpu(sim::Memory &M,
                              sim::MachineConfig Cfg = sim::dec5000Config());
  /// Creates a CPU over a shared engine (several CPUs, one translation
  /// cache — the multi-threaded dispatch configuration).
  MipsTranslatingCpu(sim::Memory &M, std::shared_ptr<TranslationEngine> Eng,
                     sim::MachineConfig Cfg = sim::dec5000Config());

  /// The hot path: arguments marshal straight into the guest state block
  /// through the shared placement walker, with no allocation (a
  /// million-call dispatch loop lives or dies on this; see the Table 3
  /// bench's --target=dbt section).
  sim::TypedValue callWithConvSpan(const CallConv &CC, SimAddr Entry,
                                   const sim::TypedValue *Args,
                                   size_t NumArgs, Type RetTy) override;
  const CallConv &defaultConv() const override {
    return Interp.defaultConv();
  }
  void flushCaches() override { Interp.flushCaches(); }
  void warmData(SimAddr A, size_t Len) override { Interp.warmData(A, Len); }
  const sim::RunStats &lastStats() const override { return Stats; }
  void setInstrLimit(uint64_t N) override {
    InstrLimit = N;
    Interp.setInstrLimit(N);
  }
  const sim::MachineConfig &config() const override { return Interp.config(); }

  /// True when calls actually run translated (false: pure interpretation).
  bool translating() const { return Engine->available(); }
  /// The shared translation service (tests / telemetry).
  TranslationEngine &engine() { return *Engine; }
  /// Spilled architectural state after the last translated call (tests:
  /// differential comparison against the interpreter's register file).
  const GuestState &guestState() const { return GS; }

private:
  /// Executes one instruction unit at \p At through the interpreter from
  /// the spilled GuestState and folds the result back. Returns the next
  /// guest PC.
  SimAddr interpUnit(SimAddr At);

  sim::Memory &Mem;
  sim::MipsSim Interp; ///< reference fallback; also the delegate path
  std::shared_ptr<TranslationEngine> Engine;
  GuestState GS;
  sim::RunStats Stats;
  uint64_t InstrLimit = sim::MipsSim::DefaultInstrLimit;

  /// Per-CPU dispatch index: guest PC -> pinned translation. Pins keep
  /// regions alive across cache eviction; the map is rebuilt whenever the
  /// guest publishes new code (generation bump).
  struct CachedFn {
    TranslatedFn Fn;
    std::shared_ptr<const CodeCache::Version> Pin;
  };
  std::unordered_map<SimAddr, CachedFn> Local;
  uint64_t LocalGen = ~uint64_t(0);
  /// Direct-mapped front of Local (valid while LocalGen holds): a
  /// steady-state call re-dispatches the same few guest blocks every
  /// time, and a one-entry MRU thrashes as soon as a call chains through
  /// two of them, so hot dispatch indexes this little table instead of
  /// hashing. CachedFn pointers are stable (node-based map); the table is
  /// cleared whenever Local is.
  struct TableEnt {
    SimAddr PC = ~SimAddr(0);
    CachedFn *CF = nullptr;
  };
  static constexpr size_t DispatchSlots = 64; ///< power of two
  TableEnt Dispatch[DispatchSlots];
  uint8_t *HostBase = nullptr; ///< cached hostPtr(base, size); arena is fixed
  bool Avail = false;          ///< Engine->available(), fixed at construction

  uint64_t PfClock = 0; ///< cumulative dispatch clock for the sampler
};

} // namespace dbt
} // namespace vcode

#endif // VCODE_DBT_MIPSTRANSLATINGCPU_H
