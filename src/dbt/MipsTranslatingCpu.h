//===- dbt/MipsTranslatingCpu.h - Drop-in translating MIPS CPU --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sim::Cpu that executes simulated MIPS code by dynamic binary
/// translation: guest basic blocks are translated to host x86-64 through
/// VCODE's own backend, cached per guest PC and state of the guest pages
/// they were lifted from, and chained; anything the translator does not
/// handle — faults, delay-slot edge cases, unsupported opcodes, the
/// instruction budget — is executed one unit at a time by an embedded
/// reference MipsSim from precise spilled state. Architectural results
/// are bit-identical to MipsSim by construction; timing statistics are not
/// modeled (Instrs is exact, Cycles and cache counters read zero).
///
/// Each CPU indexes its translations in one flat open-addressing table from
/// guest PC to host function, which grows by rehashing and is never
/// evicted; the pins that keep those functions alive sit beside it. A call
/// reads the arena's codeGeneration() once. When it has moved, the CPU
/// drops exactly the translations whose guest pages were rewritten (their
/// codeStamp moved), with their pins; a publish into other pages costs the
/// check and nothing else.
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
#include <vector>

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

  /// Translates \p PC, records it in the index and returns its function;
  /// null when translation failed.
  TranslatedFn translateAndIndex(SimAddr PC, uint64_t Gen);
  /// Drops the translations whose guest pages moved since they were
  /// stamped, with their pins, and rebuilds the index over the rest.
  void dropStale();
  /// Inserts (PC, Fn) into Index, which has a free slot.
  void insertSlot(SimAddr PC, TranslatedFn Fn);
  /// Refills an index of \p Slots slots (a power of two) from Pins.
  void rebuildIndex(size_t Slots);
  /// Index slot where \p PC's probe sequence starts (Fibonacci hashing:
  /// guest entries at a common stride still spread).
  size_t slotOf(SimAddr PC) const {
    return size_t((PC * 0x9E3779B97F4A7C15ull) >> IndexShift);
  }

  /// The dispatch index: guest PC -> translated function, open addressing
  /// with linear probing, at most half full. Never evicted; dropStale
  /// removes exactly the stale entries.
  struct Slot {
    SimAddr PC = EmptyPC;
    TranslatedFn Fn = nullptr;
  };
  static constexpr SimAddr EmptyPC = ~SimAddr(0);
  static constexpr unsigned MinIndexBits = 6;
  std::vector<Slot> Index = std::vector<Slot>(size_t(1) << MinIndexBits);
  unsigned IndexShift = 64 - MinIndexBits;
  /// One per index entry: the guest range and code stamp it was translated
  /// under, and the pin that keeps its host code alive across cache
  /// eviction.
  struct Held {
    SimAddr PC, Lo, Hi;
    uint64_t Stamp;
    TranslatedFn Fn;
    std::shared_ptr<const CodeCache::Version> Pin;
  };
  std::vector<Held> Pins;
  /// The codeGeneration() at which Pins was last checked for stale entries.
  uint64_t LocalGen = ~uint64_t(0);
  uint8_t *HostBase = nullptr; ///< cached hostPtr(base, size); arena is fixed
  bool Avail = false;          ///< Engine->available(), fixed at construction

  uint64_t PfClock = 0; ///< cumulative dispatch clock for the sampler
};

} // namespace dbt
} // namespace vcode

#endif // VCODE_DBT_MIPSTRANSLATINGCPU_H
