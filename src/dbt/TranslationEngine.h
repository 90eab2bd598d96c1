//===- dbt/TranslationEngine.h - Cached guest-block translation -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties region discovery, the x64 VCODE backend, and the shared CodeCache
/// into one thread-safe service: translate(PC, generation) returns cached
/// host code for the guest region rooted at PC. Each translation is
/// stamped with the guest bytes its region covers and their code stamp
/// (sim::Memory::codeStamp, a sum of per-page generations), and the cache
/// is keyed by PC plus that range and stamp. So a translation is generated
/// at most once per state of the pages it was lifted from, even under
/// concurrent callers, and a publish into other pages leaves it valid.
/// Translations live in the engine's own *native* arena — separate from
/// the guest arena — so publishing translated code never moves a guest
/// page (which would invalidate the translation just made).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_DBT_TRANSLATIONENGINE_H
#define VCODE_DBT_TRANSLATIONENGINE_H

#include "core/CodeCache.h"
#include "dbt/GuestState.h"
#include "sim/Memory.h"
#include "x64/X64Target.h"
#include <memory>

namespace vcode {
namespace dbt {

/// Shared, thread-safe translation service for one guest memory.
class TranslationEngine {
public:
  /// \p Guest is the simulated memory holding MIPS code and data; it must
  /// outlive the engine. The engine allocates its own native code arena
  /// (sim::Memory's default 64 MiB).
  explicit TranslationEngine(sim::Memory &Guest);
  ~TranslationEngine();

  /// True when this build/host can run translated code at all (x86-64
  /// host with mmap W^X support).
  static bool hostSupported();

  /// True when translation applies to this guest: supported host, and the
  /// guest arena lives entirely below 4 GiB so 32-bit guest addresses and
  /// the translator's unsigned bounds checks are exact.
  bool available() const;

  /// A translation and the guest code it was lifted from: the bytes
  /// [Lo, Hi) its units cover (at least the entry word) and their
  /// codeStamp when the region was read. It is current while
  /// guest().codeStamp(Lo, Hi) == Stamp.
  struct Translation {
    CodeCache::Handle Code;
    SimAddr Lo = 0, Hi = 0;
    uint64_t Stamp = 0;
  };

  /// Cached translation of the region rooted at \p PC as the guest code
  /// stands now. \p Gen is a codeGeneration() the caller read before
  /// asking; if the arena's generation moved past it while the region was
  /// read, the region is read again. Invalid handle when code generation
  /// failed (the caller falls back to interpretation). Thread-safe;
  /// concurrent requests for the same PC and code state generate once.
  Translation translateStamped(SimAddr PC, uint64_t Gen);
  /// translateStamped's code alone (set-up, tests).
  CodeCache::Handle translate(SimAddr PC, uint64_t Gen) {
    return translateStamped(PC, Gen).Code;
  }

  sim::Memory &guest() { return Guest; }
  /// The engine's translation cache (telemetry / tests).
  CodeCache *cache() { return Cache.get(); }

private:
  sim::Memory &Guest;
  std::unique_ptr<sim::Memory> NativeMem; ///< null when !hostSupported()
  std::unique_ptr<CodeCache> Cache;
  x64::X64Target Tgt; ///< stateless across functions; shareable
};

} // namespace dbt
} // namespace vcode

#endif // VCODE_DBT_TRANSLATIONENGINE_H
