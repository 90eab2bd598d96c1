//===- dbt/TranslationEngine.h - Cached guest-block translation -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties region discovery, the x64 VCODE backend, and the shared CodeCache
/// into one thread-safe service: translate(PC, generation) returns cached
/// host code for the guest region rooted at PC, generating it at most once
/// per (PC, generation) even under concurrent callers. Translations live
/// in the engine's own *native* arena — separate from the guest arena — so
/// publishing translated code never bumps the guest's code generation and
/// self-invalidates the cache.
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

  /// Cached translation of the region rooted at \p PC under guest code
  /// generation \p Gen. Invalid handle when code generation failed (the
  /// caller falls back to interpretation). Thread-safe; concurrent
  /// requests for the same (PC, Gen) generate once.
  CodeCache::Handle translate(SimAddr PC, uint64_t Gen);

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
