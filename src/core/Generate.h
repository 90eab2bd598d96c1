//===- core/Generate.h - Recoverable generation driver ----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// generateWithRetry: the recovery-mode idiom for clients whose code size
/// is data-dependent (a DPF filter or tcc program of unknown size decides
/// how many words v_lambda needs). The paper's answer is "pass a larger
/// region"; a long-running service cannot abort to deliver that advice.
/// This driver runs the client's emission callback with error recovery
/// enabled and marks the region growable: on overflow the code buffer
/// asks the arena to extend the region in place (CodeArena::grow) and
/// emission carries on, so each instruction is still written once. Only
/// when the arena refuses — another allocation already follows the
/// region — is the callback re-run into a region at least twice as large
/// and at least as large as the overflow needed. Any other error kind,
/// and any overflow that needs more than the size cap, is returned to
/// the caller at once as a structured CgError.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_GENERATE_H
#define VCODE_CORE_GENERATE_H

#include "core/Tier.h"
#include "core/VCode.h"
#include "support/Error.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace vcode {

/// Region-growth policy (and generation tier) for generateWithRetry.
struct GenerateOptions {
  size_t InitialBytes = 4096;        ///< first attempt's region size
  size_t MaxBytes = size_t(1) << 24; ///< growth cap (16 MiB); native
                                     ///< arenas round to whole pages
  Tier GenTier = Tier::Tier0;        ///< pipeline for tier-aware emitters
};

/// Outcome of generateWithRetry: either a valid CodePtr, or the error
/// that stopped the driver.
struct GenerateResult {
  CodePtr Code;          ///< invalid unless ok()
  CgError Err;           ///< the terminating error when !ok()
  unsigned Attempts = 0; ///< emission attempts made (>= 1)
  size_t RegionBytes = 0; ///< final capacity of the last attempt's region
  Tier GenTier = Tier::Tier0; ///< tier the driver ran the emitter at
  bool ok() const { return Code.isValid(); }
};

/// RAII enablement of recovery mode on a VCode; restores the previous
/// policy on scope exit (no-op when recovery was already on).
class RecoveryScope {
public:
  explicit RecoveryScope(VCode &V) : V(V), WasOn(V.errorRecovery()) {
    if (!WasOn)
      V.setErrorRecovery(true);
  }
  ~RecoveryScope() {
    if (!WasOn)
      V.setErrorRecovery(false);
  }
  RecoveryScope(const RecoveryScope &) = delete;
  RecoveryScope &operator=(const RecoveryScope &) = delete;

private:
  VCode &V;
  bool WasOn;
};

/// Runs \p Emit(\p Alloc(bytes)) under error recovery. The region grows in
/// place up to Opts.MaxBytes while its arena allows; an overflow it cannot
/// absorb re-runs \p Emit into a region twice the size of the failed one.
///
/// \p Alloc: size_t -> CodeMem. Called once per attempt; typically
///   [&](size_t N) { return Mem.allocCode(N); }. If earlier attempts'
///   regions should be reclaimed, take a sim::Memory::mark() before the
///   call and release it inside Alloc — but only when nothing allocated
///   during emission must survive the retry. An allocator that accounts
///   for its regions (CodeCache::RegionAlloc) returns them with its own
///   RegionGrowth record, so it sees how far each one grew; otherwise the
///   driver supplies one.
/// \p Emit: CodeMem -> CodePtr. Must be re-runnable from scratch: it
///   receives a fresh region and performs the whole lambda()..end()
///   sequence. Errors unwind out of it via CgAbort; the driver catches
///   them, abandons the poisoned function, and decides whether to retry.
///
/// Non-overflow errors (arena exhaustion, API misuse, ...) are returned
/// immediately — a larger code region cannot cure them — and so is an
/// overflow that needs more than Opts.MaxBytes (CgError::NeedBytes). Every
/// retry at least doubles the region, so the attempt bound only guards
/// against an allocator that serves less than it was asked for.
///
/// \p Emit may optionally take the generation tier as a second parameter
/// (CodeMem, Tier); tier-aware emitters receive Opts.GenTier, emitters
/// with the classic single-parameter shape run unchanged.
template <typename AllocFn, typename EmitFn>
GenerateResult generateWithRetry(VCode &V, AllocFn Alloc, EmitFn Emit,
                                 GenerateOptions Opts = {}) {
  constexpr unsigned MaxAttempts = 16;
  GenerateResult R;
  R.GenTier = Opts.GenTier;
  // Stamp the tier onto the CodeMap entry v_end will publish (the stamp
  // survives lambda(); see VCode::setPublishTier).
  V.setPublishTier(Opts.GenTier);
  RecoveryScope Scope(V);
  size_t Bytes = std::max<size_t>(Opts.InitialBytes, 16);
  // Callers that ignore Attempts still need a diagnosable failure: stamp
  // the retry history into the error text the moment the driver gives up.
  auto GiveUp = [&]() -> GenerateResult & {
    size_t Len = std::strlen(R.Err.Detail);
    std::snprintf(R.Err.Detail + Len, sizeof(R.Err.Detail) - Len,
                  " [gave up after %u attempt(s), last region %zu bytes]",
                  R.Attempts, R.RegionBytes);
    return R;
  };
  for (unsigned A = 0; A < MaxAttempts; ++A) {
    ++R.Attempts;
    VCODE_TM_COUNT("core.gen.attempts", 1);
    V.clearError();
    RegionGrowth Own{Opts.MaxBytes, Bytes};
    RegionGrowth *G = &Own;
    size_t Initial = Bytes;
    try {
      CodePtr P;
      CodeMem CM = Alloc(Bytes);
      if (CM.Growth)
        G = CM.Growth;
      *G = RegionGrowth{Opts.MaxBytes, CM.Size};
      CM.Growth = G;
      Initial = CM.Size;
      if constexpr (std::is_invocable_v<EmitFn, CodeMem, Tier>)
        P = Emit(CM, Opts.GenTier);
      else
        P = Emit(CM);
      R.Code = P;
      R.Err = P.isValid() ? CgError{} : V.lastError(); // poisoned end()
    } catch (const CgAbort &E) {
      V.abandon();
      R.Err = E.error();
    }
    R.RegionBytes = G->Size;
    if (G->Size > Initial)
      VCODE_TM_COUNT("core.gen.grown", 1);
    if (R.ok())
      return R;
    if (R.Err.Kind != CgErrKind::BufferOverflow ||
        R.Err.NeedBytes > Opts.MaxBytes)
      return GiveUp();
    VCODE_TM_COUNT("core.gen.retry", 1);
    Bytes = std::min(std::max({2 * Bytes, 2 * R.RegionBytes, R.Err.NeedBytes}),
                     Opts.MaxBytes);
  }
  return GiveUp();
}

} // namespace vcode

#endif // VCODE_CORE_GENERATE_H
