//===- dbt/TranslationEngine.cpp - Cached guest-block translation ----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationEngine.h"
#include "core/Generate.h"
#include "dbt/MipsRegion.h"
#include "dbt/MipsTranslator.h"
#include "support/Telemetry.h"
#include <algorithm>
#include <cstdio>
#include <tuple>

using namespace vcode;
using namespace vcode::dbt;

TranslationEngine::TranslationEngine(sim::Memory &Guest) : Guest(Guest) {
  if (!hostSupported())
    return;
#ifdef VCODE_HAVE_MMAP
  NativeMem.reset(new sim::Memory(sim::Memory::Native));
  CodeCache::Options O;
  O.Shards = 8;
  // Regions are block-sized (a few KiB); keep enough per shard that a
  // working set of hot regions plus cold strays stays resident.
  O.MaxEntriesPerShard = 256;
  Cache.reset(new CodeCache(*NativeMem, O));
#endif
}

TranslationEngine::~TranslationEngine() = default;

bool TranslationEngine::hostSupported() {
#if defined(__x86_64__) && defined(VCODE_HAVE_MMAP)
  return true;
#else
  return false;
#endif
}

bool TranslationEngine::available() const {
  if (!Cache)
    return false;
  // The translator's effective-address arithmetic is 32-bit and its
  // bounds check subtracts the 32-bit truncated base, so the guest arena
  // must sit entirely inside the low 4 GiB (a native guest arena is a
  // host mapping and never qualifies — nor would interpreting MIPS out of
  // one make sense).
  return Guest.base() + Guest.size() <= (uint64_t(1) << 32);
}

/// The guest bytes \p R translates: the span from its lowest block entry
/// to the end of its highest unit, or the entry word alone when no unit
/// translates (an interpreter exit still depends on the word at PC).
static std::pair<SimAddr, SimAddr> guestRange(const MipsRegion &R) {
  SimAddr Lo = R.Entry, Hi = R.Entry + 4;
  for (const MipsBlock &B : R.Blocks) {
    if (B.Units.empty())
      continue;
    Lo = std::min(Lo, B.Entry);
    const MipsUnit &Last = B.Units.back();
    Hi = std::max(Hi, Last.PC + 4 * SimAddr(Last.instrs()));
  }
  return {Lo, Hi};
}

TranslationEngine::Translation
TranslationEngine::translateStamped(SimAddr PC, uint64_t Gen) {
  // Read the region, then its stamp, then the generation. Unchanged since
  // Gen means no page moved while the region was read; a page the reader
  // saw mid-rewrite (after beginWrite) moves again at publish, which drops
  // the translation at its dispatcher's next check.
  MipsRegion R;
  Translation T;
  for (;;) {
    R = discoverRegion(Guest, PC);
    std::tie(T.Lo, T.Hi) = guestRange(R);
    T.Stamp = Guest.codeStamp(T.Lo, T.Hi);
    uint64_t Now = Guest.codeGeneration();
    if (Now == Gen)
      break;
    Gen = Now;
  }
  char Key[96];
  std::snprintf(Key, sizeof(Key), "dbt:%llx:%llx-%llx:s%llu",
                static_cast<unsigned long long>(PC),
                static_cast<unsigned long long>(T.Lo),
                static_cast<unsigned long long>(T.Hi),
                static_cast<unsigned long long>(T.Stamp));
  T.Code = Cache->lookupOrGenerate(Key, [&](CodeCache::RegionAlloc &RA) {
    VCODE_TM_TICK(T0);
    VCODE_TM_COUNT("dbt.translations", 1);
    VCodeT<x64::X64Target> V(Tgt);
    // Record the guest-PC span the region translates so profiler samples
    // of the dispatch loop (which carry guest PCs) attribute back here.
    V.setPublishGuestRange(T.Lo, T.Hi);
    GenerateOptions GO;
    // ~tens of host bytes per guest word plus per-block stub overhead;
    // generateWithRetry grows the region on a miss.
    GO.InitialBytes = 512 + 96 * size_t(R.TotalWords) + 64 * R.Blocks.size();
    GO.MaxBytes = size_t(1) << 22;
    GenerateResult GR = generateWithRetry(
        V, [&](size_t N) { return RA(N); },
        [&](CodeMem CM) { return translateRegion(V, R, CM, Guest); }, GO);
    VCODE_TM_SPAN("dbt.translate", T0);
    return GR;
  });
  return T;
}
