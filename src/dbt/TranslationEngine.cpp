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

CodeCache::Handle TranslationEngine::translate(SimAddr PC, uint64_t Gen) {
  char Key[64];
  std::snprintf(Key, sizeof(Key), "dbt:%llx:g%llu",
                static_cast<unsigned long long>(PC),
                static_cast<unsigned long long>(Gen));
  return Cache->lookupOrGenerate(Key, [&](CodeCache::RegionAlloc &RA) {
    VCODE_TM_TICK(T0);
    VCODE_TM_COUNT("dbt.translations", 1);
    MipsRegion R = discoverRegion(Guest, PC);
    VCodeT<x64::X64Target> V(Tgt);
    // Record the guest-PC span the region translates so profiler samples
    // of the dispatch loop (which carry guest PCs) attribute back here.
    SimAddr Lo = ~SimAddr(0), Hi = 0;
    for (const MipsBlock &B : R.Blocks) {
      if (B.Units.empty())
        continue;
      Lo = std::min(Lo, B.Entry);
      const MipsUnit &Last = B.Units.back();
      Hi = std::max(Hi, Last.PC + 4 * SimAddr(Last.instrs()));
    }
    if (Hi > Lo)
      V.setPublishGuestRange(Lo, Hi);
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
}
