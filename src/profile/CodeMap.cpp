//===- profile/CodeMap.cpp - Registry of published generated code ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "profile/CodeMap.h"

#if VCODE_TELEMETRY_ENABLED

#include "profile/JitDump.h"
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>

namespace vcode {
namespace profile {

namespace {

/// Distinct retired names kept before aggregating under "<retired>".
constexpr size_t kMaxRetired = 4096;
/// Mutations between snapshot rebuilds (amortizes the O(n) copy; while
/// the snapshot is behind, lookups take the locked slow path instead).
constexpr uint64_t kRebuildEvery = 32;

/// "fn@<hex addr>" without the snprintf detour: publish() is on the
/// v_end path of every generated function, so the synthesized-name case
/// (most of them) must stay cheap.
std::string synthName(uint64_t Addr) {
  char Buf[22];
  char *P = Buf + sizeof(Buf);
  do {
    *--P = "0123456789abcdef"[Addr & 15];
    Addr >>= 4;
  } while (Addr);
  *--P = '@';
  *--P = 'n';
  *--P = 'f';
  return std::string(P, Buf + sizeof(Buf));
}

std::string fmtLine(const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  return Buf;
}

} // namespace

struct CodeMap::Impl {
  mutable std::mutex M;
  /// Source of truth, keyed by region base address.
  std::map<uint64_t, std::shared_ptr<CodeEntry>> Live;
  /// Published read view; replaced wholesale, never mutated in place.
  std::atomic<std::shared_ptr<const Snap>> Reader;
  /// Mutations since the last snapshot rebuild. A rebuild stores 0 with
  /// release after publishing Reader; readers load it with acquire before
  /// Reader, so a zero read guarantees a snapshot at least that new.
  std::atomic<uint64_t> Dirty{0};
  std::atomic<uint64_t> GenSeq{0};

  uint64_t Published = 0, Removed = 0, Renames = 0;
  /// Heat folded out of removed entries, by name.
  std::unordered_map<std::string, uint64_t> Retired;
  uint64_t RetiredOther = 0;

  /// Rebuilds and republishes the read snapshot. Caller holds M.
  void rebuildLocked() {
    auto S = std::make_shared<Snap>();
    S->ByAddr.reserve(Live.size());
    for (auto &KV : Live)
      S->ByAddr.push_back(KV.second);
    for (auto &E : S->ByAddr)
      if (E->Host)
        S->ByHost.push_back(E);
    std::sort(S->ByHost.begin(), S->ByHost.end(),
              [](const std::shared_ptr<CodeEntry> &A,
                 const std::shared_ptr<CodeEntry> &B) {
                return A->Host < B->Host;
              });
    Reader.store(std::shared_ptr<const Snap>(std::move(S)),
                 std::memory_order_release);
    Dirty.store(0, std::memory_order_release);
  }

  /// Counts a mutation and rebuilds the snapshot on the amortization
  /// boundary. Caller holds M.
  void noteMutationLocked() {
    if (Dirty.fetch_add(1, std::memory_order_relaxed) + 1 >= kRebuildEvery)
      rebuildLocked();
  }

  /// Folds a dying entry's heat into the retired tally. Caller holds M.
  void retireLocked(const CodeEntry &E) {
    uint64_t S = E.Samples.load(std::memory_order_relaxed);
    if (!S)
      return;
    auto It = Retired.find(E.Name);
    if (It != Retired.end())
      It->second += S;
    else if (Retired.size() < kMaxRetired)
      Retired.emplace(E.Name, S);
    else
      RetiredOther += S;
  }

  /// Removes every live entry overlapping [Addr, Addr+Bytes). Caller
  /// holds M. Returns the number removed.
  uint64_t removeOverlapsLocked(uint64_t Addr, uint64_t Bytes) {
    uint64_t N = 0;
    // First candidate: the entry at or before Addr can still cover it.
    auto It = Live.upper_bound(Addr);
    if (It != Live.begin()) {
      auto Prev = std::prev(It);
      if (Prev->first + Prev->second->Bytes > Addr)
        It = Prev;
    }
    while (It != Live.end() && It->first < Addr + Bytes) {
      retireLocked(*It->second);
      It = Live.erase(It);
      ++N;
    }
    return N;
  }

  /// Snapshot binary search by simulated address.
  static std::shared_ptr<const CodeEntry>
  searchAddr(const Snap &S, uint64_t Pc) {
    auto It = std::upper_bound(
        S.ByAddr.begin(), S.ByAddr.end(), Pc,
        [](uint64_t P, const std::shared_ptr<CodeEntry> &E) {
          return P < E->Addr;
        });
    if (It == S.ByAddr.begin())
      return nullptr;
    auto &E = *std::prev(It);
    return E->contains(Pc) ? E : nullptr;
  }

  /// Snapshot binary search by host address.
  static std::shared_ptr<const CodeEntry>
  searchHost(const Snap &S, uintptr_t Pc) {
    auto It = std::upper_bound(
        S.ByHost.begin(), S.ByHost.end(), Pc,
        [](uintptr_t P, const std::shared_ptr<CodeEntry> &E) {
          return P < E->Host;
        });
    if (It == S.ByHost.begin())
      return nullptr;
    auto &E = *std::prev(It);
    return E->containsHost(Pc) ? E : nullptr;
  }
};

CodeMap::CodeMap() : I(new Impl) {
  std::lock_guard<std::mutex> L(I->M);
  I->rebuildLocked(); // never leave Reader null
}

CodeMap &CodeMap::instance() {
  // Leaked: profiler drains and atexit reports may run after static
  // destruction of anything else.
  static CodeMap *M = new CodeMap();
  return *M;
}

uint64_t CodeMap::publish(uint64_t Addr, uint64_t Bytes, uint64_t Entry,
                          uintptr_t Host, std::string Name,
                          const char *Target, Tier T) {
  if (!Bytes)
    return 0;
  auto E = std::make_shared<CodeEntry>();
  E->Addr = Addr;
  E->Bytes = Bytes;
  E->Entry = Entry;
  E->Host = Host;
  E->Target = Target ? Target : "";
  E->GenTier = T;
  E->Generation = I->GenSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Name.empty())
    E->Name = synthName(Addr);
  else
    E->Name = std::move(Name);
  if (Host && Capture.load(std::memory_order_relaxed)) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(Host);
    E->Code.assign(P, P + Bytes);
  }
  {
    std::lock_guard<std::mutex> L(I->M);
    I->Removed += I->removeOverlapsLocked(Addr, Bytes);
    I->Live[Addr] = E;
    ++I->Published;
    I->noteMutationLocked();
  }
  exportOnPublish(*E);
  return E->Generation;
}

bool CodeMap::annotate(uint64_t Addr, const std::string &Name, Tier T) {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->Live.find(Addr);
  if (It == I->Live.end())
    return false;
  // Copy-on-write: concurrent readers hold the old entry; a string they
  // might be reading is never mutated underneath them.
  auto E = std::make_shared<CodeEntry>(*It->second);
  E->Name = Name;
  E->GenTier = T;
  It->second = std::move(E);
  ++I->Renames;
  I->noteMutationLocked();
  return true;
}

bool CodeMap::setGuestRange(uint64_t AnyAddrInRegion, uint64_t Lo,
                            uint64_t Hi) {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->Live.upper_bound(AnyAddrInRegion);
  if (It == I->Live.begin())
    return false;
  --It;
  if (!It->second->contains(AnyAddrInRegion))
    return false;
  auto E = std::make_shared<CodeEntry>(*It->second);
  E->GuestLo = Lo;
  E->GuestHi = Hi;
  It->second = std::move(E);
  I->noteMutationLocked();
  return true;
}

void CodeMap::remove(uint64_t Addr) {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->Live.find(Addr);
  if (It == I->Live.end())
    return;
  I->retireLocked(*It->second);
  I->Live.erase(It);
  ++I->Removed;
  I->noteMutationLocked();
}

std::shared_ptr<const CodeEntry> CodeMap::lookup(uint64_t Pc) const {
  // The snapshot answers only when it is current: a stale *hit* would
  // attribute to an entry already removed or renamed, not just miss.
  // Dirty is read first: a zero read acquires the rebuild that stored it,
  // so the snapshot loaded next holds every entry published before that.
  if (!I->Dirty.load(std::memory_order_acquire))
    return Impl::searchAddr(*I->Reader.load(std::memory_order_acquire), Pc);
  // Answer from the truth map without rebuilding: this is the virtual
  // sampler's path, and continuous churn keeps the snapshot perpetually
  // dirty — an O(n) rebuild per sample inside the lock would convoy the
  // dispatch threads behind the installers. O(log n) and allocation-free
  // keeps the critical section negligible; rebuilds stay amortized on
  // the mutation boundary.
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->Live.upper_bound(Pc);
  if (It == I->Live.begin())
    return nullptr;
  auto &E = std::prev(It)->second;
  return E->contains(Pc) ? E : nullptr;
}

std::shared_ptr<const CodeEntry> CodeMap::lookupHost(uintptr_t Pc) const {
  if (!I->Dirty.load(std::memory_order_acquire))
    return Impl::searchHost(*I->Reader.load(std::memory_order_acquire), Pc);
  // Host lookups come from the native ring drain (stop/report time), not
  // a hot loop, and Live is not indexed by host address — rebuilding here
  // restores the indexed fast path for the rest of the batch.
  std::lock_guard<std::mutex> L(I->M);
  I->rebuildLocked();
  auto S2 = I->Reader.load(std::memory_order_acquire);
  return Impl::searchHost(*S2, Pc);
}

std::vector<std::shared_ptr<const CodeEntry>> CodeMap::entries() const {
  std::lock_guard<std::mutex> L(I->M);
  std::vector<std::shared_ptr<const CodeEntry>> Out;
  Out.reserve(I->Live.size());
  for (auto &KV : I->Live)
    Out.push_back(KV.second);
  return Out;
}

std::shared_ptr<const CodeEntry>
CodeMap::findByName(const std::string &Name) const {
  std::lock_guard<std::mutex> L(I->M);
  for (auto &KV : I->Live)
    if (KV.second->Name == Name)
      return KV.second;
  return nullptr;
}

CodeMap::Stats CodeMap::stats() const {
  std::lock_guard<std::mutex> L(I->M);
  Stats S;
  S.Published = I->Published;
  S.Removed = I->Removed;
  S.Live = I->Live.size();
  S.Renames = I->Renames;
  return S;
}

std::vector<std::pair<std::string, uint64_t>> CodeMap::retiredHeat() const {
  std::lock_guard<std::mutex> L(I->M);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(I->Retired.size() + 1);
  for (auto &KV : I->Retired)
    Out.emplace_back(KV.first, KV.second);
  if (I->RetiredOther)
    Out.emplace_back("<retired>", I->RetiredOther);
  return Out;
}

void CodeMap::appendReport(std::string &Out) const {
  // Gather under the lock, format outside it.
  std::vector<std::shared_ptr<const CodeEntry>> Es = entries();
  Stats S = stats();
  auto Retired = retiredHeat();

  Out += "codemap:\n";
  Out += fmtLine("  regions: %llu live, %llu published, %llu retired, "
                 "%llu renamed\n",
                 (unsigned long long)S.Live, (unsigned long long)S.Published,
                 (unsigned long long)S.Removed,
                 (unsigned long long)S.Renames);
  uint64_t TotalBytes = 0, TotalSamples = 0;
  for (auto &E : Es) {
    TotalBytes += E->Bytes;
    TotalSamples += E->Samples.load(std::memory_order_relaxed);
  }
  uint64_t RetiredSamples = 0;
  for (auto &KV : Retired)
    RetiredSamples += KV.second;
  Out += fmtLine("  code bytes live: %llu; samples: %llu live, %llu "
                 "retired\n",
                 (unsigned long long)TotalBytes,
                 (unsigned long long)TotalSamples,
                 (unsigned long long)RetiredSamples);

  // Top entries by heat, then generation order for the cold remainder.
  std::sort(Es.begin(), Es.end(),
            [](const std::shared_ptr<const CodeEntry> &A,
               const std::shared_ptr<const CodeEntry> &B) {
              uint64_t Sa = A->Samples.load(std::memory_order_relaxed);
              uint64_t Sb = B->Samples.load(std::memory_order_relaxed);
              if (Sa != Sb)
                return Sa > Sb;
              return A->Generation < B->Generation;
            });
  constexpr size_t kMaxLines = 20;
  size_t Shown = std::min(Es.size(), kMaxLines);
  for (size_t K = 0; K < Shown; ++K) {
    const CodeEntry &E = *Es[K];
    std::string Name = E.Name.size() > 48 ? E.Name.substr(0, 45) + "..."
                                          : E.Name;
    Out += fmtLine("    %-48s %-5s %-6s %6llu B %8llu samples",
                   Name.c_str(), E.Target, tierName(E.GenTier),
                   (unsigned long long)E.Bytes,
                   (unsigned long long)E.Samples.load(
                       std::memory_order_relaxed));
    if (E.GuestHi > E.GuestLo)
      Out += fmtLine("  guest %llx-%llx", (unsigned long long)E.GuestLo,
                     (unsigned long long)E.GuestHi);
    Out += '\n';
  }
  if (Es.size() > Shown)
    Out += fmtLine("    ... %zu more regions\n", Es.size() - Shown);
}

void CodeMap::resetForTest() {
  std::lock_guard<std::mutex> L(I->M);
  I->Live.clear();
  I->Retired.clear();
  I->RetiredOther = 0;
  I->Published = I->Removed = I->Renames = 0;
  I->rebuildLocked();
}

} // namespace profile
} // namespace vcode

#endif // VCODE_TELEMETRY_ENABLED
