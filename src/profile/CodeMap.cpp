//===- profile/CodeMap.cpp - Registry of published generated code ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "profile/CodeMap.h"

#if VCODE_TELEMETRY_ENABLED

#include "profile/JitDump.h"
#include "profile/Profiler.h"
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
  using Map = std::map<uintptr_t, std::shared_ptr<const CodeEntry>>;

  mutable std::mutex M;
  /// Live entries by the host address of their first byte.
  Map ByHost;
  std::atomic<uint64_t> GenSeq{0};

  /// Map node of the last removed entry, kept empty for the next publish:
  /// a region republished where one was just released (the common case
  /// under a retry driver or code cache) then allocates and frees no node.
  Map::node_type Spare;

  uint64_t Published = 0, Removed = 0;
  /// Heat folded out of removed entries, by name.
  std::unordered_map<std::string, uint64_t> Retired;
  uint64_t RetiredOther = 0;

  /// Removes \p It's entry, keeping its node as the spare, and folds its
  /// heat into the retired tally. Caller holds M. Returns the next
  /// position.
  Map::iterator eraseLocked(Map::iterator It) {
    const CodeEntry &E = *It->second;
    uint64_t S = E.Samples.load(std::memory_order_relaxed);
    if (S) {
      auto R = Retired.find(E.Name);
      if (R != Retired.end())
        R->second += S;
      else if (Retired.size() < kMaxRetired)
        Retired.emplace(E.Name, S);
      else
        RetiredOther += S;
    }
    ++Removed;
    auto Next = std::next(It);
    Spare = ByHost.extract(It);
    Spare.mapped().reset();
    return Next;
  }

  /// Removes every live entry overlapping [Host, Host+Bytes), then maps
  /// \p Host to \p E, reusing the spare node when there is one. Caller
  /// holds M.
  void putLocked(uintptr_t Host, uint64_t Bytes,
                 std::shared_ptr<const CodeEntry> E) {
    // First candidate: the entry at or before Host can still cover it.
    auto It = ByHost.upper_bound(Host);
    if (It != ByHost.begin() && std::prev(It)->second->contains(Host))
      --It;
    while (It != ByHost.end() && It->first < Host + Bytes)
      It = eraseLocked(It);
    if (Spare) {
      Spare.key() = Host;
      Spare.mapped() = std::move(E);
      ByHost.insert(It, std::move(Spare));
    } else {
      ByHost.emplace_hint(It, Host, std::move(E));
    }
  }
};

CodeMap::CodeMap() : I(new Impl) {}

CodeMap &CodeMap::instance() {
  // Leaked: profiler drains and atexit reports may run after static
  // destruction of anything else.
  static CodeMap *M = new CodeMap();
  return *M;
}

uint64_t CodeMap::publish(uint64_t Addr, uint64_t Bytes, uint64_t Entry,
                          uintptr_t Host, std::string_view Name,
                          const char *Target, Tier T, uint64_t GuestLo,
                          uint64_t GuestHi) {
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
  E->GuestLo = GuestLo;
  E->GuestHi = GuestHi;
  if (Name.empty())
    E->Name = synthName(Addr);
  else
    E->Name = Name;
  if (Capture.load(std::memory_order_relaxed)) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(Host);
    E->Code.assign(P, P + Bytes);
  }
  drainPendingSamples(); // before overlap eviction retires an entry
  {
    std::lock_guard<std::mutex> L(I->M);
    I->putLocked(Host, Bytes, E);
    ++I->Published;
  }
  exportOnPublish(*E);
  return E->Generation;
}

void CodeMap::remove(uintptr_t Host) {
  drainPendingSamples();
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->ByHost.find(Host);
  if (It != I->ByHost.end())
    I->eraseLocked(It);
}

std::shared_ptr<const CodeEntry> CodeMap::lookup(uintptr_t Pc) const {
  std::lock_guard<std::mutex> L(I->M);
  auto It = I->ByHost.upper_bound(Pc);
  if (It == I->ByHost.begin())
    return nullptr;
  --It;
  return It->second->contains(Pc) ? It->second : nullptr;
}

std::vector<std::shared_ptr<const CodeEntry>> CodeMap::entries() const {
  std::lock_guard<std::mutex> L(I->M);
  std::vector<std::shared_ptr<const CodeEntry>> Out;
  Out.reserve(I->ByHost.size());
  for (auto &KV : I->ByHost)
    Out.push_back(KV.second);
  return Out;
}

std::shared_ptr<const CodeEntry>
CodeMap::findByName(const std::string &Name) const {
  std::lock_guard<std::mutex> L(I->M);
  for (auto &KV : I->ByHost)
    if (KV.second->Name == Name)
      return KV.second;
  return nullptr;
}

CodeMap::Stats CodeMap::stats() const {
  std::lock_guard<std::mutex> L(I->M);
  Stats S;
  S.Published = I->Published;
  S.Removed = I->Removed;
  S.Live = I->ByHost.size();
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
  Out += fmtLine("  regions: %llu live, %llu published, %llu retired\n",
                 (unsigned long long)S.Live, (unsigned long long)S.Published,
                 (unsigned long long)S.Removed);
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
  I->ByHost.clear();
  I->Retired.clear();
  I->RetiredOther = 0;
  I->Published = I->Removed = 0;
}

} // namespace profile
} // namespace vcode

#endif // VCODE_TELEMETRY_ENABLED
