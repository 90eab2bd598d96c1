//===- core/CodeCache.h - Sharded compiled-code cache -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concurrent cache of compiled code, keyed by a canonical description of
/// what was compiled (a filter set, a tcc program, ...). This is the piece
/// that turns VCODE from a per-caller code generator into a shared service
/// (Kistler & Franz's "code optimization as a central system service"):
/// when compilation sits on the request path, identical requests must not
/// regenerate identical classifiers, and distinct requests must be able to
/// generate in parallel.
///
/// Guarantees:
///
///  - Exactly-once generation. The first thread to ask for a key runs the
///    generator; concurrent threads asking for the *same* key block and
///    reuse its result; threads asking for *different* keys generate in
///    parallel (the shard lock is dropped during generation).
///  - Safe reclamation. Entries hand out refcounted Handles. Evicting an
///    entry only removes it from the table; its code region returns to the
///    arena when the last Handle drops, so a classifier still executing on
///    some simulator thread is never freed under it.
///  - LRU eviction. Each shard lists its Ready entries, most recently
///    looked up first: a hit moves its entry to the front, eviction pops
///    the back, and entries still generating are never listed or evicted.
///  - Tiered promotion. Entries count their dispatches
///    (Handle::dispatch) and promote(key) regenerates an entry —
///    typically at Tier-1 — and atomically swaps the refcounted code
///    version under concurrent dispatchers: exactly one promoter runs,
///    pinned dispatchers finish on the old version, and the old region
///    is freed only when its last pin drops.
///  - Final versions. A promoted entry never changes again, and every
///    Handle owns the entry that owns that version, so its code outlives
///    any Handle a dispatcher holds. Handle::dispatch runs a final
///    version straight through Handle::finalVersion() — no lock, no pin,
///    no count — and keeps the pinned, counted path for entries that may
///    still be swapped.
///  - Counters. Hits / misses / generations / failures / evictions /
///    promotions are exact (sharded relaxed atomics, summed by stats()), so
///    tests can assert "one generation per distinct key" instead of
///    eyeballing timings. The counters are instance-owned
///    telemetry::Counter objects: stats() stays per-cache exact, and the
///    same numbers appear in the process-wide telemetry report under
///    "cache.*" (summed across caches, including destroyed ones).
///
/// The cache allocates code regions from one sim::Memory arena (which must
/// be the arena the consuming engines execute from, and must outlive the
/// cache and its Handles). The arena owns free code memory: evicted and
/// failed regions go back to it and later allocCode calls, from this cache
/// or any other user of the arena, reuse them. Side allocations a
/// generator makes during emission (e.g. DPF jump tables) stay in the
/// arena for the lifetime of the arena — bounded, but not recycled; see
/// the threading-model notes in README.md.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_CODECACHE_H
#define VCODE_CORE_CODECACHE_H

#include "core/Generate.h"
#include "profile/CodeMap.h"
#include "sim/Memory.h"
#include "support/Telemetry.h"
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vcode {

/// Sharded (per-shard mutex) cache: canonical key -> generated CodePtr.
class CodeCache {
public:
  struct Options {
    unsigned Shards;          ///< lock shards (>=1; rounded up to 1)
    size_t MaxEntriesPerShard; ///< LRU-evict beyond this
    Options(unsigned Shards = 8, size_t MaxEntriesPerShard = 64)
        : Shards(Shards), MaxEntriesPerShard(MaxEntriesPerShard) {}
  };

  /// Counter snapshot. Hits counts lookups satisfied by an existing entry
  /// (including block-and-reuse waiters); Misses counts lookups that had
  /// to create an entry; Generations counts generator runs that succeeded
  /// (Failures those that did not) — so Misses == Generations + Failures
  /// once the cache is quiescent, and "no redundant regeneration" is the
  /// assertion Generations == number of distinct keys.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Generations = 0;
    uint64_t Failures = 0;
    uint64_t Evictions = 0;
    uint64_t Promotions = 0;        ///< promote() swaps that succeeded
    uint64_t PromoteFailures = 0;   ///< promote() regenerations that failed
  };

  /// One immutable generation of an entry's code. Promotion installs a
  /// new Version and drops the entry's reference to the old one; the old
  /// code region returns to the arena only when the last pin (a
  /// dispatcher mid-call) releases it — so code is never freed under a
  /// running simulator thread.
  struct Version {
    explicit Version(sim::Memory &M) : Mem(M) {}
    ~Version() {
      if (RegionBytes) {
        // Unregister the region from the CodeMap before another
        // generation can reuse the addresses.
        profile::CodeMap::instance().remove(
            uintptr_t(Mem.hostPtr(RegionAddr, RegionBytes)));
        Mem.freeCode(RegionAddr, RegionBytes);
      }
    }
    Version(const Version &) = delete;
    Version &operator=(const Version &) = delete;

    sim::Memory &Mem;
    CodePtr Code;
    SimAddr RegionAddr = 0;
    size_t RegionBytes = 0;
    Tier GenTier = Tier::Tier0; ///< tier this version was generated at
  };

private:
  enum class State : uint8_t { Generating, Ready, Failed };

  struct Entry {
    explicit Entry(std::string K) : Key(std::move(K)) {}
    Entry(const Entry &) = delete;
    Entry &operator=(const Entry &) = delete;

    const std::string Key;
    /// Position in the shard's LRU list, set when the entry becomes Ready
    /// and valid while it stays in the table (guarded by the shard mutex).
    std::list<Entry *>::iterator LruPos;
    bool InLru = false;

    std::mutex M;              ///< guards St/Err/Cur + CV below
    std::condition_variable CV;
    State St = State::Generating;
    CgError Err;

    /// Current code version; set once when St becomes Ready, then only
    /// replaced (never cleared) by promote() under M.
    std::shared_ptr<const Version> Cur;
    /// Cur.get() once promote() has swapped it in (set under M; null
    /// before). Cur is never replaced again after that, so this pointer
    /// stays valid for the entry's lifetime.
    std::atomic<const Version *> Final{nullptr};
    std::atomic<uint64_t> ExecCount{0}; ///< pinned dispatches via Handle
    std::atomic<bool> Promoting{false}; ///< exactly-once promote gate
  };

public:
  /// A refcounted view of one cache entry. As long as any Handle (or the
  /// cache's own table slot) references the entry, its code region stays
  /// allocated; engines keep the Handle of their installed classifier for
  /// as long as they may execute it. Handles must not outlive the arena.
  class Handle {
  public:
    Handle() = default;

    /// True when the entry holds generated code.
    bool valid() const { return E && E->St == State::Ready; }
    explicit operator bool() const { return valid(); }
    /// The generated code (invalid CodePtr unless valid()). With
    /// promotion in play, prefer pin(): code() samples the current
    /// version, which may be swapped before the caller dispatches.
    CodePtr code() const {
      auto V = pin();
      return V ? V->Code : CodePtr{};
    }
    /// Pins the entry's current code version: as long as the returned
    /// reference lives, the version's region cannot be reclaimed even if
    /// promote() swaps in a replacement. Null for an invalid Handle.
    std::shared_ptr<const Version> pin() const {
      if (!E)
        return nullptr;
      std::lock_guard<std::mutex> Lock(E->M);
      return E->Cur;
    }
    /// The promoted code version once promote() has swapped this entry,
    /// null before. The version lives as long as the entry, which this
    /// Handle owns, so it may be executed without a pin.
    const Version *finalVersion() const {
      return E ? E->Final.load(std::memory_order_acquire) : nullptr;
    }
    /// One dispatch of this entry's code: returns \p Call(const Version &).
    /// A final version runs directly. Otherwise the current version is
    /// pinned for the call and the execution counted; the dispatcher whose
    /// count reaches \p HotThreshold (0: never) on a Tier-0 version runs
    /// \p Promote() — typically a wrapper around CodeCache::promote — and,
    /// when that swapped, calls the promoted version instead. The Handle
    /// must be valid().
    template <typename PromoteFn, typename CallFn>
    decltype(auto) dispatch(uint64_t HotThreshold, PromoteFn &&Promote,
                            CallFn &&Call) {
      if (const Version *F = finalVersion())
        return Call(*F);
      std::shared_ptr<const Version> Ver = pin();
      // The unique threshold-crossing count picks one promoter.
      uint64_t N = E->ExecCount.fetch_add(1, std::memory_order_relaxed) + 1;
      if (HotThreshold && N == HotThreshold && Ver->GenTier == Tier::Tier0 &&
          Promote()) {
        if (auto NewVer = pin())
          Ver = std::move(NewVer);
      }
      return Call(*Ver);
    }
    /// Tier of the current code version.
    Tier tier() const {
      auto V = pin();
      return V ? V->GenTier : Tier::Tier0;
    }
    /// The generation error when !valid() (None for an empty Handle).
    const CgError &error() const {
      static const CgError NoErr{};
      return E ? E->Err : NoErr;
    }
    /// Size of the cached code region in bytes (diagnostics).
    size_t regionBytes() const {
      auto V = pin();
      return V ? V->RegionBytes : 0;
    }

  private:
    friend class CodeCache;
    explicit Handle(std::shared_ptr<Entry> E) : E(std::move(E)) {}
    std::shared_ptr<Entry> E;
  };

  /// Per-generation region allocator handed to the generator callback:
  /// plugs into generateWithRetry's Alloc slot. Each call frees the
  /// previous (failed) attempt's region to the arena and allocates a
  /// fresh one. The final region is handed over to the cache entry on
  /// success (or freed on failure) by lookupOrGenerate.
  /// Every region is served with this object's RegionGrowth record, so a
  /// region the driver grew in place is filed at its grown size.
  /// Not copyable: the cache reads the final region back from this
  /// object, so generators must pass it by reference.
  class RegionAlloc {
  public:
    RegionAlloc(const RegionAlloc &) = delete;
    RegionAlloc &operator=(const RegionAlloc &) = delete;

    CodeMem operator()(size_t Bytes) {
      if (Cur.Size)
        Mem.freeCode(CurAddr, Cur.Size);
      Cur = RegionGrowth{};
      CodeMem M = Mem.allocCode(Bytes);
      M.Name = &Key;
      M.Growth = &Cur;
      CurAddr = M.Guest;
      Cur.Size = M.Size;
      return M;
    }

  private:
    friend class CodeCache;
    RegionAlloc(sim::Memory &Mem, const std::string &Key)
        : Mem(Mem), Key(Key) {}
    ~RegionAlloc() {
      if (Cur.Size)
        Mem.freeCode(CurAddr, Cur.Size);
    }
    sim::Memory &Mem;
    const std::string &Key; ///< published name of every region served
    SimAddr CurAddr = 0;
    RegionGrowth Cur; ///< the current region's capacity (grown in place)
  };

  explicit CodeCache(sim::Memory &M, Options O = Options())
      : Mem(M), Opts(O), ShardVec(std::max(O.Shards, 1u)) {}

  CodeCache(const CodeCache &) = delete;
  CodeCache &operator=(const CodeCache &) = delete;

  /// Looks up \p Key; on a miss, runs \p Gen — a callable
  /// `GenerateResult Gen(CodeCache::RegionAlloc &)` that typically wraps
  /// generateWithRetry with the RegionAlloc as its allocator — exactly
  /// once per key, while concurrent same-key callers block until the
  /// result is published. A failed generation is reported through the
  /// returned Handle (to the generator *and* to every waiter) and the key
  /// is removed, so a later caller may retry.
  template <typename GenFn>
  Handle lookupOrGenerate(const std::string &Key, GenFn Gen) {
    Shard &S = shardFor(Key);
    std::shared_ptr<Entry> E;
    bool Creator = false;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Map.find(Key);
      if (It != S.Map.end()) {
        E = It->second;
        if (E->InLru)
          S.Lru.splice(S.Lru.begin(), S.Lru, E->LruPos);
      } else {
        E = std::make_shared<Entry>(Key);
        S.Map.emplace(Key, E);
        Creator = true;
      }
    }

    if (!Creator) {
      // Hit, possibly on an entry still generating: block-and-reuse.
      CtHits.inc();
      std::unique_lock<std::mutex> Lock(E->M);
      E->CV.wait(Lock, [&] { return E->St != State::Generating; });
      return Handle(std::move(E));
    }

    CtMisses.inc();
    RegionAlloc RA(Mem, E->Key);
    VCODE_TM_TICK(TmGenStart);
    GenerateResult R = Gen(RA);
    VCODE_TM_SPAN("cache.generate", TmGenStart);
    if (R.ok()) {
      {
        std::lock_guard<std::mutex> Lock(E->M);
        E->Cur = makeVersion(R, RA);
        E->St = State::Ready;
      }
      E->CV.notify_all();
      CtGenerations.inc();
      insertAndEvict(S, *E);
      return Handle(std::move(E));
    }

    // Failure: RA frees the last attempt's region; publish the error to
    // waiters and drop the key so a retry can regenerate.
    {
      std::lock_guard<std::mutex> Lock(E->M);
      E->Err = R.Err;
      E->St = State::Failed;
    }
    E->CV.notify_all();
    CtFailures.inc();
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Map.find(Key);
      if (It != S.Map.end() && It->second == E)
        S.Map.erase(It);
    }
    return Handle(std::move(E));
  }

  /// Promotes \p Key's entry: regenerates through \p Gen (same callable
  /// shape as lookupOrGenerate's — typically generateWithRetry at
  /// Tier-1) and atomically swaps the entry's code version while
  /// concurrent dispatchers keep executing the old one through their
  /// pins. Exactly one caller per entry ever runs the generator (an
  /// atomic gate that stays closed after success and reopens on
  /// failure); everyone else returns false immediately. A successful swap
  /// makes the entry final (Handle::finalVersion()); a final entry is
  /// never promoted again. Returns true when this call performed the swap.
  template <typename GenFn>
  bool promote(const std::string &Key, GenFn Gen) {
    Shard &S = shardFor(Key);
    std::shared_ptr<Entry> E;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto It = S.Map.find(Key);
      if (It == S.Map.end())
        return false;
      E = It->second;
    }
    {
      std::lock_guard<std::mutex> Lock(E->M);
      if (E->St != State::Ready)
        return false;
    }
    if (E->Promoting.exchange(true, std::memory_order_acq_rel))
      return false; // someone else is promoting, or the entry is final
    RegionAlloc RA(Mem, E->Key);
    VCODE_TM_TICK(TmPromoteStart);
    GenerateResult R = Gen(RA);
    VCODE_TM_SPAN("cache.promote", TmPromoteStart);
    if (!R.ok()) {
      CtPromoteFailures.inc();
      E->Promoting.store(false, std::memory_order_release);
      return false;
    }
    std::shared_ptr<const Version> Old;
    {
      std::lock_guard<std::mutex> Lock(E->M);
      assert(!E->Final.load(std::memory_order_relaxed) &&
             "promote() swapped an entry that was already final");
      Old = std::move(E->Cur);
      E->Cur = makeVersion(R, RA);
      E->Final.store(E->Cur.get(), std::memory_order_release);
    }
    // Old's region is freed when the last pinned dispatcher drops it
    // (possibly right here, when nobody was mid-call).
    Old.reset();
    CtPromotions.inc();
    return true;
  }

  /// Probes for \p Key without generating. The returned Handle is empty
  /// on a miss and also while the key is still generating (a probe never
  /// blocks). Does not count as a hit or miss.
  Handle lookup(const std::string &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return Handle();
    std::lock_guard<std::mutex> ELock(It->second->M);
    if (It->second->St != State::Ready)
      return Handle();
    return Handle(It->second);
  }

  /// Current counter values (exact once concurrent calls have returned).
  Stats stats() const {
    Stats S;
    S.Hits = CtHits.value();
    S.Misses = CtMisses.value();
    S.Generations = CtGenerations.value();
    S.Failures = CtFailures.value();
    S.Evictions = CtEvictions.value();
    S.Promotions = CtPromotions.value();
    S.PromoteFailures = CtPromoteFailures.value();
    return S;
  }

  /// Number of entries currently cached (sums shard sizes; approximate
  /// while lookups run concurrently).
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : ShardVec) {
      std::lock_guard<std::mutex> Lock(S.M);
      N += S.Map.size();
    }
    return N;
  }

  /// The arena the cached code lives in.
  sim::Memory &memory() { return Mem; }

private:
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, std::shared_ptr<Entry>> Map;
    std::list<Entry *> Lru; ///< Ready entries, most recently used first
  };

  Shard &shardFor(const std::string &Key) {
    size_t H = std::hash<std::string>{}(Key);
    return ShardVec[H % ShardVec.size()];
  }

  /// Wraps a successful generation's region into a refcounted Version,
  /// taking ownership from the RegionAlloc. v_end already published the
  /// region under the key and tier.
  std::shared_ptr<const Version> makeVersion(const GenerateResult &R,
                                             RegionAlloc &RA) {
    auto V = std::make_shared<Version>(Mem);
    V->Code = R.Code;
    V->RegionAddr = RA.CurAddr;
    V->RegionBytes = RA.Cur.Size;
    V->GenTier = R.GenTier;
    RA.Cur = RegionGrowth{};
    return V;
  }

  /// Puts \p E, now Ready, at the front of \p S's LRU list, then evicts
  /// from the back until the shard is back under capacity. Evicted
  /// entries live on through any outstanding Handles.
  void insertAndEvict(Shard &S, Entry &E) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Lru.push_front(&E);
    E.LruPos = S.Lru.begin();
    E.InLru = true;
    while (S.Map.size() > Opts.MaxEntriesPerShard && !S.Lru.empty()) {
      auto Victim = S.Map.find(S.Lru.back()->Key);
      S.Lru.pop_back();
      S.Map.erase(Victim);
      CtEvictions.inc();
    }
  }

  sim::Memory &Mem;
  Options Opts;
  std::vector<Shard> ShardVec;

  // Instance-owned telemetry counters: lock-free sharded increments, exact
  // per-cache values via value()/stats(), and automatic aggregation into
  // the global registry report (folded into retired totals when the cache
  // is destroyed). Names are process-wide; multiple caches sum in the
  // report but never cross-contaminate each other's stats().
  telemetry::Counter CtHits{"cache.hits"};
  telemetry::Counter CtMisses{"cache.misses"};
  telemetry::Counter CtGenerations{"cache.generations"};
  telemetry::Counter CtFailures{"cache.failures"};
  telemetry::Counter CtEvictions{"cache.evictions"};
  telemetry::Counter CtPromotions{"cache.promotions"};
  telemetry::Counter CtPromoteFailures{"cache.promote_failures"};
};

} // namespace vcode

#endif // VCODE_CORE_CODECACHE_H
