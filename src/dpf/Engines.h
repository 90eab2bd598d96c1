//===- dpf/Engines.h - Message demultiplexing engines -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three message-classification engines compared in paper Table 3:
///
///  - MpfEngine: an MPF-style engine ("a widely used packet filter
///    engine"): every installed filter keeps its own predicate program,
///    interpreted one filter at a time until one matches.
///  - PathFinderEngine: a PATHFINDER-style engine ("the fastest packet
///    filter engine in the literature"): filters are merged into a pattern
///    (cell) graph so shared prefixes are tested once, but the cells are
///    still interpreted.
///  - DpfEngine: Dynamic Packet Filters — filters are merged and compiled
///    to machine code with VCODE when installed; filter constants are
///    encoded in the instruction stream, and the port dispatch is
///    specialized at code-generation time (direct range check, binary
///    search, or a runtime-selected perfect hash; paper §4.2).
///
/// Every engine's classifier is machine code executing on the ISA
/// simulator (the two interpreters are themselves generated with VCODE
/// once, at install time), so Table 3's per-message times compare like
/// with like. classify() returns the filter id or -1.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_DPF_ENGINES_H
#define VCODE_DPF_ENGINES_H

#include "core/CodeCache.h"
#include "core/Generate.h"
#include "core/Tier.h"
#include "core/VCode.h"
#include "dpf/Filter.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include "support/Telemetry.h"
#include <string>

namespace vcode {
namespace dpf {

/// Common engine interface: install a filter set, classify messages.
class Engine {
public:
  virtual ~Engine();

  /// Installs \p Filters, (re)generating the classifier.
  virtual void install(const std::vector<Filter> &Filters) = 0;

  /// Classifier entry point: int classify(const char *Msg).
  SimAddr entry() const { return Code.Entry; }
  /// Size of the generated classifier, in bytes.
  size_t codeBytes() const { return Code.SizeBytes; }

  /// Sets the code-region size for the next install's first attempt; on
  /// overflow the region grows in place, or the install retries into a
  /// larger one when it cannot.
  void setInitialCodeBytes(size_t N) { InitialCodeBytes = N; }
  /// Emission attempts the last install needed (1 when the initial
  /// region sufficed or grew in place).
  unsigned installAttempts() const { return Attempts; }
  /// Final size of the last install's code region (after any in-place
  /// growth).
  size_t regionBytes() const { return RegionBytes; }

  /// Runs the classifier for the message at \p Msg. Virtual so engines
  /// with tiered promotion can count executions and swap versions.
  virtual int classify(sim::Cpu &Cpu, SimAddr Msg) {
    countDispatch();
    return Cpu.call(Code.Entry, {sim::TypedValue::fromPtr(Msg)}, Type::I)
        .asInt32();
  }

protected:
  Engine(Target &T, sim::Memory &M, size_t CodeBytes)
      : Tgt(T), Mem(M), InitialCodeBytes(CodeBytes) {}

  /// Bills one classify to the dpf.dispatches counter through this
  /// thread's batch cell: a registry atomic per message is a measurable
  /// tax once the substrate dispatches in tens of nanoseconds.
  static void countDispatch() {
    VCODE_TM_COUNT_BATCHED("dpf.dispatches", 1);
  }

  /// Shared install driver: runs \p Emit under generateWithRetry, growing
  /// the code region on overflow. Failed attempts' allocations (the code
  /// region and anything \p Emit allocated mid-emission, e.g. DPF jump
  /// tables) are released back to the arena before the next attempt, so
  /// persistent data structures must be written *before* calling this.
  /// Aborts (or raises through an outer recovery handler) if generation
  /// still fails at the growth cap.
  template <typename EmitFn>
  void installWithRetry(VCode &V, EmitFn Emit, Tier T = Tier::Tier0) {
    GenerateOptions Opts;
    Opts.InitialBytes = InitialCodeBytes;
    Opts.GenTier = T;
    VCODE_TM_TICK(TmInstall);
    SimAddr Mark = Mem.mark();
    GenerateResult R = generateWithRetry(
        V,
        [&](size_t N) {
          Mem.release(Mark);
          return Mem.allocCode(N);
        },
        Emit, Opts);
    if (!R.ok())
      fatalKind(R.Err.Kind, "dpf: install failed after %u attempt(s): %s",
                R.Attempts, R.Err.Detail);
    Code = R.Code;
    Attempts = R.Attempts;
    RegionBytes = R.RegionBytes;
    VCODE_TM_SPAN("dpf.install", TmInstall);
    VCODE_TM_COUNT("dpf.installs", 1);
  }

  Target &Tgt;
  sim::Memory &Mem;
  CodePtr Code;
  size_t InitialCodeBytes;
  unsigned Attempts = 0;
  size_t RegionBytes = 0;
};

/// MPF-style linear interpreter.
class MpfEngine : public Engine {
public:
  MpfEngine(Target &T, sim::Memory &M) : Engine(T, M, 4096) {}
  void install(const std::vector<Filter> &Filters) override;
};

/// PATHFINDER-style pattern (cell-graph) interpreter.
class PathFinderEngine : public Engine {
public:
  PathFinderEngine(Target &T, sim::Memory &M) : Engine(T, M, 4096) {}
  void install(const std::vector<Filter> &Filters) override;
};

/// DPF: dynamically compiled, constant-specialized classifier.
class DpfEngine : public Engine {
public:
  /// Dispatch strategy for wide fan-out nodes ("DPF can select among
  /// several" — Auto picks per the paper's rules; the others force one
  /// strategy for the ablation benchmarks).
  enum class Dispatch { Auto, Chain, Binary, Hash, Table };

  DpfEngine(Target &T, sim::Memory &M, Dispatch D = Dispatch::Auto)
      : Engine(T, M, 32768), Strategy(D), GenTier(defaultTier()) {}
  void install(const std::vector<Filter> &Filters) override;

  /// Selects the generation tier for subsequent installs (Tier-0 emits in
  /// place as installed filters always did; Tier-1 records a vreg IR,
  /// allocates registers by linear scan, and replays through the
  /// optimizing emitters). Defaults to defaultTier() (VCODE_TIER env).
  void setTier(Tier T) { GenTier = T; }
  Tier tier() const { return GenTier; }

  /// Enables hot-function promotion for installShared() classifiers:
  /// once a shared classifier has executed \p N times (counted across
  /// every engine dispatching it), the dispatcher that crosses the
  /// threshold regenerates it at Tier-1 and the cache swaps versions
  /// under the running dispatchers. 0 (the default) disables promotion.
  void setHotThreshold(uint64_t N) { HotThreshold = N; }
  uint64_t hotThreshold() const { return HotThreshold; }

  /// Tiered dispatch: executes the pinned current version of a shared
  /// classifier, counting executions and promoting at the threshold.
  int classify(sim::Cpu &Cpu, SimAddr Msg) override;

  /// Regenerates the installShared() classifier at Tier-1 and swaps it
  /// into the cache (exactly one promoter wins across all engines
  /// sharing the entry). Returns true when this call performed the swap.
  bool promoteShared();

  /// Cache-backed install. The canonical key of \p Filters (plus target
  /// and dispatch strategy) is looked up in \p Cache: the first caller
  /// generates the classifier under generateWithRetry, concurrent callers
  /// for the same filter set block until it is published and reuse it,
  /// and distinct sets generate in parallel. The engine pins the cached
  /// code through a refcounted Handle, so a later eviction never frees a
  /// classifier this engine can still execute. \p Cache must be built
  /// over the same sim::Memory this engine executes from. Returns true
  /// when the install was served from the cache (no generation by this
  /// caller). Unlike install(), failed generations raise through
  /// fatalKind under the caller's error policy without retrying callers
  /// piling up behind a poisoned entry.
  bool installShared(CodeCache &Cache, const std::vector<Filter> &Filters);

  /// Name of the dispatch strategy the last install actually used for the
  /// widest node (for reporting).
  const char *dispatchUsed() const { return Used; }

  /// The canonical CodeCache key installShared() files \p Filters under:
  /// "dpf|<target>|<strategy>|<filter-set key>". Exposed so observers
  /// (the service's hot-set report, CodeMap joins) can compute the key a
  /// set WOULD be cached under without holding a live engine.
  static std::string sharedCacheKey(const Target &T, Dispatch D,
                                    const std::vector<Filter> &Filters);
  std::string sharedCacheKey(const std::vector<Filter> &Filters) const {
    return sharedCacheKey(Tgt, Strategy, Filters);
  }

  /// One emission attempt of the classifier for \p T into \p CM at tier
  /// \p Tr: the single-shot body install() retries with grown regions.
  /// Exposed so fault-injection tests can drive it with an undersized
  /// region under a caller-controlled error policy. On success the
  /// dispatch tables are filled with resolved code addresses; on a
  /// poisoned recovery-mode attempt it returns an invalid CodePtr and
  /// touches no table memory.
  CodePtr emitInto(VCode &V, const Trie &T, CodeMem CM, Tier Tr);
  CodePtr emitInto(VCode &V, const Trie &T, CodeMem CM) {
    return emitInto(V, T, CM, GenTier);
  }

private:
  struct EdgeCase {
    uint32_t Value;
    Label Target;
  };
  /// The classifier emitter, templated over the tier's emission stream
  /// (core/TierStream.h): DirectStream reproduces the historical in-place
  /// emission byte for byte; RecStream records for Tier-1.
  template <typename S> struct Em;
  template <typename S> Label emitAll(S &St, const Trie &T, Reg MsgArg);

  Dispatch Strategy;
  const char *Used = "none";
  Tier GenTier;
  uint64_t HotThreshold = 0;
  /// installShared() provenance, kept so classify() can promote.
  CodeCache *SharedCache = nullptr;
  std::string SharedKey;
  std::vector<Filter> SharedFilters;
  /// Pin on the shared classifier when installShared() is in use.
  CodeCache::Handle CacheHandle;
  /// Post-generation patches: jump tables filled with label addresses.
  struct TablePatch {
    SimAddr TableAddr;
    std::vector<Label> Slots;
  };
  std::vector<TablePatch> Tables;
};

} // namespace dpf
} // namespace vcode

#endif // VCODE_DPF_ENGINES_H
