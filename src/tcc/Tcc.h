//===- tcc/Tcc.h - tcc-lite: a compiler targeting VCODE ---------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tcc-lite: a small C-like language compiled through the VCODE API,
/// standing in for the paper's `tcc` (§4.1), the lcc-based \`C compiler
/// that "uses VCODE as an abstract machine to generate code dynamically".
/// Like tcc, it demonstrates the §4.1 claims: "compiling to VCODE has been
/// easier than compiling to more traditional RISC architectures ... due
/// both to the regularity of the VCODE instruction set and to the fact
/// that VCODE handles calling conventions", and the same front-end runs
/// unchanged on every ported target.
///
/// The language: integer functions with parameters, `var` declarations,
/// assignment, `if`/`else`, `while`, `return`, calls (including recursion
/// and forward references, resolved through a function table), and the
/// usual C operators with short-circuit && and ||.
///
///   gcd(a, b) { while (b != 0) { var t = b; b = a % b; a = t; } return a; }
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_TCC_TCC_H
#define VCODE_TCC_TCC_H

#include "core/CodeCache.h"
#include "core/VCode.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include <map>
#include <string>
#include <vector>

namespace vcode {
namespace tcc {

/// The tcc-lite compilation context: owns the function table through which
/// compiled functions call each other (which is how recursion and forward
/// references work before an entry address is known).
class Tcc {
public:
  Tcc(Target &T, sim::Memory &M) : Tgt(T), Mem(M) {}

  /// Generation tier for subsequent compiles (core/Tier.h). tcc-lite's
  /// Tier-1 pipeline is the optimizing one: the §6.2 peephole layer runs
  /// ("trade runtime compilation overhead for better generated code") and
  /// results are stamped Tier-1 so cache promotion can tell the versions
  /// apart. Defaults to defaultTier() (VCODE_TIER env).
  void setTier(Tier T) { GenTier = T; }
  Tier tier() const { return GenTier; }

  /// Enables hot-function promotion for compileShared() functions: once
  /// a shared function has run \p N times through run() (counted across
  /// every Tcc pinning the cache entry), the caller that crosses the
  /// threshold recompiles it at Tier-1, the cache swaps the version
  /// under any concurrent pinned callers, and this instance's function
  /// table is re-patched to the promoted entry. 0 (default) disables.
  void setHotThreshold(uint64_t N) { HotThreshold = N; }
  uint64_t hotThreshold() const { return HotThreshold; }

  /// Sets the code-region size for the next compile's first attempt; on
  /// overflow the region grows in place, or compile() retries into a
  /// larger one when it cannot.
  void setInitialCodeBytes(size_t N) { InitialCodeBytes = N; }
  /// Emission attempts the last compile needed (1 when the initial
  /// region sufficed or grew in place).
  unsigned compileAttempts() const { return Attempts; }
  /// Final size of the last compile's code region (after any in-place
  /// growth).
  size_t regionBytes() const { return RegionBytes; }

  /// Compiles one function definition, e.g. "inc(x) { return x + 1; }",
  /// registers it under its name, and returns its code handle. Fatal
  /// error (with line number) on syntax errors; code regions too small
  /// for the program are grown and retried (the function-table slots
  /// created during failed attempts persist, so those regions are leaked
  /// rather than released — bounded by the geometric growth).
  CodePtr compile(const std::string &Source);

  /// One emission attempt into caller-provided code memory. With \p Err
  /// null this is compile() without the retry loop (errors are fatal
  /// under the default policy). With \p Err non-null the attempt runs in
  /// recovery mode: on failure the error is stored there, an invalid
  /// CodePtr returns, and the function is not registered.
  CodePtr compileInto(const std::string &Source, CodeMem CM,
                      CgError *Err = nullptr);

  /// Cache-backed compile: identical (target, source) requests
  /// from any Tcc instance over the same arena share one generation; the
  /// first caller compiles, concurrent same-source callers block and
  /// reuse, distinct sources compile in parallel. The function is
  /// registered in *this* instance's table either way, and the cached
  /// code is pinned for the lifetime of this Tcc. Cached code freezes
  /// the callee bindings (function-table slots) of the instance that
  /// generated it, so share only self-contained functions: leaf code or
  /// self-recursion is always safe; calls into other functions resolve
  /// through the generator's table. \p Cache must be built over this
  /// Tcc's sim::Memory. Returns the code handle.
  CodePtr compileShared(CodeCache &Cache, const std::string &Source);

  /// The CodeCache key compileShared() files \p Source under with this
  /// instance's target (observers: tests, reports).
  std::string sharedCacheKey(const std::string &Source) const;

  /// Entry address of a compiled function; fatal if unknown.
  SimAddr lookup(const std::string &Name) const;

  /// Number of parameters of a compiled function.
  unsigned arity(const std::string &Name) const;

  /// Convenience: run a compiled function on \p Cpu.
  int32_t run(sim::Cpu &Cpu, const std::string &Name,
              const std::vector<int32_t> &Args);

private:
  /// compileShared() provenance, kept per function so run() can count
  /// executions and promote hot functions.
  struct SharedInfo {
    CodeCache *Cache = nullptr;
    std::string Key;
    std::string Source;
    CodeCache::Handle H;
  };

  /// Slot in the function table for \p Name (created on demand).
  SimAddr slotFor(const std::string &Name);
  /// Registers a successfully generated function under \p Name.
  void registerFn(const std::string &Name, unsigned Arity, CodePtr Code);
  /// Recompiles \p Name at Tier-1 and swaps the cached version; true
  /// when this call performed the swap (then the table is re-patched).
  bool promoteShared(const std::string &Name, SharedInfo &SI);

  Target &Tgt;
  sim::Memory &Mem;
  Tier GenTier = defaultTier();
  uint64_t HotThreshold = 0;
  size_t InitialCodeBytes = 32768;
  unsigned Attempts = 0;
  size_t RegionBytes = 0;
  struct FnInfo {
    SimAddr Slot = 0;     ///< function-table slot holding the entry
    SimAddr Entry = 0;    ///< 0 until defined
    unsigned Arity = 0;
    bool Defined = false;
  };
  std::map<std::string, FnInfo> Functions;
  /// Pins on shared compiled functions (compileShared), so cache
  /// eviction cannot free code this instance's table still points at.
  std::vector<CodeCache::Handle> SharedPins;
  /// Per-function shared-compile provenance for tiered promotion.
  std::map<std::string, SharedInfo> Shared;
};

} // namespace tcc
} // namespace vcode

#endif // VCODE_TCC_TCC_H
