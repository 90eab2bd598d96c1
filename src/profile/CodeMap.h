//===- profile/CodeMap.h - Registry of published generated code -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CodeMap is the process-wide answer to "what generated code is live
/// right now, and where?". Every published code region — a v_end on any
/// target, a CodeCache insert or promotion, a DBT translation — registers
/// here with its name (the cache key when there is one), target, tier,
/// size, and for translations the guest-PC range it was lifted from. The
/// sampling profiler (profile/Profiler.h) attributes PCs through it, the
/// perf-map/jitdump writers (profile/JitDump.h) stream entries from it,
/// and --dump-code walks it for annotated disassembly.
///
/// Concurrency: one mutex guards one ordered map of the entries, keyed by
/// the host address of each region's first byte. Host addresses are the
/// only key: simulated arenas all default to the same guest base, but
/// their mappings never overlap while they are alive, so a region is
/// identified by where its bytes live. Callers holding a simulated address
/// convert it through their arena (sim::Memory::hostPtr). publish, remove
/// and overlap eviction update the map under the lock; lookup takes it for
/// one upper_bound. An entry is complete when publish() inserts it — the
/// caller passes the name, tier and guest range it will carry — and is
/// never copied or changed afterwards except for its Samples counter, so
/// a reader holding the shared_ptr needs no lock. remove() and publish()
/// drain the profiler's pending native samples before they take the lock
/// (profile::drainPendingSamples), so the lock order is drain, then map.
///
/// Like the telemetry layer it reports through, the whole registry
/// compiles out under -DVCODE_TELEMETRY=OFF: the class below becomes an
/// inline no-op shell and call sites vanish.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_PROFILE_CODEMAP_H
#define VCODE_PROFILE_CODEMAP_H

#include "core/Tier.h"
#include "support/Telemetry.h" // VCODE_TELEMETRY_ENABLED
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcode {
namespace profile {

/// Metadata for one published code region. Fixed at publication except
/// Samples (relaxed-atomic profiler heat).
struct CodeEntry {
  uint64_t Addr = 0;  ///< region base, in its arena's simulated addresses
  uint64_t Bytes = 0; ///< published length
  uint64_t Entry = 0; ///< entry point (>= Addr when prologues right-align)
  uintptr_t Host = 0; ///< host address of byte 0: the map's key
  std::string Name;   ///< cache key or client name; synthesized if unset
  const char *Target = ""; ///< TargetInfo::Name (static storage)
  Tier GenTier = Tier::Tier0;
  uint64_t Generation = 0; ///< process-wide publish sequence number
  uint64_t GuestLo = 0, GuestHi = 0; ///< DBT: guest-PC source range
  std::vector<uint8_t> Code; ///< captured bytes (only when capture is on)
  mutable std::atomic<uint64_t> Samples{0}; ///< profiler heat

  bool contains(uintptr_t Pc) const { return Pc - Host < Bytes; }
};

#if VCODE_TELEMETRY_ENABLED

/// Process-wide registry of published code regions. See the file comment
/// for the concurrency model.
class CodeMap {
public:
  static CodeMap &instance();

  struct Stats {
    uint64_t Published = 0; ///< publish() calls
    uint64_t Removed = 0;   ///< remove() plus overlap evictions
    uint64_t Live = 0;      ///< entries currently registered
  };

  /// Registers the region whose \p Bytes bytes live at host address
  /// \p Host, based at simulated address \p Addr with entry point
  /// \p Entry (metadata for dumps). Any previously published region that
  /// overlaps it in host memory is removed first (the arena reuses freed
  /// code regions); its heat folds into the retired tally. An empty
  /// \p Name is synthesized as "fn@<addr>". [\p GuestLo, \p GuestHi) is a
  /// DBT translation's guest-PC source range (empty otherwise). Captures
  /// the code bytes when capture is enabled. Returns the publish
  /// generation number.
  uint64_t publish(uint64_t Addr, uint64_t Bytes, uint64_t Entry,
                   uintptr_t Host, std::string_view Name, const char *Target,
                   Tier T, uint64_t GuestLo = 0, uint64_t GuestHi = 0);

  /// Unregisters the region whose first byte is at host address \p Host
  /// (eviction, promotion reclaim); its heat folds into the retired tally.
  void remove(uintptr_t Host);

  /// Host address -> entry (simulator PCs converted through their arena,
  /// SIGPROF RIPs, DBT translated-function pointers). O(log n) under the
  /// lock; never returns a removed entry. NOT async-signal-safe.
  std::shared_ptr<const CodeEntry> lookup(uintptr_t Pc) const;

  /// Every live entry, in host-address order.
  std::vector<std::shared_ptr<const CodeEntry>> entries() const;
  /// First live entry whose Name equals \p Name (report-time joins).
  std::shared_ptr<const CodeEntry> findByName(const std::string &Name) const;

  Stats stats() const;

  /// When on, publish() snapshots the region's bytes into the entry so
  /// disassembly/jitdump survive arena teardown (set by --dump-code and
  /// the round-trip checker before any generation).
  void setCaptureBytes(bool On) {
    Capture.store(On, std::memory_order_relaxed);
  }
  bool captureBytes() const {
    return Capture.load(std::memory_order_relaxed);
  }

  /// Heat folded out of removed entries: (name, samples), unordered. At
  /// most kMaxRetired distinct names are kept; the rest aggregate under
  /// "<retired>".
  std::vector<std::pair<std::string, uint64_t>> retiredHeat() const;

  /// Appends the "codemap:" section of --telemetry-report.
  void appendReport(std::string &Out) const;

  /// Drops every entry and zeroes the stats. Tests only: the map is
  /// process-global, and suites that count entries need a clean slate.
  void resetForTest();

private:
  CodeMap();
  ~CodeMap() = delete; // leaked singleton: atexit readers outlive statics

  struct Impl;
  Impl *I;
  std::atomic<bool> Capture{false};
};

#else // !VCODE_TELEMETRY_ENABLED

/// Compiled-out shell: every member is an inline no-op, so call sites in
/// core/backends/dbt vanish entirely from VCODE_TELEMETRY=OFF builds.
class CodeMap {
public:
  static CodeMap &instance() {
    static CodeMap M;
    return M;
  }
  struct Stats {
    uint64_t Published = 0, Removed = 0, Live = 0;
  };
  uint64_t publish(uint64_t, uint64_t, uint64_t, uintptr_t, std::string_view,
                   const char *, Tier, uint64_t = 0, uint64_t = 0) {
    return 0;
  }
  void remove(uintptr_t) {}
  std::shared_ptr<const CodeEntry> lookup(uintptr_t) const { return {}; }
  std::vector<std::shared_ptr<const CodeEntry>> entries() const { return {}; }
  std::shared_ptr<const CodeEntry> findByName(const std::string &) const {
    return {};
  }
  Stats stats() const { return {}; }
  void setCaptureBytes(bool) {}
  bool captureBytes() const { return false; }
  std::vector<std::pair<std::string, uint64_t>> retiredHeat() const {
    return {};
  }
  void appendReport(std::string &) const {}
  void resetForTest() {}
};

#endif // VCODE_TELEMETRY_ENABLED

} // namespace profile
} // namespace vcode

#endif // VCODE_PROFILE_CODEMAP_H
