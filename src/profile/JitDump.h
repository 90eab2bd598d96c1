//===- profile/JitDump.h - perf map and jitdump writers ---------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports published code regions to Linux perf's two JIT interfaces:
///
/// - perf map: a text file "/tmp/perf-<pid>.map" of "<addr> <size>
///   <name>" lines that `perf report` consults to symbolize otherwise
///   anonymous JIT frames. Plain text, appended and flushed per entry —
///   works on every OS (useful for the test-side reader even off Linux).
///
/// - jitdump: the richer binary format ("jit-<pid>.dump", consumed via
///   `perf inject --jit`) carrying code bytes so perf can annotate at
///   instruction level. The file is mmap'd PROT_EXEC for one page when
///   possible because perf locates the jitdump by that mmap record.
///   Linux-only; enableJitDump() reports failure elsewhere.
///
/// Both are push-model: once enabled, CodeMap::publish streams every
/// subsequent entry through exportOnPublish. Addresses written are host
/// addresses (what a sampling perf sees).
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_PROFILE_JITDUMP_H
#define VCODE_PROFILE_JITDUMP_H

#include "profile/CodeMap.h"
#include <string>

namespace vcode {
namespace profile {

#if VCODE_TELEMETRY_ENABLED

/// Starts streaming a perf map. \p Path overrides the default
/// "/tmp/perf-<pid>.map" (tests point it into their temp dir). Returns
/// false if the file cannot be opened. Idempotent while open.
bool enablePerfMap(const char *Path = nullptr);

/// Starts streaming a jitdump. \p Path overrides the default
/// "jit-<pid>.dump" in the working directory. Returns false off Linux
/// or if the file cannot be created.
bool enableJitDump(const char *Path = nullptr);

/// Paths of the open exports ("" when not enabled).
std::string perfMapPath();
std::string jitDumpPath();

/// Flushes and closes both writers (atexit; safe to call repeatedly).
void closeJitExports();

/// Called by CodeMap::publish for every new entry.
void exportOnPublish(const CodeEntry &E);

#else // !VCODE_TELEMETRY_ENABLED

inline bool enablePerfMap(const char * = nullptr) { return false; }
inline bool enableJitDump(const char * = nullptr) { return false; }
inline std::string perfMapPath() { return {}; }
inline std::string jitDumpPath() { return {}; }
inline void closeJitExports() {}
inline void exportOnPublish(const CodeEntry &) {}

#endif // VCODE_TELEMETRY_ENABLED

} // namespace profile
} // namespace vcode

#endif // VCODE_PROFILE_JITDUMP_H
