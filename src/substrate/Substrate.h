//===- substrate/Substrate.h - Arena, backend and CPU by name ---*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that maps a machine name to a machine. A client is
/// written once against Target, sim::Memory and sim::Cpu; which port it
/// runs on is a name:
///
///   mips, sparc, alpha  simulated arena, the port's backend, and its
///                       interpreter with the default MachineConfig
///                       (alpha also gets its div helpers, installed in
///                       the arena's first 16 KiB of code)
///   host                native W^X arena, the x86-64 backend, NativeCpu
///                       (x86-64 build machines only)
///   dbt                 MIPS code in a simulated arena, run by
///                       MipsTranslatingCpu; every CPU of the substrate
///                       shares one TranslationEngine
///
/// Examples, benches and test fixtures all get their machine here, so
/// adding a port means adding one row to the table in Substrate.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SUBSTRATE_SUBSTRATE_H
#define VCODE_SUBSTRATE_SUBSTRATE_H

#include "core/Target.h"
#include "sim/Cpu.h"
#include "sim/Memory.h"
#include <memory>
#include <string>

namespace vcode {
namespace dbt {
class TranslationEngine;
}
namespace tool {
struct ToolOptions;
}

/// An arena, the backend that emits into it, and a CPU that runs what it
/// emits. Members are destroyed CPU first, arena last.
struct Substrate {
  /// One bit per name, for the set of names a tool accepts.
  enum Names : unsigned { Mips = 1, Sparc = 2, Alpha = 4, Host = 8, Dbt = 16 };

  const char *Name = nullptr; ///< the name it was made from (static storage)
  std::unique_ptr<sim::Memory> Mem;
  std::unique_ptr<Target> Tgt;
  /// dbt only: the translation cache shared by every CPU made here.
  std::shared_ptr<dbt::TranslationEngine> Engine;
  std::unique_ptr<sim::Cpu> Cpu;

  /// A further CPU over the same arena. CPUs that run at the same time
  /// each need their own stack: setStackTop(Mem->allocStack()).
  std::unique_ptr<sim::Cpu> makeCpu() const;

  /// True when generated code runs directly on this machine (host).
  bool native() const { return Mem->isNative(); }
  /// True when the CPU bills simulated cycles. Native and translated
  /// runs have no timing model.
  bool modelsCycles() const { return !native() && !Engine; }
};

/// Builds the substrate called \p Name (see the file comment). Any other
/// name, or host on a machine that is not x86-64, dies with one line.
Substrate makeSubstrate(const std::string &Name);

/// The substrate called \p Name over \p Arena, an arena the caller made
/// (native for host, simulated for every other name; a mismatch dies).
/// Tests use it to run a machine over an arena with its own policy.
Substrate makeSubstrate(const std::string &Name,
                        std::unique_ptr<sim::Memory> Arena);

/// The substrate a tool's --target asks for, mips when it names none.
/// A name outside \p Accepted (a set of Substrate::Names bits) dies with
/// "<Tool>: --target=<name> is not supported here (<accepted names>)".
Substrate makeSubstrate(const tool::ToolOptions &Opts, const char *Tool,
                        unsigned Accepted);

} // namespace vcode

#endif // VCODE_SUBSTRATE_SUBSTRATE_H
