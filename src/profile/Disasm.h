//===- profile/Disasm.h - Per-target disassembler registry ------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// --dump-code needs to disassemble whatever target a CodeEntry was
/// generated for, but profile/ sits below the backends in the link
/// order. Each backend therefore registers a byte-level disassembler
/// here from a static initializer (word targets register their
/// MipsDisasm/SparcDisasm/AlphaDisasm through decodeWord32; x64 registers
/// X64Disasm), and dumpEntry() resolves by the entry's Target name at
/// dump time.
///
/// The registry itself is available in all builds (a disassembler is
/// not profiler code), but dumpEntry only has bytes to chew on when the
/// CodeMap captured them, which only happens under VCODE_TELEMETRY=ON.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_PROFILE_DISASM_H
#define VCODE_PROFILE_DISASM_H

#include "profile/CodeMap.h"
#include <cstddef>
#include <cstdint>
#include <string>

namespace vcode {
namespace profile {

/// Decodes one instruction at \p P (with \p Avail bytes left, \p Pc its
/// address for pc-relative operands), appends its text to \p Out, and
/// returns the encoded length in bytes. Returns 0 when the bytes do not
/// decode; the caller advances by one unit and marks the gap. A decoder
/// may also return nonzero with text beginning ".word"/".byte" to flag a
/// recognized-width-but-unknown encoding; dumpEntry counts both forms as
/// undecodable.
using DisasmFn = size_t (*)(const uint8_t *P, size_t Avail, uint64_t Pc,
                            std::string &Out);

/// DisasmFn for a fixed-width target: reads one 32-bit word, stored
/// little-endian like every word in a code buffer, and appends
/// \p Disassemble's text for it.
template <std::string (*Disassemble)(uint32_t Word, uint64_t Pc)>
size_t decodeWord32(const uint8_t *P, size_t Avail, uint64_t Pc,
                    std::string &Out) {
  if (Avail < 4)
    return 0;
  Out += Disassemble(uint32_t(P[0]) | (uint32_t(P[1]) << 8) |
                         (uint32_t(P[2]) << 16) | (uint32_t(P[3]) << 24),
                     Pc);
  return 4;
}

/// Registers the decoder for \p Target (a TargetInfo::Name string).
/// Last registration wins. Always returns true, so a backend can register
/// from the initializer of a static variable.
bool registerDisassembler(const char *Target, DisasmFn Fn);

/// Decoder for \p Target, or nullptr if that backend is not linked in.
DisasmFn findDisassembler(const char *Target);

struct DumpStats {
  uint64_t Instrs = 0;      ///< instructions decoded
  uint64_t Undecodable = 0; ///< gaps: length 0 or ".word"/".byte" text
  bool HaveDisasm = false;  ///< a decoder was registered for the target
  bool HaveBytes = false;   ///< entry had captured or live bytes to read
};

/// Appends an annotated disassembly of \p E to \p Out — header line with
/// name/target/tier/size/heat, then one "  <addr>: <bytes>  <text>" line
/// per instruction. Prefers the captured byte snapshot; falls back to the
/// live host mapping when none was captured. Degrades gracefully (header
/// plus a note) when neither bytes nor a decoder are available.
DumpStats dumpEntry(const CodeEntry &E, std::string &Out);

} // namespace profile
} // namespace vcode

#endif // VCODE_PROFILE_DISASM_H
