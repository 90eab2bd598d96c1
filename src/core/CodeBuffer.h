//===- core/CodeBuffer.h - In-place instruction emission --------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-place code buffer. VCODE's defining property is that instructions
/// are emitted directly into client-provided code memory with a bumped
/// instruction pointer (paper Fig. 2: "*v_ip++ = ..."), with no intermediate
/// data structures. CodeBuffer is exactly that pointer bump, plus the
/// book-keeping needed to know the (simulated-machine) address of each word
/// so absolute addresses can be encoded at emission time.
///
/// A region is fixed-size unless its owner asks otherwise: the retry
/// driver (core/Generate.h) marks its regions growable, and on overflow
/// the buffer's cold path asks the arena to extend the region in place
/// and carries on. The base never moves, so growth changes no emitted
/// byte; the hot put() path is still one compare.
///
/// The buffer emits in units of the target's smallest instruction element:
/// 4 bytes on the fixed-width RISC ports (MIPS, SPARC, Alpha), 1 byte on
/// the variable-length x86-64 host port. All cursor arithmetic (wordIndex,
/// addrOfWord, patch indices) is in units, so the RISC backends are
/// unchanged and the x64 backend addresses individual bytes.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_CODEBUFFER_H
#define VCODE_CORE_CODEBUFFER_H

#include "support/Error.h"
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace vcode {

/// Simulated-machine address. 64-bit to cover the Alpha target; the 32-bit
/// targets use the low 32 bits. The native x86-64 port maps simulated
/// addresses 1:1 onto host addresses.
using SimAddr = uint64_t;

/// Arena-side hooks for code regions. An arena that hands out W^X code
/// regions (sim::Memory in native mode) implements beginWrite/publish; the
/// generation core calls beginWrite() before emitting into a region and
/// publish() once the finished function's bytes are final, so RW->RX flips
/// and icache coherence live in one place rather than in every client.
/// grow() extends a region in place for the retry driver (see
/// CodeMem::Growth). The default implementations keep the simulated
/// arenas' protection hooks no-ops and refuse every growth.
class CodeArena {
public:
  virtual ~CodeArena() = default;
  /// The region [Addr, Addr+Size) is about to be (re)written.
  virtual void beginWrite(SimAddr Addr, size_t Size) {
    (void)Addr;
    (void)Size;
  }
  /// The region [Addr, Addr+Size) now holds finished code: make it
  /// executable (and non-writable) and flush instruction caches.
  virtual void publish(SimAddr Addr, size_t Size) {
    (void)Addr;
    (void)Size;
  }
  /// Extends the region [Addr, Addr+Size) in place to at least \p NewSize
  /// bytes, backed by host storage contiguous with the region's. Returns
  /// the region's new size, or \p Size when it cannot grow. Added bytes
  /// are writable and never executable until publish().
  virtual size_t grow(SimAddr Addr, size_t Size, size_t NewSize) {
    (void)Addr;
    (void)NewSize;
    return Size;
  }
};

/// Capacity record of a code region that may grow in place. Whoever
/// accounts for the region owns the record; the code buffer stores every
/// size the arena grants in it, so the owner sees the region's final
/// extent even when emission fails.
struct RegionGrowth {
  size_t Limit = 0; ///< bytes the region may grow to (0: fixed size)
  size_t Size = 0;  ///< current capacity in bytes
};

/// A span of code memory handed to v_lambda: host storage backing a range
/// of simulated addresses. On the real system these coincide; here the host
/// pointer is the simulator arena's backing store (or, in native mode, the
/// mapping itself).
struct CodeMem {
  uint8_t *Host = nullptr; ///< host storage for the region
  SimAddr Guest = 0;       ///< simulated address of Host[0]
  size_t Size = 0;         ///< capacity in bytes
  /// Owning arena's W^X hooks, when the region needs protection flips
  /// around emission (native mode); null for plain simulated memory.
  CodeArena *Arena = nullptr;
  /// Name the finished function is published under in the CodeMap (the
  /// code cache stamps its key, --dump-code and tests their own labels);
  /// null publishes it unnamed. end() reads it, so it must outlive end().
  const std::string *Name = nullptr;
  /// In-place growth. Null keeps the paper's contract for a region handed
  /// straight to v_lambda: it is fixed, and overflow is an error ("pass a
  /// larger region"). generateWithRetry points it at a record with a
  /// Limit; on overflow the buffer then asks Arena to extend the region
  /// and keeps emitting. Only the capacity changes: the base address, and
  /// so every emitted byte, stays what a one-shot run into a region of the
  /// final size would produce.
  RegionGrowth *Growth = nullptr;
};

/// Result of v_end: the entry address of a finished function. SizeBytes
/// counts from the start of the code region (the entry may sit past a
/// partially used prologue reserve; see Target::endFunction).
struct CodePtr {
  SimAddr Entry = 0;
  size_t SizeBytes = 0;
  constexpr bool isValid() const { return Entry != 0; }
};

/// Bump-pointer emitter over a CodeMem region, in units of the target's
/// instruction granularity (TargetInfo::CodeUnitBytes): put() stores one
/// unit — a 32-bit word on the RISC ports, a byte on x86-64.
class CodeBuffer {
public:
  CodeBuffer() = default;

  /// Rebinds the buffer to \p Mem with \p UnitBytes-sized instruction
  /// units and resets the cursor. A malformed region — null or empty
  /// storage, a guest address misaligned to the unit, or a size that is
  /// not a whole number of units — is a recoverable bind-time error
  /// (CgErrKind::BadRegion), not a silent truncation: a 4-byte-unit
  /// region of 1023 bytes used to quietly lose its tail word, and a
  /// misaligned guest base mis-addressed every branch target.
  void reset(CodeMem Mem, unsigned UnitBytes = 4) {
    assert((UnitBytes == 1 || UnitBytes == 2 || UnitBytes == 4) &&
           "unsupported instruction unit");
    if (Mem.Host == nullptr || Mem.Size == 0)
      fatalKind(CgErrKind::BadRegion,
                "cannot bind code region: no storage (%zu bytes at %p)",
                Mem.Size, static_cast<void *>(Mem.Host));
    if (Mem.Guest % UnitBytes != 0)
      fatalKind(CgErrKind::BadRegion,
                "cannot bind code region: address 0x%llx is not %u-byte "
                "aligned",
                (unsigned long long)Mem.Guest, UnitBytes);
    if (Mem.Size % UnitBytes != 0)
      fatalKind(CgErrKind::BadRegion,
                "cannot bind code region: %zu bytes is not a multiple of "
                "the %u-byte instruction unit",
                Mem.Size, UnitBytes);
    Base = Mem.Host;
    Ip = Base;
    Limit = Base + Mem.Size;
    GuestBase = Mem.Guest;
    Unit = UnitBytes;
    Arena = Mem.Arena;
    Growth = Mem.Growth;
  }

  /// True once reset() has bound a region.
  bool isBound() const { return Base != nullptr; }

  /// Emits one instruction unit; the paper's "*v_ip++ = w". On a 4-byte
  /// target this is the classic word store; on a byte target it stores
  /// the low byte.
  void put(uint32_t W) {
    if (Ip == Limit)
      overflow(1);
    storeUnit(Ip, W);
    Ip += Unit;
  }

  /// Byte-granular emission for variable-length targets (requires a
  /// 1-byte unit). Little-endian, matching x86-64.
  void put8(uint8_t B) {
    assert(Unit == 1 && "byte emission needs a byte-unit buffer");
    if (Ip == Limit)
      overflow(1);
    *Ip++ = B;
  }
  void put16(uint16_t V) {
    assert(Unit == 1 && "byte emission needs a byte-unit buffer");
    ensureWords(2);
    std::memcpy(Ip, &V, 2);
    Ip += 2;
  }
  void put32(uint32_t V) {
    assert(Unit == 1 && "byte emission needs a byte-unit buffer");
    ensureWords(4);
    std::memcpy(Ip, &V, 4);
    Ip += 4;
  }
  void put64(uint64_t V) {
    assert(Unit == 1 && "byte emission needs a byte-unit buffer");
    ensureWords(8);
    std::memcpy(Ip, &V, 8);
    Ip += 8;
  }

  /// Checks up front that \p N units fit, so a multi-unit synthesis
  /// sequence reports overflow at instruction granularity instead of
  /// fataling halfway through with a partial sequence in the buffer.
  /// Backends call this once before fixed-length multi-unit sequences.
  void ensureWords(size_t N) {
    if (remainingWords() < N)
      overflow(N);
  }

  /// Emits \p N copies of unit \p W behind one capacity check (the
  /// prologue reservation's nops).
  void fill(uint32_t W, size_t N) {
    ensureWords(N);
    if (Unit == 1) {
      std::memset(Ip, int(uint8_t(W)), N);
      Ip += N;
      return;
    }
    for (size_t I = 0; I < N; ++I, Ip += Unit)
      storeUnit(Ip, W);
  }

  /// Current cursor as a function-relative unit index.
  uint32_t wordIndex() const { return uint32_t(Ip - Base) / Unit; }

  /// Bytes emitted so far.
  size_t usedBytes() const { return size_t(Ip - Base); }

  /// Simulated address of the next unit to be emitted.
  SimAddr cursorAddr() const { return GuestBase + SimAddr(Ip - Base); }

  /// Simulated address of unit \p Idx.
  SimAddr addrOfWord(uint32_t Idx) const {
    return GuestBase + SimAddr(Idx) * Unit;
  }

  /// Reads back an already-emitted unit (for backpatching). The bound is
  /// checked unconditionally: patch indices come from client-supplied
  /// fixups, so a bad one must be a reportable error, not release-mode UB.
  uint32_t read(uint32_t Idx) const {
    checkPatchIndex(Idx);
    uint32_t W = 0;
    std::memcpy(&W, Base + size_t(Idx) * Unit, Unit);
    return W;
  }

  /// Overwrites unit \p Idx (backpatching). Bound checked unconditionally;
  /// see read().
  void patch(uint32_t Idx, uint32_t W) {
    checkPatchIndex(Idx);
    storeUnit(Base + size_t(Idx) * Unit, W);
  }

  /// ORs bits into unit \p Idx (filling a displacement field).
  void patchOr(uint32_t Idx, uint32_t Bits) { patch(Idx, read(Idx) | Bits); }

  /// Overwrites the 4 bytes starting at unit \p Idx (little-endian), for
  /// rel32 fields on byte-unit targets.
  void patch32(uint32_t Idx, uint32_t V) {
    assert(Unit == 1 && "patch32 needs a byte-unit buffer");
    if (size_t(Idx) + 4 > usedBytes())
      fatalAt(CgErrKind::BadPatch, wordIndex(),
              "patch index %u out of range (only %u words emitted)", Idx,
              wordIndex());
    std::memcpy(Base + Idx, &V, 4);
  }

  /// Simulated address of the start of the region.
  SimAddr baseAddr() const { return GuestBase; }

  /// Host address of the start of the region (where the bytes actually
  /// live; identical to baseAddr() only for native arenas).
  const uint8_t *hostBase() const { return Base; }

  /// Number of units still available.
  size_t remainingWords() const { return size_t(Limit - Ip) / Unit; }

  /// Instruction unit in bytes (TargetInfo::CodeUnitBytes of the target
  /// this buffer was bound for).
  unsigned unitBytes() const { return Unit; }

private:
  void storeUnit(uint8_t *P, uint32_t W) {
    if (Unit == 4)
      std::memcpy(P, &W, 4); // the common RISC word store
    else if (Unit == 1)
      *P = uint8_t(W);
    else
      std::memcpy(P, &W, 2);
  }

  void checkPatchIndex(uint32_t Idx) const {
    if (Idx >= wordIndex())
      fatalAt(CgErrKind::BadPatch, wordIndex(),
              "patch index %u out of range (only %u words emitted)", Idx,
              wordIndex());
  }

  /// Cold path of every capacity check: makes room for \p Needed more
  /// units or throws. A growable region (CodeMem::Growth) asks its arena
  /// for max(2 x capacity, needed) bytes, capped at the record's Limit;
  /// a fixed region, a refusal or the cap reports BufferOverflow and the
  /// bytes needed. The advice names what the caller can do: pass a larger
  /// region (fixed), raise the cap (generateWithRetry gives up past it),
  /// or nothing (refused growth: generateWithRetry re-emits).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((cold, noinline))
#endif
  void overflow(size_t Needed) {
    size_t CapBytes = size_t(Limit - Base);
    size_t NeedBytes = usedBytes() + Needed * Unit;
    if (Growth && Arena) {
      size_t Max = Growth->Limit / Unit * Unit;
      size_t Want = std::min(std::max(2 * CapBytes, NeedBytes), Max);
      if (Want >= NeedBytes) {
        size_t Got = Arena->grow(GuestBase, CapBytes, Want);
        if (Got > CapBytes) {
          Limit = Base + Got;
          Growth->Size = Got;
        }
        if (Got >= NeedBytes)
          return;
      }
    }
    CgError E{CgErrKind::BufferOverflow, wordIndex(), NeedBytes, {}};
    char Cap[128];
    const char *Advice = "pass a larger region to v_lambda";
    if (Growth && NeedBytes > Growth->Limit) {
      std::snprintf(Cap, sizeof(Cap),
                    "%zu bytes exceed the region's growth cap of %zu "
                    "(GenerateOptions::MaxBytes)",
                    NeedBytes, Growth->Limit);
      Advice = Cap;
    } else if (Growth) {
      Advice = "generateWithRetry grows and retries";
    }
    std::snprintf(E.Detail, sizeof(E.Detail),
                  "code buffer overflow: instruction needs %zu word(s) but "
                  "only %zu of %zu remain; %s",
                  Needed, remainingWords(), size_t(Limit - Base) / Unit,
                  Advice);
    dispatchError(E);
  }

  uint8_t *Base = nullptr;
  uint8_t *Ip = nullptr;
  uint8_t *Limit = nullptr;
  SimAddr GuestBase = 0;
  unsigned Unit = 4;
  CodeArena *Arena = nullptr;
  RegionGrowth *Growth = nullptr;
};

} // namespace vcode

#endif // VCODE_CORE_CODEBUFFER_H
