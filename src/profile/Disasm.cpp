//===- profile/Disasm.cpp - Per-target disassembler registry --------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "profile/Disasm.h"
#include "core/Tier.h"
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

namespace vcode {
namespace profile {

namespace {

struct Registry {
  std::mutex M;
  // Tiny and append-mostly: four targets. Linear scan beats a map.
  std::vector<std::pair<const char *, DisasmFn>> Fns;

  static Registry &get() {
    static Registry *R = new Registry(); // leaked: static-init callers
    return *R;
  }
};

bool undecodableText(const char *Text) {
  return std::strncmp(Text, ".word", 5) == 0 ||
         std::strncmp(Text, ".byte", 5) == 0;
}

} // namespace

bool registerDisassembler(const char *Target, DisasmFn Fn) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.M);
  for (auto &KV : R.Fns)
    if (std::strcmp(KV.first, Target) == 0) {
      KV.second = Fn;
      return true;
    }
  R.Fns.emplace_back(Target, Fn);
  return true;
}

DisasmFn findDisassembler(const char *Target) {
  Registry &R = Registry::get();
  std::lock_guard<std::mutex> L(R.M);
  for (auto &KV : R.Fns)
    if (std::strcmp(KV.first, Target) == 0)
      return KV.second;
  return nullptr;
}

DumpStats dumpEntry(const CodeEntry &E, std::string &Out) {
  DumpStats S;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "%s: target=%s tier=%s %llu bytes gen#%llu samples=%llu",
                E.Name.c_str(), E.Target, tierName(E.GenTier),
                (unsigned long long)E.Bytes,
                (unsigned long long)E.Generation,
                (unsigned long long)E.Samples.load(
                    std::memory_order_relaxed));
  Out += Line;
  if (E.GuestHi > E.GuestLo) {
    std::snprintf(Line, sizeof(Line), " guest=%llx-%llx",
                  (unsigned long long)E.GuestLo,
                  (unsigned long long)E.GuestHi);
    Out += Line;
  }
  Out += '\n';

  const uint8_t *P = nullptr;
  size_t N = 0;
  if (!E.Code.empty()) {
    P = E.Code.data();
    N = E.Code.size();
  } else if (E.Host) {
    P = reinterpret_cast<const uint8_t *>(E.Host);
    N = size_t(E.Bytes);
  }
  S.HaveBytes = P != nullptr;
  DisasmFn Fn = findDisassembler(E.Target);
  S.HaveDisasm = Fn != nullptr;
  if (!P) {
    Out += "  (no code bytes captured)\n";
    return S;
  }
  if (!Fn) {
    Out += "  (no disassembler registered for this target)\n";
    return S;
  }

  size_t Off = 0;
  while (Off < N) {
    std::string Text;
    size_t Len = Fn(P + Off, N - Off, E.Addr + Off, Text);
    if (Len == 0 || Len > N - Off) {
      // Undecodable gap: consume one unit (word targets emit 4-byte
      // units; x64 is byte-granular) and show the raw bytes.
      size_t Gap = (std::strcmp(E.Target, "x64") == 0) ? 1 : 4;
      if (Gap > N - Off)
        Gap = N - Off;
      Text.clear();
      char B[16];
      std::snprintf(B, sizeof(B), ".byte");
      Text += B;
      for (size_t K = 0; K < Gap; ++K) {
        std::snprintf(B, sizeof(B), " 0x%02x", P[Off + K]);
        Text += B;
      }
      Len = Gap;
      ++S.Undecodable;
    } else if (undecodableText(Text.c_str())) {
      ++S.Undecodable;
    } else {
      ++S.Instrs;
    }

    std::snprintf(Line, sizeof(Line), "  %8llx:  ",
                  (unsigned long long)(E.Addr + Off));
    Out += Line;
    // Up to 10 raw bytes, then the mnemonic column.
    std::string Hex;
    size_t Show = Len < 10 ? Len : 10;
    for (size_t K = 0; K < Show; ++K) {
      char B[8];
      std::snprintf(B, sizeof(B), "%02x ", P[Off + K]);
      Hex += B;
    }
    Hex.resize(31, ' ');
    Out += Hex;
    Out += Text;
    Out += '\n';
    Off += Len;
  }
  return S;
}

} // namespace profile
} // namespace vcode
