//===- dpf/DpfEngine.cpp - Dynamic Packet Filters ---------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
//
// DPF "exploits dynamic code generation in two ways: (1) by using it to
// eliminate interpretation overhead by compiling packet filters to
// executable code when they are installed ... and (2) by using filter
// constants to aggressively optimize this executable code" (paper §4.2).
//
// Installation merges the active filters into a decision trie and walks it
// emitting straight-line compare-immediate code: every offset, mask and
// comparison value is encoded directly in the instruction stream. Where
// many filters diverge on one field (the TCP port case), the dispatch is
// specialized from the runtime key set, "in a manner similar to how
// optimizing compilers treat C switch statements": a short compare chain,
// an indirect jump through a table for dense ranges, binary search for
// sparse sets, or a perfect hash selected at code-generation time — whose
// multiplier is encoded in the instruction stream, with no collision
// chains to check.
//
//===----------------------------------------------------------------------===//

#include "dpf/Engines.h"
#include "core/TierStream.h"
#include "core/VRegLayer.h"
#include "support/BitUtils.h"
#include <algorithm>

using namespace vcode;
using namespace vcode::dpf;

namespace {

/// Full mask for a field of Size bytes.
uint32_t fullMask(unsigned Size) {
  return Size >= 4 ? 0xffffffffu : ((1u << (8 * Size)) - 1);
}

/// Searches for a collision-free multiplicative hash of \p Keys into a
/// table of 2^Bits slots. Returns true and fills Mult on success.
bool findPerfectHash(const std::vector<uint32_t> &Keys, unsigned Bits,
                     uint32_t &Mult) {
  static const uint32_t Candidates[] = {0x9e3779b1u, 0x85ebca6bu, 0xc2b2ae35u,
                                        2654435761u, 0x7feb352du, 0x045d9f3bu,
                                        0x27220a95u, 0x51afd7edu};
  for (uint32_t M : Candidates) {
    std::vector<bool> Seen(size_t(1) << Bits, false);
    bool Ok = true;
    for (uint32_t K : Keys) {
      uint32_t H = (K * M) >> (32 - Bits);
      if (Seen[H]) {
        Ok = false;
        break;
      }
      Seen[H] = true;
    }
    if (Ok) {
      Mult = M;
      return true;
    }
  }
  return false;
}

} // namespace

/// The classifier emitter, instantiated per tier stream. St is a
/// DirectStream (Tier-0: pass-through, byte-identical to the historical
/// emission) or RecStream (Tier-1: records vreg IR for linear scan and
/// the optimizing replay).
template <typename S> struct DpfEngine::Em {
  using R = typename S::RegT;

  DpfEngine &E;
  S &St;

  void emitBinarySearch(std::vector<EdgeCase> &Cases, size_t Lo, size_t Hi,
                        R V0, Label Reject) {
    if (Hi - Lo <= 2) {
      for (size_t I = Lo; I <= Hi; ++I)
        St.bequi(V0, Cases[I].Value, Cases[I].Target);
      St.jmp(Reject);
      return;
    }
    size_t Mid = (Lo + Hi) / 2;
    St.bequi(V0, Cases[Mid].Value, Cases[Mid].Target);
    Label LLeft = St.genLabel();
    St.bltui(V0, Cases[Mid].Value, LLeft);
    if (Mid + 1 <= Hi)
      emitBinarySearch(Cases, Mid + 1, Hi, V0, Reject);
    else
      St.jmp(Reject);
    St.label(LLeft);
    if (Mid >= Lo + 1)
      emitBinarySearch(Cases, Lo, Mid - 1, V0, Reject);
    else
      St.jmp(Reject);
  }

  void emitDispatch(std::vector<EdgeCase> &Cases, R V0, R T0, Label Reject) {
    unsigned WB = E.Tgt.info().WordBytes;
    std::sort(Cases.begin(), Cases.end(),
              [](const EdgeCase &A, const EdgeCase &B) {
                return A.Value < B.Value;
              });
    size_t N = Cases.size();
    uint32_t LoV = Cases.front().Value, HiV = Cases.back().Value;
    uint64_t Range = uint64_t(HiV) - LoV + 1;
    bool Dense = Range <= 2 * N + 2;

    Dispatch D = E.Strategy;
    if (D == Dispatch::Auto) {
      if (N <= 3)
        D = Dispatch::Chain;
      else if (Dense)
        D = Dispatch::Table;
      else if (N >= 8)
        D = Dispatch::Hash;
      else
        D = Dispatch::Binary;
    }

    switch (D) {
    case Dispatch::Chain:
      E.Used = "chain";
      for (EdgeCase &C : Cases)
        St.bequi(V0, C.Value, C.Target);
      St.jmp(Reject);
      return;

    case Dispatch::Binary:
      E.Used = "binary";
      emitBinarySearch(Cases, 0, N - 1, V0, Reject);
      return;

    case Dispatch::Table: {
      E.Used = "table";
      if (Range > 4096) { // degenerate request; fall back
        emitBinarySearch(Cases, 0, N - 1, V0, Reject);
        return;
      }
      SimAddr Table = E.Mem.alloc(size_t(Range) * WB, 8);
      TablePatch TP;
      TP.TableAddr = Table;
      TP.Slots.assign(size_t(Range), Label()); // invalid -> reject
      for (EdgeCase &C : Cases)
        TP.Slots[C.Value - LoV] = C.Target;
      E.Tables.push_back(std::move(TP));

      R TPReg = St.temp(Type::P);
      if (!TPReg.isValid())
        fatalKind(CgErrKind::RegisterPressure,
                  "dpf: out of registers for table dispatch");
      St.subui(T0, V0, int64_t(LoV));
      St.bgtui(T0, int64_t(Range - 1), Reject);
      St.lshii(T0, T0, int64_t(log2Floor(WB)));
      St.setp(TPReg, Table);
      St.addp(TPReg, TPReg, T0);
      St.ldpi(TPReg, TPReg, 0);
      St.jmpr(TPReg);
      St.release(TPReg);
      return;
    }

    case Dispatch::Hash: {
      unsigned Bits = 1;
      while ((size_t(1) << Bits) < 2 * N)
        ++Bits;
      uint32_t Mult = 0;
      std::vector<uint32_t> Keys;
      for (EdgeCase &C : Cases)
        Keys.push_back(C.Value);
      if (!findPerfectHash(Keys, Bits, Mult)) {
        E.Used = "binary (no perfect hash)";
        emitBinarySearch(Cases, 0, N - 1, V0, Reject);
        return;
      }
      E.Used = "hash";
      size_t TSize = size_t(1) << Bits;
      SimAddr Table = E.Mem.alloc(TSize * WB, 8);
      TablePatch TP;
      TP.TableAddr = Table;
      TP.Slots.assign(TSize, Label());

      // Verification stubs: since keys are known at code-generation time,
      // each slot needs exactly one compare — there are no collision
      // chains.
      std::vector<Label> Stubs;
      for (EdgeCase &C : Cases) {
        uint32_t H = (C.Value * Mult) >> (32 - Bits);
        Label Stub = St.genLabel();
        TP.Slots[H] = Stub;
        Stubs.push_back(Stub);
      }
      E.Tables.push_back(std::move(TP));

      R TPReg = St.temp(Type::P);
      if (!TPReg.isValid())
        fatalKind(CgErrKind::RegisterPressure,
                  "dpf: out of registers for hash dispatch");
      // The chosen hash function is encoded directly in the instruction
      // stream (paper §4.2).
      St.mului(T0, V0, int64_t(Mult));
      St.rshui(T0, T0, int64_t(32 - Bits));
      St.lshii(T0, T0, int64_t(log2Floor(WB)));
      St.setp(TPReg, Table);
      St.addp(TPReg, TPReg, T0);
      St.ldpi(TPReg, TPReg, 0);
      St.jmpr(TPReg);
      St.release(TPReg);

      for (size_t I = 0; I < Cases.size(); ++I) {
        St.label(Stubs[I]);
        St.bneui(V0, Cases[I].Value, Reject);
        St.jmp(Cases[I].Target);
      }
      return;
    }

    case Dispatch::Auto:
      break;
    }
    unreachable("bad dispatch strategy");
  }

  void emitNode(const Trie &T, int NodeIdx, R Msg, R V0, R T0,
                Label Reject) {
    const Trie::Node &N = T.Nodes[NodeIdx];
    if (!N.HasField) {
      // Accept state: the id is a code-generation-time constant.
      St.seti(V0, N.AcceptId);
      St.reti(V0);
      return;
    }

    // Fully specialized field fetch: offset and width are encoded in the
    // instruction, not fetched from a description.
    switch (N.Size) {
    case 1:
      St.lduci(V0, Msg, N.Offset);
      break;
    case 2:
      St.ldusi(V0, Msg, N.Offset);
      break;
    default:
      St.ldui(V0, Msg, N.Offset);
      break;
    }
    if (N.Mask != fullMask(N.Size))
      St.andui(V0, V0, N.Mask);

    std::vector<EdgeCase> Cases;
    Cases.reserve(N.Edges.size());
    for (const auto &[Value, Child] : N.Edges)
      Cases.push_back(EdgeCase{Value, St.genLabel()});

    if (Cases.size() == 1) {
      // Single successor: a compare-immediate falls through to the child.
      St.bneui(V0, Cases[0].Value, Reject);
      St.label(Cases[0].Target);
      emitNode(T, N.Edges.begin()->second, Msg, V0, T0, Reject);
      return;
    }

    emitDispatch(Cases, V0, T0, Reject);
    size_t I = 0;
    for (const auto &[Value, Child] : N.Edges) {
      // Cases were sorted by value; map::iteration is sorted too.
      St.label(Cases[I].Target);
      emitNode(T, Child, Msg, V0, T0, Reject);
      ++I;
    }
  }
};

template <typename S>
Label DpfEngine::emitAll(S &St, const Trie &T, Reg MsgArg) {
  auto Msg = St.fromArg(Type::P, MsgArg);
  auto V0 = St.temp(Type::U);
  auto T0 = St.temp(Type::U);
  Label Reject = St.genLabel();
  Em<S> W{*this, St};
  W.emitNode(T, 0, Msg, V0, T0, Reject);
  St.label(Reject);
  St.seti(V0, -1);
  St.reti(V0);
  St.finish();
  return Reject;
}

CodePtr DpfEngine::emitInto(VCode &V, const Trie &T, CodeMem CM, Tier Tr) {
  Tables.clear();
  Used = "none";

  Reg Arg[1];
  V.lambda("%p", Arg, LeafHint, CM);
  Label Reject;
  if (Tr == Tier::Tier1) {
    VRegLayer L(V, Tier::Tier1);
    RecStream St(V, L);
    Reject = emitAll(St, T, Arg[0]);
  } else {
    DirectStream St(V);
    Reject = emitAll(St, T, Arg[0]);
  }
  CodePtr P = V.end();
  if (!P.isValid()) // recovery mode: poisoned attempt, tables untouched
    return P;

  // Fill the dispatch tables with the now-resolved code addresses.
  unsigned WB = Tgt.info().WordBytes;
  SimAddr RejectAddr = V.labelAddr(Reject);
  for (const TablePatch &TP : Tables) {
    for (size_t I = 0; I < TP.Slots.size(); ++I) {
      SimAddr A =
          TP.Slots[I].isValid() ? V.labelAddr(TP.Slots[I]) : RejectAddr;
      if (WB == 8)
        Mem.write<uint64_t>(TP.TableAddr + I * 8, A);
      else
        Mem.write<uint32_t>(TP.TableAddr + I * 4, uint32_t(A));
    }
  }
  return P;
}

void DpfEngine::install(const std::vector<Filter> &Filters) {
  CacheHandle = CodeCache::Handle(); // private install: unpin shared code
  SharedCache = nullptr;
  SharedKey.clear();
  SharedFilters.clear();
  Trie T = Trie::build(Filters);
  VCode V(Tgt);
  installWithRetry(
      V, [&](CodeMem CM, Tier Tr) { return emitInto(V, T, CM, Tr); },
      GenTier);
}

std::string DpfEngine::sharedCacheKey(const Target &T, Dispatch D,
                                      const std::vector<Filter> &Filters) {
  static const char *const DispatchNames[] = {"auto", "chain", "binary",
                                              "hash", "table"};
  // Deliberately tier-independent: promotion swaps code versions under
  // this same key rather than caching tiers side by side.
  std::string Key;
  Key.reserve(64);
  Key += "dpf|";
  Key += T.info().Name;
  Key += '|';
  Key += DispatchNames[size_t(D)];
  Key += '|';
  appendFilterSetKey(Key, Filters);
  return Key;
}

bool DpfEngine::installShared(CodeCache &Cache,
                              const std::vector<Filter> &Filters) {
  std::string Key = sharedCacheKey(Tgt, Strategy, Filters);

  unsigned MyAttempts = 0;
  size_t MyRegionBytes = 0;
  bool Generated = false;
  CodeCache::Handle H = Cache.lookupOrGenerate(
      Key, [&](CodeCache::RegionAlloc &Alloc) {
        Generated = true;
        Trie T = Trie::build(Filters);
        VCode V(Tgt);
        GenerateOptions Opts;
        Opts.InitialBytes = InitialCodeBytes;
        Opts.GenTier = GenTier;
        GenerateResult R = generateWithRetry(
            V, [&](size_t N) { return Alloc(N); },
            [&](CodeMem CM, Tier Tr) { return emitInto(V, T, CM, Tr); },
            Opts);
        MyAttempts = R.Attempts;
        MyRegionBytes = R.RegionBytes;
        return R;
      });
  if (!H.valid())
    fatalKind(H.error().Kind, "dpf: shared install failed: %s",
              H.error().Detail);
  CacheHandle = H;
  Code = H.code();
  Attempts = Generated ? MyAttempts : 0;
  RegionBytes = Generated ? MyRegionBytes : H.regionBytes();
  SharedCache = &Cache;
  SharedKey = std::move(Key);
  SharedFilters = Filters;
  VCODE_TM_COUNT("dpf.installs_shared", 1);
  return !Generated;
}

bool DpfEngine::promoteShared() {
  if (!SharedCache || SharedKey.empty())
    return false;
  bool Swapped =
      SharedCache->promote(SharedKey, [&](CodeCache::RegionAlloc &Alloc) {
        Trie T = Trie::build(SharedFilters);
        VCode V(Tgt);
        GenerateOptions Opts;
        Opts.InitialBytes = InitialCodeBytes;
        Opts.GenTier = Tier::Tier1;
        return generateWithRetry(
            V, [&](size_t N) { return Alloc(N); },
            [&](CodeMem CM, Tier Tr) { return emitInto(V, T, CM, Tr); },
            Opts);
      });
  if (Swapped)
    VCODE_TM_COUNT("dpf.promotions", 1);
  return Swapped;
}

int DpfEngine::classify(sim::Cpu &Cpu, SimAddr Msg) {
  // Shared classifiers dispatch through the cache handle: a promoted
  // (final) version runs unpinned; before that, a pinned version keeps
  // its region alive across a concurrent promotion's swap.
  if (SharedCache && CacheHandle.valid()) {
    countDispatch();
    return CacheHandle.dispatch(
        HotThreshold, [&] { return promoteShared(); },
        [&](const CodeCache::Version &V) {
          return Cpu.call(V.Code.Entry, {sim::TypedValue::fromPtr(Msg)},
                          Type::I)
              .asInt32();
        });
  }
  return Engine::classify(Cpu, Msg);
}
