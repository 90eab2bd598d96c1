//===- perfbench/bench/Codegen.cpp - The codegen workload -----------------===//
//
// One thread, closed loop, generation-bound. A seeded corpus of compile
// requests is compiled over and over:
//
//  - most are random legal VCODE streams, log-uniform from 32 to 4096
//    stream instructions, emitted through VCodeT<Target> on mips, sparc,
//    alpha and x64 (small ones make the per-function lifecycle dominate,
//    large ones per-instruction emission);
//  - fixed shares go through the virtual VCode facade and through the
//    Tier-1 vreg layer;
//  - the rest are ten-filter DpfEngine::install calls and tcc-lite
//    compiles on mips.
//
// Only the compile is timed. Every result is checked outside the timed
// span: the first compile of each stream is run on its target (a simulator
// or the host CPU) against host evaluation, and every later compile of it
// must reproduce the same bytes; every DPF classifier is run against the
// reference trie and the flows' ground truth, and every tcc function
// against host evaluation of its program.
//
//===----------------------------------------------------------------------===//

#include "Fixtures.h"
#include "Oracle.h"
#include "Trace.h"
#include "alpha/AlphaTarget.h"
#include "core/Generate.h"
#include "core/VCodeT.h"
#include "core/VRegLayer.h"
#include "dpf/Engines.h"
#include "mips/MipsTarget.h"
#include "profile/CodeMap.h"
#include "sim/AlphaSim.h"
#include "sim/MipsSim.h"
#include "sim/SparcSim.h"
#include "sparc/SparcTarget.h"
#include "tcc/Tcc.h"
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

using namespace vcode;

namespace perfbench {
namespace {

constexpr unsigned CorpusSize = 2000;
constexpr unsigned MinStream = 32, MaxStream = 4096;
constexpr size_t InitialRegionBytes = 16384;

enum class Kind : uint8_t { Static, Virtual, Tier1, Dpf, Tcc };
enum class Tg : uint8_t { Mips, Sparc, Alpha, X64, NumTargets };

struct Request {
  Kind K = Kind::Static;
  Tg T = Tg::Mips;
  Stream S;
  unsigned VcodeInsns = 0;
  std::vector<dpf::Filter> Filters;
  uint16_t BasePort = 0;
  uint32_t DstIp = 0;
  TccProgram Prog;
  // Set by the first compile: later compiles must reproduce these bytes.
  bool Checked = false;
  uint64_t CodeHash = 0;
};

unsigned wordBytes(Tg T) { return T == Tg::Mips || T == Tg::Sparc ? 4 : 8; }

/// \p N log-uniform sizes in [Lo, Hi], one from each of N equal strata in
/// a seeded order: the contents vary with the seed, the size mix does not,
/// so timings compare across seeds.
std::vector<unsigned> stratifiedSizes(Rng &R, unsigned N, unsigned Lo,
                                      unsigned Hi) {
  std::vector<unsigned> S(N);
  double L = std::log(double(Lo)), H = std::log(double(Hi) + 1);
  for (unsigned I = 0; I < N; ++I)
    S[I] = std::clamp(
        unsigned(std::exp(L + (I + R.unit()) / N * (H - L))), Lo, Hi);
  for (unsigned I = N; I > 1; --I)
    std::swap(S[I - 1], S[R.below(I)]);
  return S;
}

std::vector<Request> makeCorpus(uint64_t Seed) {
  Rng R(subSeed(Seed, 0xc0de));
  // Exact shares: 60% VCodeT streams, 10% virtual facade, 10% Tier-1,
  // 10% DPF installs, 10% tcc compiles; streams spread evenly over the
  // four targets and their types.
  static const Kind Shares[] = {Kind::Static,  Kind::Static, Kind::Static,
                                Kind::Static,  Kind::Static, Kind::Static,
                                Kind::Virtual, Kind::Tier1,  Kind::Dpf,
                                Kind::Tcc};
  constexpr unsigned PerShare = CorpusSize / 10;
  std::vector<Request> C;
  C.reserve(CorpusSize);
  for (Kind K : {Kind::Static, Kind::Virtual, Kind::Tier1, Kind::Dpf,
                 Kind::Tcc}) {
    unsigned N = PerShare * unsigned(std::count(std::begin(Shares),
                                                std::end(Shares), K));
    bool Stream = K == Kind::Static || K == Kind::Virtual || K == Kind::Tier1;
    // Streams: one size stratification per target. Programs: one in all.
    const unsigned Groups = Stream ? unsigned(Tg::NumTargets) : 1;
    std::vector<unsigned> Size;
    for (unsigned G = 0; G < Groups; ++G) {
      std::vector<unsigned> S =
          Stream ? stratifiedSizes(R, N / Groups, MinStream, MaxStream)
                 : stratifiedSizes(R, N, 2, 40);
      Size.insert(Size.end(), S.begin(), S.end());
    }
    for (unsigned I = 0; I < N; ++I) {
      Request Q;
      Q.K = K;
      if (K == Kind::Dpf) {
        Q.BasePort = uint16_t(1024 + R.below(60000));
        Q.DstIp = uint32_t(R.next());
        Q.Filters = dpf::makeTcpIpFilters(FlowsPerSet, Q.BasePort, Q.DstIp);
      } else if (K == Kind::Tcc) {
        Q.Prog = makeTccProgram(R, Size[I]);
      } else {
        static const Type Any[] = {Type::I, Type::U, Type::L, Type::UL};
        static const Type Word[] = {Type::L, Type::UL};
        bool T1 = K == Kind::Tier1;
        Q.T = Tg(I / (N / Groups));
        Type Ty = T1 ? Word[I % 2] : Any[I % 4];
        Q.S = makeStream(R, Ty, Size[I], wordBytes(Q.T), /*AllowCvt=*/!T1);
        Q.VcodeInsns = streamVcodeInsns(Q.S, T1);
      }
      C.push_back(std::move(Q));
    }
  }
  for (size_t I = C.size(); I > 1; --I)
    std::swap(C[I - 1], C[R.below(I)]);
  return C;
}

uint64_t hashBytes(const uint8_t *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ull;
  return H;
}

/// The regular stream emitter, over VCodeT<T> (static dispatch) or VCode
/// (the virtual facade).
template <class VT>
CodePtr emitStream(VT &V, const Stream &S, CodeMem CM, SimAddr Scratch,
                   SimAddr Out, SpanName EmitSpan) {
  Reg Arg[StreamSlots];
  {
    Scope Sp(SpanName::Lambda);
    V.lambda("%U%U%U%U", Arg, LeafHint, CM);
  }
  {
    Scope Sp(EmitSpan);
    const Type Ty = S.Ty;
    Reg *Sl = Arg;
    for (unsigned I = 0; I < StreamSlots; ++I)
      V.cvt(Type::UL, Ty, Sl[I], Sl[I]);
    Reg Ptr = V.getreg(Type::P);
    Reg Tmp = V.getreg(Type::UL);
    if (!Ptr.isValid() || !Tmp.isValid())
      return CodePtr{};
    V.setp(Ptr, Scratch);
    unsigned PendingAt = ~0u;
    Label Pending;
    for (unsigned I = 0; I < S.Insns.size(); ++I) {
      if (PendingAt == I) {
        V.label(Pending);
        PendingAt = ~0u;
      }
      const StreamInsn &N = S.Insns[I];
      switch (N.Kind) {
      case StreamInsn::Bin:
        V.binop(N.Bop, Ty, Sl[N.D], Sl[N.A], Sl[N.B]);
        break;
      case StreamInsn::BinImm:
        V.binopImm(N.Bop, Ty, Sl[N.D], Sl[N.A], N.Imm);
        break;
      case StreamInsn::Un:
        V.unop(N.Uop, Ty, Sl[N.D], Sl[N.A]);
        break;
      case StreamInsn::Set:
        V.setInt(Ty, Sl[N.D], uint64_t(N.Imm));
        break;
      case StreamInsn::CmpSet: {
        Label LT = V.genLabel(), LE = V.genLabel();
        V.branch(N.C, Ty, Sl[N.A], Sl[N.B], LT);
        V.setInt(Ty, Sl[N.D], 0);
        V.jmp(LE);
        V.label(LT);
        V.setInt(Ty, Sl[N.D], 1);
        V.label(LE);
        break;
      }
      case StreamInsn::Load:
        V.loadImm(Ty, Sl[N.D], Ptr, 8 * N.Cell);
        break;
      case StreamInsn::Store:
        V.storeImm(Ty, Sl[N.A], Ptr, 8 * N.Cell);
        break;
      case StreamInsn::Cvt:
        V.cvt(Ty, N.Ty2, Tmp, Sl[N.A]);
        V.cvt(N.Ty2, Ty, Sl[N.D], Tmp);
        break;
      case StreamInsn::Guard:
        Pending = V.genLabel();
        PendingAt = I + 1 + N.Skip;
        V.branch(N.C, Ty, Sl[N.A], Sl[N.B], Pending);
        break;
      }
    }
    if (PendingAt != ~0u)
      V.label(Pending);
    V.setp(Ptr, Out);
    for (unsigned I = 0; I < StreamSlots; ++I) {
      V.cvt(Ty, Type::UL, Sl[I], Sl[I]);
      V.stuli(Sl[I], Ptr, 8 * I);
    }
    V.retv();
  }
  Scope Sp(SpanName::End);
  return V.end();
}

/// The same stream through the Tier-1 vreg layer (record, linear-scan
/// allocation, optimizing replay). No conversions: the layer has none.
CodePtr emitStreamTier1(VCode &V, const Stream &S, CodeMem CM, SimAddr Scratch,
                        SimAddr Out) {
  Reg Arg[StreamSlots];
  {
    Scope Sp(SpanName::Lambda);
    V.lambda("%U%U%U%U", Arg, LeafHint, CM);
  }
  {
    Scope Sp(SpanName::EmitTier1);
    const Type Ty = S.Ty;
    VRegLayer L(V, Tier::Tier1);
    VReg Sl[StreamSlots];
    for (unsigned I = 0; I < StreamSlots; ++I)
      Sl[I] = L.fromArg(Ty, Arg[I]);
    VReg Ptr = L.alloc(Type::P);
    L.setInt(Type::P, Ptr, Scratch);
    unsigned PendingAt = ~0u;
    Label Pending;
    for (unsigned I = 0; I < S.Insns.size(); ++I) {
      if (PendingAt == I) {
        L.label(Pending);
        PendingAt = ~0u;
      }
      const StreamInsn &N = S.Insns[I];
      switch (N.Kind) {
      case StreamInsn::Bin:
        L.binop(N.Bop, Ty, Sl[N.D], Sl[N.A], Sl[N.B]);
        break;
      case StreamInsn::BinImm:
        L.binopImm(N.Bop, Ty, Sl[N.D], Sl[N.A], N.Imm);
        break;
      case StreamInsn::Un:
        L.unop(N.Uop, Ty, Sl[N.D], Sl[N.A]);
        break;
      case StreamInsn::Set:
        L.setInt(Ty, Sl[N.D], uint64_t(N.Imm));
        break;
      case StreamInsn::CmpSet: {
        Label LT = V.genLabel(), LE = V.genLabel();
        L.branch(N.C, Ty, Sl[N.A], Sl[N.B], LT);
        L.setInt(Ty, Sl[N.D], 0);
        L.jmp(LE);
        L.label(LT);
        L.setInt(Ty, Sl[N.D], 1);
        L.label(LE);
        break;
      }
      case StreamInsn::Load:
        L.load(Ty, Sl[N.D], Ptr, 8 * N.Cell);
        break;
      case StreamInsn::Store:
        L.store(Ty, Sl[N.A], Ptr, 8 * N.Cell);
        break;
      case StreamInsn::Cvt:
        return CodePtr{}; // never drawn for Tier-1 streams
      case StreamInsn::Guard:
        Pending = V.genLabel();
        PendingAt = I + 1 + N.Skip;
        L.branch(N.C, Ty, Sl[N.A], Sl[N.B], Pending);
        break;
      }
    }
    if (PendingAt != ~0u)
      L.label(Pending);
    L.setInt(Type::P, Ptr, Out);
    for (unsigned I = 0; I < StreamSlots; ++I)
      L.store(Ty, Sl[I], Ptr, 8 * I);
    L.ret(Ty, Sl[0]);
    L.finish();
  }
  Scope Sp(SpanName::End);
  return V.end();
}

/// Everything the codegen workload generates into and runs on.
struct Fixture {
  sim::Memory SimMem{16 << 20};
  mips::MipsTarget Mips;
  sparc::SparcTarget Sparc;
  alpha::AlphaTarget Alpha;
  sim::MipsSim MipsCpu{SimMem};
  sim::SparcSim SparcCpu{SimMem};
  sim::AlphaSim AlphaCpu{SimMem};
  SimAddr SimScratch = 0, SimOut = 0, SimPkt = 0;
  sim::Memory NatMem{sim::Memory::Native, 16 << 20, 256 << 10};
  x64::X64Target X64;
  x64::NativeCpu NatCpu{NatMem};
  SimAddr NatScratch = 0, NatOut = 0;

  Fixture() {
    Alpha.installDivHelpers(SimMem.allocCode(16384));
    SimScratch = SimMem.alloc(8 * ScratchCells, 8);
    SimOut = SimMem.alloc(8 * StreamSlots, 8);
    SimPkt = SimMem.alloc(dpf::pkt::HeaderBytes, 8);
    NatScratch = NatMem.alloc(8 * ScratchCells, 8);
    NatOut = NatMem.alloc(8 * StreamSlots, 8);
  }
};

/// Per-phase tallies.
struct Tally {
  std::vector<double> LatUs;        ///< every compile request, scaled
  std::vector<double> PassRate;     ///< stream insns / scaled s, per pass
  uint64_t InsnsBySpan[size_t(SpanName::NumNames)] = {};
  uint64_t StreamReqs = 0, Attempts = 0;
  uint64_t SimGuestInsns = 0;       ///< MipsSim instrs in tcc checks
  uint64_t SimCallTicks = 0;        ///< host time of those calls
  uint64_t DpfMsgs = 0;
  sim::RunStats DpfRun;             ///< MipsSim stats of DPF checks
  double DpfBytes = 0;
  uint64_t Dpfs = 0;
  uint64_t HighWater = 0;
};

class Runner {
public:
  Runner(std::vector<Request> &Corpus, Fixture &F, Report &R)
      : Corpus(Corpus), F(F), R(R) {}

  /// Compiles corpus requests until \p Seconds have passed.
  void run(double Seconds, Tally &T) {
    reserveSamples(T.LatUs, Seconds);
    uint64_t Stop = ticks() + nsToTicks(Seconds * 1e9);
    uint64_t PassInsns = 0;
    double PassSec = 0; // scaled
    bool WholePass = Next == 0;
    while (ticks() < Stop) {
      Request &Q = Corpus[Next];
      probeIfDue();
      uint64_t Dt = compileAndCheck(Q, T);
      if (Q.K == Kind::Static || Q.K == Kind::Virtual || Q.K == Kind::Tier1) {
        PassInsns += Q.VcodeInsns;
        PassSec += ticksToSec(Dt) * hostFactor();
      }
      if (++Next == Corpus.size()) {
        Next = 0;
        if (WholePass && PassSec > 0)
          T.PassRate.push_back(double(PassInsns) / PassSec);
        PassInsns = 0;
        PassSec = 0;
        WholePass = true;
      }
    }
    if (T.PassRate.empty() && PassSec > 0) // too short for one whole pass
      T.PassRate.push_back(double(PassInsns) / PassSec);
  }

  /// Code bytes per VCODE instruction over the whole corpus (set by the
  /// first pass; deterministic).
  double codeBytesPerInsn() const {
    return FirstPassInsns ? double(FirstPassBytes) / double(FirstPassInsns)
                          : 0;
  }

private:
  /// Compiles \p Q once (timed), checks it (untimed); returns the compile
  /// time in ticks.
  uint64_t compileAndCheck(Request &Q, Tally &T) {
    ++ReqId;
    switch (Q.K) {
    case Kind::Dpf:
      return compileDpf(Q, T);
    case Kind::Tcc:
      return compileTcc(Q, T);
    default:
      break;
    }
    switch (Q.T) {
    case Tg::Mips:
      return compileStream(Q, T, F.Mips, F.SimMem, F.MipsCpu, F.SimScratch,
                           F.SimOut, SpanName::EmitMips);
    case Tg::Sparc:
      return compileStream(Q, T, F.Sparc, F.SimMem, F.SparcCpu, F.SimScratch,
                           F.SimOut, SpanName::EmitSparc);
    case Tg::Alpha:
      return compileStream(Q, T, F.Alpha, F.SimMem, F.AlphaCpu, F.SimScratch,
                           F.SimOut, SpanName::EmitAlpha);
    default:
      return compileStream(Q, T, F.X64, F.NatMem, F.NatCpu, F.NatScratch,
                           F.NatOut, SpanName::EmitX64);
    }
  }

  template <class TargetT>
  uint64_t compileStream(Request &Q, Tally &T, TargetT &Tgt, sim::Memory &Mem,
                         sim::Cpu &Cpu, SimAddr Scratch, SimAddr Out,
                         SpanName EmitSpan) {
    SimAddr Mark = Mem.mark();
    SimAddr Region = 0;
    auto Alloc = [&](size_t N) {
      Mem.release(Mark);
      Scope Sp(SpanName::AllocCode);
      CodeMem CM = Mem.allocCode(N);
      Region = CM.Guest;
      return CM;
    };
    GenerateOptions Opts;
    Opts.InitialBytes = InitialRegionBytes;
    SpanName Emit = Q.K == Kind::Virtual ? SpanName::EmitVirtual
                    : Q.K == Kind::Tier1 ? SpanName::EmitTier1
                                         : EmitSpan;
    uint64_t T0 = ticks();
    GenerateResult G;
    {
      Scope Req(SpanName::Request, ReqId);
      VCodeT<TargetT> V(Tgt);
      if (Q.K == Kind::Static) {
        G = generateWithRetry(
            V, Alloc,
            [&](CodeMem CM) {
              return emitStream(V, Q.S, CM, Scratch, Out, Emit);
            },
            Opts);
      } else if (Q.K == Kind::Virtual) {
        VCode &VF = V; // the virtual facade: every emit dispatches
        G = generateWithRetry(
            VF, Alloc,
            [&](CodeMem CM) {
              return emitStream(VF, Q.S, CM, Scratch, Out, Emit);
            },
            Opts);
      } else {
        G = generateWithRetry(
            V, Alloc,
            [&](CodeMem CM) {
              return emitStreamTier1(V, Q.S, CM, Scratch, Out);
            },
            Opts);
      }
    }
    uint64_t Dt = ticks() - T0;
    T.LatUs.push_back(ticksToUs(Dt) * hostFactor());
    T.InsnsBySpan[size_t(Emit)] += Q.VcodeInsns;
    ++T.StreamReqs;
    T.Attempts += G.Attempts;
    T.HighWater = std::max<uint64_t>(T.HighWater, Mem.mark() - Mem.base());

    {
      Scope Ck(SpanName::Check, ReqId);
      R.attempt(1);
      if (!G.ok()) {
        R.fail(1, "stream generation failed");
      } else {
        uint64_t H = hashBytes(Mem.hostPtr(Region, G.Code.SizeBytes),
                               G.Code.SizeBytes);
        if (!Q.Checked) {
          if (!runStream(Q, Mem, Cpu, G.Code, Scratch, Out, Tgt.info()))
            R.fail(1, "stream result differs from host evaluation");
          Q.Checked = true;
          Q.CodeHash = H;
          FirstPassBytes += G.Code.SizeBytes;
          FirstPassInsns += Q.VcodeInsns;
        } else if (H != Q.CodeHash) {
          R.fail(1, "recompiled stream differs from its first compile");
        }
      }
    }
    Mem.release(Mark);
    return Dt;
  }

  bool runStream(const Request &Q, sim::Memory &Mem, sim::Cpu &Cpu,
                 CodePtr Code, SimAddr Scratch, SimAddr Out,
                 const TargetInfo &TI) {
    const unsigned WB = TI.WordBytes;
    for (unsigned I = 0; I < ScratchCells; ++I)
      Mem.write<uint64_t>(Scratch + 8 * I, 0);
    for (unsigned I = 0; I < StreamSlots; ++I)
      Mem.write<uint64_t>(Out + 8 * I, 0);
    const Stream &S = Q.S;
    const bool T1 = Q.K == Kind::Tier1;
    {
      Scope Sp(SpanName::CpuCall, ReqId);
      Cpu.call(Code.Entry,
               {sim::TypedValue::fromUInt(S.Init[0], Type::UL),
                sim::TypedValue::fromUInt(S.Init[1], Type::UL),
                sim::TypedValue::fromUInt(S.Init[2], Type::UL),
                sim::TypedValue::fromUInt(S.Init[3], Type::UL)},
               T1 ? S.Ty : Type::V);
    }
    StreamResult Want = evalStream(S, WB);
    const uint64_t WordMask = WB == 8 ? ~uint64_t(0) : 0xffffffffull;
    for (unsigned I = 0; I < StreamSlots; ++I) {
      uint64_t Got = Mem.read<uint64_t>(Out + 8 * I) & WordMask;
      uint64_t W = T1 ? Want.Slot[I] & WordMask
                      : canonical(Type::UL, Want.Slot[I], WB) & WordMask;
      if (!T1 && S.Ty == Type::U && WB == 8)
        W &= 0xffffffffull; // U -> UL zero-extends
      if (Got != W)
        return false;
    }
    const bool Wide = typeSize(S.Ty, WB) == 8;
    for (unsigned I = 0; I < ScratchCells; ++I) {
      uint64_t Got = Wide ? Mem.read<uint64_t>(Scratch + 8 * I)
                          : Mem.read<uint32_t>(Scratch + 8 * I);
      uint64_t W = Wide ? Want.Scratch[I] : uint32_t(Want.Scratch[I]);
      if (Got != W)
        return false;
    }
    return true;
  }

  uint64_t compileDpf(Request &Q, Tally &T) {
    SimAddr Mark = F.SimMem.mark();
    uint64_t Dt;
    {
      dpf::DpfEngine E(F.Mips, F.SimMem);
      E.setTier(Tier::Tier0);
      uint64_t T0 = ticks();
      {
        Scope Sp(SpanName::DpfInstall, ReqId);
        E.install(Q.Filters);
      }
      Dt = ticks() - T0;
      T.LatUs.push_back(ticksToUs(Dt) * hostFactor());
      T.DpfBytes += double(E.codeBytes());
      ++T.Dpfs;
      T.HighWater = std::max<uint64_t>(T.HighWater,
                                       F.SimMem.mark() - F.SimMem.base());

      Scope Ck(SpanName::Check, ReqId);
      dpf::Trie Ref = dpf::Trie::build(Q.Filters);
      R.attempt(1);
      bool Ok = true;
      for (unsigned Flow = 0; Flow <= FlowsPerSet; ++Flow) {
        dpf::writeTcpPacket(F.SimMem, F.SimPkt, uint16_t(Q.BasePort + Flow),
                            Q.DstIp);
        int Got;
        {
          Scope Sp(SpanName::Classify, ReqId);
          Got = E.classify(F.MipsCpu, F.SimPkt);
        }
        T.DpfRun.accumulate(F.MipsCpu.lastStats());
        ++T.DpfMsgs;
        int Trie;
        {
          Scope Sp(SpanName::TrieClassify, ReqId);
          Trie = Ref.classify(F.SimMem, F.SimPkt);
        }
        int Want = Flow < FlowsPerSet ? int(Flow) : -1;
        Ok = Ok && Got == Want && Trie == Want;
      }
      if (!Ok)
        R.fail(1, "DPF verdict differs from ground truth or the trie");
    }
    F.SimMem.release(Mark);
    return Dt;
  }

  uint64_t compileTcc(Request &Q, Tally &T) {
    SimAddr Mark = F.SimMem.mark();
    uint64_t Dt;
    {
      tcc::Tcc C(F.Mips, F.SimMem);
      C.setTier(Tier::Tier0);
      uint64_t T0 = ticks();
      {
        Scope Sp(SpanName::TccCompile, ReqId);
        C.compile(Q.Prog.Source);
      }
      Dt = ticks() - T0;
      T.LatUs.push_back(ticksToUs(Dt) * hostFactor());
      T.HighWater = std::max<uint64_t>(T.HighWater,
                                       F.SimMem.mark() - F.SimMem.base());

      Scope Ck(SpanName::Check, ReqId);
      R.attempt(1);
      uint64_t C0 = ticks();
      int32_t Got;
      {
        Scope Sp(SpanName::CpuCall, ReqId);
        Got = C.run(F.MipsCpu, "f",
                    {Q.Prog.Args[0], Q.Prog.Args[1], Q.Prog.Args[2]});
      }
      T.SimCallTicks += ticks() - C0;
      T.SimGuestInsns += F.MipsCpu.lastStats().Instrs;
      if (Got != Q.Prog.Expected)
        R.fail(1, "tcc result differs from host evaluation");
    }
    F.SimMem.release(Mark);
    return Dt;
  }

  std::vector<Request> &Corpus;
  Fixture &F;
  Report &R;
  size_t Next = 0;
  uint64_t ReqId = 0;
  uint64_t FirstPassBytes = 0, FirstPassInsns = 0;
};

} // namespace

void runCodegen(const RunConfig &C, Report &R) {
  std::vector<Request> Corpus = makeCorpus(C.Seed);
  std::unique_ptr<Fixture> F;
  Summary Setup =
      timedSetup(F, [] { return std::make_unique<Fixture>(); });

  Runner Run(Corpus, *F, R);
  double Share = untracedShare(C);
  Tally Ref, Main;
  if (Share > 0) {
    trace::setEnabled(false);
    Run.run(C.Seconds * Share, Ref);
    trace::reset();
    trace::setEnabled(true);
  }
  Run.run(C.Seconds * (1 - Share), Main);
  trace::setEnabled(false);

  // Sustained values first: summarize() sorts the latencies.
  double GenRate = sustainedRate(Main.PassRate);
  double P50 = sustainedLatency(Main.LatUs);
  Summary Lat = summarize(Main.LatUs);
  R.note("compile_p50_us (sustained)", P50, "us", Lat.N);
  R.noteSummary("compile_p50_us (whole run)", Lat, "us");
  R.note("compile_p99_us", Lat.P99, "us", Lat.N);
  R.note("gen_minsn_per_s (sustained over passes)", GenRate / 1e6, "Minsn/s",
         Main.PassRate.size());
  R.note("code_bytes_per_insn", Run.codeBytesPerInsn(), "bytes");
  R.noteSummary("setup_s", Setup, "s");
  R.note("peak_rss_mb", peakRssMb(), "MiB");
  R.e2e("setup_s", Setup.P50);
  R.e2e("p50_us", P50);
  R.e2e("throughput_per_s", GenRate);
  R.e2e("peak_rss_mb", peakRssMb());

  if (!C.Trace)
    return;
  auto perInsn = [&](SpanName N) {
    return ratio(ticksToNs(trace::totals(N).Total),
                 double(Main.InsnsBySpan[size_t(N)]));
  };
  auto meanNs = [](SpanName N) {
    LayerTotals T = trace::totals(N);
    return ratio(ticksToNs(T.Total), double(T.Count));
  };
  R.layer("mips.emit_ns_per_insn", perInsn(SpanName::EmitMips));
  R.layer("sparc.emit_ns_per_insn", perInsn(SpanName::EmitSparc));
  R.layer("alpha.emit_ns_per_insn", perInsn(SpanName::EmitAlpha));
  R.layer("x64.emit_ns_per_insn", perInsn(SpanName::EmitX64));
  R.layer("core.virtual_emit_ns_per_insn", perInsn(SpanName::EmitVirtual));
  R.layer("core.tier1_ns_per_insn", perInsn(SpanName::EmitTier1));
  R.layer("core.lambda_ns", meanNs(SpanName::Lambda));
  R.layer("core.end_ns", meanNs(SpanName::End));
  R.layer("sim.alloc_code_ns", meanNs(SpanName::AllocCode));
  R.layer("core.retry_ratio",
          ratio(double(Main.Attempts), double(Main.StreamReqs)));
  LayerTotals Req = trace::totals(SpanName::Request);
  R.layer("core.lifecycle_unattributed_ratio",
          ratio(double(Req.Self), double(Req.Total)));
  R.layer("dpf.install_us", meanNs(SpanName::DpfInstall) / 1e3);
  R.layer("dpf.code_bytes", ratio(Main.DpfBytes, double(Main.Dpfs)));
  R.layer("tcc.compile_us", meanNs(SpanName::TccCompile) / 1e3);
  R.layer("sim.ns_per_guest_insn",
          ratio(ticksToNs(Main.SimCallTicks), double(Main.SimGuestInsns)));
  double Msgs = double(Main.DpfMsgs);
  R.layer("sim.cycles_per_msg", ratio(double(Main.DpfRun.Cycles), Msgs));
  R.layer("sim.insns_per_msg", ratio(double(Main.DpfRun.Instrs), Msgs));
  R.layer("sim.icache_misses_per_msg",
          ratio(double(Main.DpfRun.ICacheMisses), Msgs));
  R.layer("sim.dcache_misses_per_msg",
          ratio(double(Main.DpfRun.DCacheMisses), Msgs));
  R.layer("x64.call_ns", x64CallProbeNs());
  R.layer("dpf.trie_ns_per_msg", meanNs(SpanName::TrieClassify));
  R.layer("sim.arena_high_water_bytes", double(Main.HighWater));
  profile::CodeMap::Stats CM = profile::CodeMap::instance().stats();
  R.layer("profile.codemap_live_entries",
          double(CM.Published) - double(CM.Removed));
  R.layer("bench.trace_overhead_ratio",
          ratio(sustainedRate(Ref.PassRate), GenRate) - 1);
  R.layer("codegen.gen_minsn_per_s", sustainedRate(Ref.PassRate) / 1e6);
  R.layer("codegen.code_bytes_per_insn", Run.codeBytesPerInsn());
  R.layer("codegen.compile_p99_us", Lat.P99);
}

} // namespace perfbench
