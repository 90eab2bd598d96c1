//===- substrate/Substrate.cpp - Arena, backend and CPU by name ------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "substrate/Substrate.h"
#include "alpha/AlphaTarget.h"
#include "dbt/MipsTranslatingCpu.h"
#include "mips/MipsTarget.h"
#include "sim/AlphaSim.h"
#include "sim/MipsSim.h"
#include "sim/SparcSim.h"
#include "sparc/SparcTarget.h"
#include "support/Error.h"
#include "support/ToolFlags.h"
#include "x64/NativeCpu.h"
#include "x64/X64Target.h"
#include <cstring>

using namespace vcode;

namespace {

using CpuPtr = std::unique_ptr<sim::Cpu>;

/// One row per name: how to build the backend and how to make a CPU.
struct Kind {
  const char *Name;
  unsigned Bit;
  std::unique_ptr<Target> (*NewTarget)(sim::Memory &);
  CpuPtr (*NewCpu)(const Substrate &);
};

template <typename T> std::unique_ptr<Target> newTarget(sim::Memory &) {
  return std::make_unique<T>();
}
template <typename C> CpuPtr newCpu(const Substrate &S) {
  return std::make_unique<C>(*S.Mem);
}

const Kind Kinds[] = {
    {"mips", Substrate::Mips, newTarget<mips::MipsTarget>, newCpu<sim::MipsSim>},
    {"sparc", Substrate::Sparc, newTarget<sparc::SparcTarget>,
     newCpu<sim::SparcSim>},
    {"alpha", Substrate::Alpha,
     [](sim::Memory &M) -> std::unique_ptr<Target> {
       auto T = std::make_unique<alpha::AlphaTarget>();
       T->installDivHelpers(M.allocCode(16384));
       return T;
     },
     newCpu<sim::AlphaSim>},
    {"host", Substrate::Host, newTarget<x64::X64Target>,
     newCpu<x64::NativeCpu>},
    {"dbt", Substrate::Dbt, newTarget<mips::MipsTarget>,
     [](const Substrate &S) -> CpuPtr {
       return std::make_unique<dbt::MipsTranslatingCpu>(*S.Mem, S.Engine);
     }},
};

const Kind *findKind(const char *Name) {
  for (const Kind &K : Kinds)
    if (!std::strcmp(K.Name, Name))
      return &K;
  return nullptr;
}

/// The row for \p Name; dies on an unknown name, and on host anywhere
/// but x86-64.
const Kind &kindFor(const std::string &Name) {
  const Kind *K = findKind(Name.c_str());
  if (!K)
    fatal("unknown substrate '%s' (mips, sparc, alpha, host or dbt)",
          Name.c_str());
#ifndef __x86_64__
  if (K->Bit == Substrate::Host)
    fatal("substrate 'host' requires an x86-64 build machine");
#endif
  return *K;
}

} // namespace

CpuPtr Substrate::makeCpu() const { return findKind(Name)->NewCpu(*this); }

Substrate vcode::makeSubstrate(const std::string &Name) {
  if (kindFor(Name).Bit == Substrate::Host)
    return makeSubstrate(Name,
                         std::make_unique<sim::Memory>(sim::Memory::Native));
  return makeSubstrate(Name, std::make_unique<sim::Memory>());
}

Substrate vcode::makeSubstrate(const std::string &Name,
                               std::unique_ptr<sim::Memory> Arena) {
  const Kind *K = &kindFor(Name);
  if (Arena->isNative() != (K->Bit == Substrate::Host))
    fatal("substrate '%s' needs a %s arena", K->Name,
          Arena->isNative() ? "simulated" : "native");
  Substrate S;
  S.Name = K->Name;
  S.Mem = std::move(Arena);
  S.Tgt = K->NewTarget(*S.Mem);
  if (K->Bit == Substrate::Dbt)
    S.Engine = std::make_shared<dbt::TranslationEngine>(*S.Mem);
  S.Cpu = S.makeCpu();
  return S;
}

Substrate vcode::makeSubstrate(const tool::ToolOptions &Opts,
                               const char *Tool, unsigned Accepted) {
  const char *Name = Opts.TargetName ? Opts.TargetName : "mips";
  const Kind *K = findKind(Name);
  if (!K || !(K->Bit & Accepted)) {
    std::string List;
    unsigned Left = Accepted;
    for (const Kind &A : Kinds) {
      if (!(A.Bit & Left))
        continue;
      Left &= ~A.Bit;
      if (!List.empty())
        List += Left ? ", " : " or ";
      List += A.Name;
    }
    fatal("%s: --target=%s is not supported here (%s)", Tool, Name,
          List.c_str());
  }
  return makeSubstrate(Name);
}
