//===- examples/code_cache.cpp - Compiled-code caching service -------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
// Dynamic code generation as a shared service: when several threads
// install packet filters (or compile tcc functions), a CodeCache makes
// generation exactly-once per distinct input and lets everything else be
// a lock-cheap cache hit. This example shows the two client integrations
// plus the counters that make the behavior observable:
//
//  - DpfEngine::installShared — the first engine to install a filter set
//    compiles it; every later engine (any thread) reuses the classifier.
//  - Tcc::compileShared — same idea for compiled functions.
//
// See the "Threading model" section of README.md for the full contract.
//
//===----------------------------------------------------------------------===//

#include "core/CodeCache.h"
#include "dpf/Engines.h"
#include "substrate/Substrate.h"
#include "support/ToolFlags.h"
#include "tcc/Tcc.h"
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

using namespace vcode;

int main(int argc, char **argv) {
  // Shared tool flags: --tier=<0|1> picks the engines' generation tier,
  // --hot-threshold=<N> enables hot-function promotion of cache-shared
  // code, --target picks the machine every thread executes on (mips
  // interprets, host runs natively on x86-64, dbt binary-translates the
  // MIPS code — the translation cache is itself a shared CodeCache),
  // --telemetry-report / --trace-json=<file> as everywhere.
  tool::ToolOptions Opts;
  argc = tool::handleArgs(argc, argv, Opts);
  (void)argc;
  (void)argv;

  // One arena + one backend + one cache, shared by every thread.
  Substrate Sub = makeSubstrate(Opts, "code_cache",
                                Substrate::Mips | Substrate::Host |
                                    Substrate::Dbt);
  sim::Memory &Mem = *Sub.Mem;
  Target &Tgt = *Sub.Tgt;
  CodeCache Cache(Mem);

  std::printf("-- DPF: eight threads, two distinct filter sets --\n");
  std::vector<dpf::Filter> SetA = dpf::makeTcpIpFilters(10, 1024);
  std::vector<dpf::Filter> SetB = dpf::makeTcpIpFilters(4, 7000);
  SimAddr PktA = Mem.alloc(dpf::pkt::HeaderBytes, 8);
  dpf::writeTcpPacket(Mem, PktA, 1026); // filter id 2 of SetA

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T) {
    Threads.emplace_back([&, T] {
      // Per-thread engine and simulator; the Cpu gets a private stack so
      // concurrent classifiers don't share the arena's default one.
      dpf::DpfEngine Engine(Tgt, Mem);
      Engine.setTier(Opts.GenTier);
      Engine.setHotThreshold(Opts.HotThreshold);
      std::unique_ptr<sim::Cpu> CpuPtr = Sub.makeCpu();
      sim::Cpu &Cpu = *CpuPtr;
      Cpu.setStackTop(Mem.allocStack());
      // Even threads serve SetA, odd ones SetB: within each group only
      // the first arrival generates, everyone else reuses its code.
      Engine.installShared(Cache, T % 2 ? SetB : SetA);
      if (T % 2 == 0 && Engine.classify(Cpu, PktA) != 2)
        std::fprintf(stderr, "thread %u: misclassified!\n", T);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  CodeCache::Stats S = Cache.stats();
  std::printf("8 installs -> %llu generations, %llu hits, %llu misses\n",
              (unsigned long long)S.Generations, (unsigned long long)S.Hits,
              (unsigned long long)S.Misses);

  std::printf("\n-- tcc: same source compiled by two compiler instances --\n");
  tcc::Tcc C1(Tgt, Mem), C2(Tgt, Mem);
  C1.setTier(Opts.GenTier);
  C1.setHotThreshold(Opts.HotThreshold);
  C2.setTier(Opts.GenTier);
  const char *Src = "triple(x) { return 3 * x; }";
  CodePtr P1 = C1.compileShared(Cache, Src);
  CodePtr P2 = C2.compileShared(Cache, Src); // cache hit: same entry point
  std::printf("triple(14) = %d; shared entry: %s\n",
              C1.run(*Sub.Cpu, "triple", {14}),
              P1.Entry == P2.Entry ? "yes" : "no");

  S = Cache.stats();
  std::printf("cache now: %llu generations, %llu hits, %llu free code bytes\n",
              (unsigned long long)S.Generations, (unsigned long long)S.Hits,
              (unsigned long long)Mem.freeCodeBytes());
  return 0;
}
