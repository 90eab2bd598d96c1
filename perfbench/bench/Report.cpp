//===- perfbench/bench/Report.cpp - Run header, metrics and result --------===//

#include "Report.h"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

const std::vector<std::pair<const char *, const char *>> &
Report::endToEndMetrics() {
  static const std::vector<std::pair<const char *, const char *>> L = {
      {"setup_s", "s"},
      {"p50_us", "us"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return L;
}

const std::vector<std::pair<const char *, const char *>> &
Report::perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> L = {
      {"mips.emit_ns_per_insn", "ns"},
      {"sparc.emit_ns_per_insn", "ns"},
      {"alpha.emit_ns_per_insn", "ns"},
      {"x64.emit_ns_per_insn", "ns"},
      {"core.virtual_emit_ns_per_insn", "ns"},
      {"core.tier1_ns_per_insn", "ns"},
      {"core.lambda_ns", "ns"},
      {"core.end_ns", "ns"},
      {"sim.alloc_code_ns", "ns"},
      {"core.retry_ratio", "ratio"},
      {"core.lifecycle_unattributed_ratio", "ratio"},
      {"dpf.install_us", "us"},
      {"dpf.code_bytes", "bytes"},
      {"tcc.compile_us", "us"},
      {"core.cache_hit_us_p50", "us"},
      {"core.cache_miss_us_p50", "us"},
      {"core.cache_miss_us_p99", "us"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.cache_evictions", "count"},
      {"core.cache_promotions", "count"},
      {"service.retire_us", "us"},
      {"sim.ns_per_guest_insn", "ns"},
      {"sim.cycles_per_msg", "count"},
      {"sim.insns_per_msg", "count"},
      {"sim.icache_misses_per_msg", "count"},
      {"sim.dcache_misses_per_msg", "count"},
      {"dbt.translate_us", "us"},
      {"dbt.translations", "count"},
      {"dbt.overhead_ns_per_msg", "ns"},
      {"x64.call_ns", "ns"},
      {"dpf.trie_ns_per_msg", "ns"},
      {"sim.arena_high_water_bytes", "bytes"},
      {"profile.codemap_live_entries", "count"},
      {"service.loadgen_late_p99_us", "us"},
      {"service.backlog_max", "count"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"codegen.gen_minsn_per_s", "Minsn/s"},
      {"codegen.code_bytes_per_insn", "bytes"},
      {"dpf.sim_us_per_msg", "us"},
      {"codegen.compile_p99_us", "us"},
      {"dpf.msg_p99_us", "us"},
      {"service.install_p99_us", "us"},
      {"service.install_p999_us", "us"},
      {"bench.host_factor", "ratio"},
  };
  return L;
}

static bool known(const std::vector<std::pair<const char *, const char *>> &L,
                  const std::string &Name) {
  for (const auto &[N, U] : L)
    if (Name == N)
      return true;
  return false;
}

void Report::e2e(const std::string &Name, double Value) {
  if (!known(endToEndMetrics(), Name)) {
    std::fprintf(stderr, "perfbench: unknown end-to-end metric %s\n",
                 Name.c_str());
    std::abort();
  }
  E2e[Name] = Value;
}

void Report::layer(const std::string &Name, double Value) {
  if (!known(perLayerMetrics(), Name)) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 Name.c_str());
    std::abort();
  }
  Layer[Name] = Value;
}

void Report::note(const std::string &Name, double Value,
                  const std::string &Unit, size_t Samples, double TailPct,
                  double Tail) {
  Notes.push_back(Note{Name, Unit, Value, Samples, TailPct, Tail});
}

void Report::noteSummary(const std::string &Name, const Summary &S,
                         const std::string &Unit) {
  note(Name, S.P50, Unit, S.N, S.TailPct, S.Tail);
}

void Report::fail(uint64_t N, const char *Why) {
  if (!N)
    return;
  Failed += N;
  FailWhy[Why] += N;
}

static void jsonNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  Out += Buf;
}

void Report::print(const RunConfig &C) const {
  std::printf("\n%-34s %16s  %-8s %9s  %s\n", "metric", "median/value",
              "unit", "samples", "tail");
  for (const Note &N : Notes) {
    std::string Tail = "-";
    if (N.TailPct > 0) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "p%g = %.6g", N.TailPct, N.Tail);
      Tail = Buf;
    }
    std::printf("%-34s %16.6g  %-8s %9zu  %s\n", N.Name.c_str(), N.Value,
                N.Unit.c_str(), N.Samples, Tail.c_str());
  }
  for (const auto &[Why, N] : FailWhy)
    std::printf("FAILED: %llu x %s\n", (unsigned long long)N, Why.c_str());
  std::printf("attempted %llu, failed %llu, fail_ratio %.6g\n",
              (unsigned long long)Attempted, (unsigned long long)Failed,
              Attempted ? double(Failed) / double(Attempted) : 0.0);

  const auto &List = C.Trace ? perLayerMetrics() : endToEndMetrics();
  const auto &Vals = C.Trace ? Layer : E2e;
  std::string J = "{\"correct\": ";
  J += Failed == 0 && Attempted > 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : List) {
    auto It = Vals.find(Name);
    double V = It == Vals.end() ? 0.0 : It->second;
    if (!First)
      J += ", ";
    First = false;
    J += "\"";
    J += Name;
    J += "\": {\"value\": ";
    jsonNumber(J, V);
    J += ", \"unit\": \"";
    J += Unit;
    J += "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

void printHeader(const RunConfig &C) {
  std::printf("# perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              C.Workload.c_str(), (unsigned long long)C.Seed, C.Seconds,
              C.Trace ? 1 : 0);
  std::printf("# git_sha=%s src_sha256=%s\n", C.GitSha.c_str(),
              C.SrcHash.c_str());
  std::printf("# compiler=g++ %s build_type=%s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
#ifdef VCODE_TELEMETRY_ENABLED
  std::printf("# VCODE_TELEMETRY=ON");
#else
  std::printf("# VCODE_TELEMETRY=OFF");
#endif
  std::printf(" nproc=%u\n", std::thread::hardware_concurrency());
}

bool buildIsReportable() {
  const char *Why = nullptr;
#if !defined(__OPTIMIZE__)
  Why = "an unoptimised (Debug) build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Why = "a sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
  Why = "a sanitizer build";
#endif
#endif
  if (Why) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from %s; build "
                 "with CMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                 Why);
    return false;
  }
  return true;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace perfbench
