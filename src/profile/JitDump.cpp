//===- profile/JitDump.cpp - perf map and jitdump writers -----------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "profile/JitDump.h"

#if VCODE_TELEMETRY_ENABLED

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace vcode {
namespace profile {

namespace {

std::mutex GM;
/// Publish-path gate: checked without GM so the common case (no export
/// enabled) costs one relaxed load on every v_end.
std::atomic<bool> GExportsOn{false};
FILE *GMapF = nullptr;
std::string GMapPath;
FILE *GDumpF = nullptr;
std::string GDumpPath;
uint64_t GCodeIndex = 0;
void *GMarkerPage = nullptr;

#if defined(__linux__)

// Jitdump format, as consumed by `perf inject --jit` (see
// linux/tools/perf/Documentation/jitdump-specification.txt).
constexpr uint32_t kJitMagic = 0x4A695444; // "JiTD"
constexpr uint32_t kJitVersion = 1;
constexpr uint32_t kElfMachX86_64 = 62;
constexpr uint32_t kRecCodeLoad = 0;

struct JitHeader {
  uint32_t Magic;
  uint32_t Version;
  uint32_t TotalSize;
  uint32_t ElfMach;
  uint32_t Pad1;
  uint32_t Pid;
  uint64_t Timestamp;
  uint64_t Flags;
};
static_assert(sizeof(JitHeader) == 40, "jitdump header layout");

struct JitRecHeader {
  uint32_t Id;
  uint32_t TotalSize;
  uint64_t Timestamp;
};

struct JitRecLoad {
  uint32_t Pid;
  uint32_t Tid;
  uint64_t Vma;
  uint64_t CodeAddr;
  uint64_t CodeSize;
  uint64_t CodeIndex;
};
static_assert(sizeof(JitRecHeader) + sizeof(JitRecLoad) == 56,
              "jitdump load record layout");

uint64_t monotonicNs() {
  struct timespec TS;
  clock_gettime(CLOCK_MONOTONIC, &TS);
  return uint64_t(TS.tv_sec) * 1000000000ull + uint64_t(TS.tv_nsec);
}

#endif // __linux__

int processId() {
#if defined(__linux__)
  return int(getpid());
#else
  return 0;
#endif
}

} // namespace

bool enablePerfMap(const char *Path) {
  std::lock_guard<std::mutex> L(GM);
  if (GMapF)
    return true;
  char Buf[128];
  if (!Path) {
    std::snprintf(Buf, sizeof(Buf), "/tmp/perf-%d.map", processId());
    Path = Buf;
  }
  GMapF = std::fopen(Path, "w");
  if (!GMapF)
    return false;
  GMapPath = Path;
  GExportsOn.store(true, std::memory_order_relaxed);
  return true;
}

bool enableJitDump(const char *Path) {
#if defined(__linux__)
  std::lock_guard<std::mutex> L(GM);
  if (GDumpF)
    return true;
  char Buf[128];
  if (!Path) {
    std::snprintf(Buf, sizeof(Buf), "jit-%d.dump", processId());
    Path = Buf;
  }
  GDumpF = std::fopen(Path, "w+");
  if (!GDumpF)
    return false;
  GDumpPath = Path;

  JitHeader H;
  std::memset(&H, 0, sizeof(H));
  H.Magic = kJitMagic;
  H.Version = kJitVersion;
  H.TotalSize = sizeof(H);
  H.ElfMach = kElfMachX86_64;
  H.Pid = uint32_t(processId());
  H.Timestamp = monotonicNs();
  std::fwrite(&H, sizeof(H), 1, GDumpF);
  std::fflush(GDumpF);

  // perf finds the jitdump via an executable mmap of its first page in
  // the recorded process. Best effort: without it `perf inject` needs
  // the file named explicitly, so only warn.
  long Page = sysconf(_SC_PAGESIZE);
  GMarkerPage = mmap(nullptr, size_t(Page), PROT_READ | PROT_EXEC,
                     MAP_PRIVATE, fileno(GDumpF), 0);
  if (GMarkerPage == MAP_FAILED) {
    GMarkerPage = nullptr;
    std::fprintf(stderr,
                 "vcode: warning: jitdump marker mmap failed; perf "
                 "record will not auto-detect %s\n",
                 GDumpPath.c_str());
  }
  GExportsOn.store(true, std::memory_order_relaxed);
  return true;
#else
  (void)Path;
  return false;
#endif
}

std::string perfMapPath() {
  std::lock_guard<std::mutex> L(GM);
  return GMapPath;
}

std::string jitDumpPath() {
  std::lock_guard<std::mutex> L(GM);
  return GDumpPath;
}

void closeJitExports() {
  std::lock_guard<std::mutex> L(GM);
  GExportsOn.store(false, std::memory_order_relaxed);
  if (GMapF) {
    std::fclose(GMapF);
    GMapF = nullptr;
  }
  if (GDumpF) {
    std::fclose(GDumpF);
    GDumpF = nullptr;
  }
#if defined(__linux__)
  if (GMarkerPage) {
    munmap(GMarkerPage, size_t(sysconf(_SC_PAGESIZE)));
    GMarkerPage = nullptr;
  }
#endif
}

void exportOnPublish(const CodeEntry &E) {
  if (!GExportsOn.load(std::memory_order_relaxed))
    return;
  std::lock_guard<std::mutex> L(GM);
  if (!GMapF && !GDumpF)
    return;
  uint64_t Addr = uint64_t(E.Host);
  if (GMapF) {
    std::fprintf(GMapF, "%llx %llx %s\n", (unsigned long long)Addr,
                 (unsigned long long)E.Bytes, E.Name.c_str());
    std::fflush(GMapF); // survive crashes mid-run; perf tails the file
  }
#if defined(__linux__)
  if (GDumpF) {
    const uint8_t *Code = E.Code.empty()
                              ? reinterpret_cast<const uint8_t *>(E.Host)
                              : E.Code.data();
    size_t CodeLen = size_t(E.Bytes);

    JitRecHeader RH;
    JitRecLoad RL;
    RH.Id = kRecCodeLoad;
    RH.TotalSize = uint32_t(sizeof(RH) + sizeof(RL) + E.Name.size() + 1 +
                            CodeLen);
    RH.Timestamp = monotonicNs();
    RL.Pid = uint32_t(processId());
    RL.Tid = uint32_t(syscall(SYS_gettid));
    RL.Vma = Addr;
    RL.CodeAddr = Addr;
    RL.CodeSize = CodeLen;
    RL.CodeIndex = GCodeIndex++;
    std::fwrite(&RH, sizeof(RH), 1, GDumpF);
    std::fwrite(&RL, sizeof(RL), 1, GDumpF);
    std::fwrite(E.Name.c_str(), E.Name.size() + 1, 1, GDumpF);
    if (CodeLen)
      std::fwrite(Code, CodeLen, 1, GDumpF);
    std::fflush(GDumpF);
  }
#endif
}

} // namespace profile
} // namespace vcode

#endif // VCODE_TELEMETRY_ENABLED
