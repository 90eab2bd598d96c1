//===- support/Error.h - Error reporting and recovery -----------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, "VCODE: a Retargetable,
// Extensible, Very Fast Dynamic Code Generation System" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting. The original VCODE policy is that programmer errors
/// (bad operands, unsupported type/op combinations, buffer overflow of
/// client-provided code memory) abort with a diagnostic. That remains the
/// default here, but every error is now classified (CgErrKind) and routed
/// through a pluggable per-thread ErrorHandler, so a long-running service
/// can opt into recovery instead: VCode::setErrorRecovery installs a
/// handler that records the error and unwinds (via CgAbort) rather than
/// killing the process. fatal() stays [[noreturn]] either way — a handler
/// may throw, but may never return — so emission code needs no error
/// plumbing and the hot path (CodeBuffer::put) stays a single compare.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_SUPPORT_ERROR_H
#define VCODE_SUPPORT_ERROR_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vcode {

/// Classification of every error the library can raise. Drives retry
/// policy: BufferOverflow is the only kind a grown code region can cure.
enum class CgErrKind : uint8_t {
  None = 0,       ///< no error (CgError default state)
  BufferOverflow, ///< code region too small — retryable with a larger one
  ArenaExhausted, ///< sim::Memory allocation failure
  BadOperand,     ///< operand/type misuse (immediate where reg required, ...)
  OutOfRange,     ///< encodable-range overflow (frame size, displacement)
  BadPatch,       ///< backpatch index outside the emitted range
  BadRegion,      ///< code region rejected at bind time (null/misaligned)
  UnboundLabel,   ///< label referenced but never bound
  RegisterPressure, ///< register allocator ran out
  ApiMisuse,      ///< protocol violation (v_end without v_lambda, ...)
  SimFault,       ///< simulated machine fault (wild access, runaway code)
  Internal,       ///< library invariant broken (unreachable reached)
};

/// Human-readable kind name, for diagnostics and test assertions.
inline const char *cgErrKindName(CgErrKind K) {
  switch (K) {
  case CgErrKind::None:             return "none";
  case CgErrKind::BufferOverflow:   return "buffer-overflow";
  case CgErrKind::ArenaExhausted:   return "arena-exhausted";
  case CgErrKind::BadOperand:       return "bad-operand";
  case CgErrKind::OutOfRange:       return "out-of-range";
  case CgErrKind::BadPatch:         return "bad-patch";
  case CgErrKind::BadRegion:        return "bad-region";
  case CgErrKind::UnboundLabel:     return "unbound-label";
  case CgErrKind::RegisterPressure: return "register-pressure";
  case CgErrKind::ApiMisuse:        return "api-misuse";
  case CgErrKind::SimFault:         return "sim-fault";
  case CgErrKind::Internal:         return "internal";
  }
  return "unknown";
}

/// A structured code-generation error: what went wrong, where in the
/// function (when known), and the formatted diagnostic text.
struct CgError {
  static constexpr uint32_t NoWordIndex = ~uint32_t(0);

  CgErrKind Kind = CgErrKind::None;
  /// Function-relative word index of the emission cursor when the error
  /// was raised, or NoWordIndex when no function was in progress.
  uint32_t WordIndex = NoWordIndex;
  /// BufferOverflow only: bytes the function needed at the failing
  /// instruction (0 otherwise), a lower bound for the next region.
  size_t NeedBytes = 0;
  /// Formatted diagnostic (truncated to fit; always NUL-terminated).
  char Detail[232] = {};

  explicit operator bool() const { return Kind != CgErrKind::None; }
};

/// Receives every error raised through fatal()/unreachable(). handle() must
/// not return: it either terminates the process (the default behaviour) or
/// throws to unwind out of the emission sequence (recovery mode).
class ErrorHandler {
public:
  virtual ~ErrorHandler() = default;
  [[noreturn]] virtual void handle(const CgError &E) = 0;
};

namespace detail {
/// The active handler for this thread; null means print-and-abort.
inline thread_local ErrorHandler *CurrentHandler = nullptr;
} // namespace detail

/// Installs \p H as this thread's error handler and returns the previous
/// one (so handlers nest LIFO). Pass nullptr to restore the abort default.
inline ErrorHandler *setErrorHandler(ErrorHandler *H) {
  ErrorHandler *Prev = detail::CurrentHandler;
  detail::CurrentHandler = H;
  return Prev;
}

/// This thread's active handler, or null if the abort default is in force.
inline ErrorHandler *errorHandler() { return detail::CurrentHandler; }

/// RAII installation of an ErrorHandler; restores the previous handler on
/// scope exit.
class ErrorHandlerScope {
public:
  explicit ErrorHandlerScope(ErrorHandler &H) : Prev(setErrorHandler(&H)) {}
  ~ErrorHandlerScope() { setErrorHandler(Prev); }
  ErrorHandlerScope(const ErrorHandlerScope &) = delete;
  ErrorHandlerScope &operator=(const ErrorHandlerScope &) = delete;

private:
  ErrorHandler *Prev;
};

/// Exception thrown by recovery-mode handlers to unwind out of an emission
/// sequence. Carries the structured error; VCode records it before
/// throwing, so most clients never need to inspect the exception itself.
class CgAbort {
public:
  explicit CgAbort(const CgError &E) : Err(E) {}
  const CgError &error() const { return Err; }

private:
  CgError Err;
};

/// Routes a fully-formed error to the active handler, defaulting to the
/// paper's print-and-abort policy. Never returns.
[[noreturn]] inline void dispatchError(const CgError &E) {
  if (ErrorHandler *H = detail::CurrentHandler)
    H->handle(E); // [[noreturn]]
  std::fprintf(stderr, "%s%s\n",
               E.Kind == CgErrKind::Internal ? "vcode internal error: "
                                             : "vcode fatal error: ",
               E.Detail);
  std::abort();
}

namespace detail {
[[noreturn]] inline void fatalV(CgErrKind K, uint32_t WordIdx, const char *Fmt,
                                va_list Ap) {
  CgError E;
  E.Kind = K;
  E.WordIndex = WordIdx;
  std::vsnprintf(E.Detail, sizeof(E.Detail), Fmt, Ap);
  va_end(Ap);
  dispatchError(E);
}
} // namespace detail

/// Reports a printf-style error of kind \p K. Aborts by default; a
/// recovery handler throws CgAbort instead. Never returns.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
[[noreturn]] inline void
fatalKind(CgErrKind K, const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  detail::fatalV(K, CgError::NoWordIndex, Fmt, Ap);
}

/// fatalKind plus the function-relative word index at which the error was
/// detected (CodeBuffer::wordIndex()). Never returns.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 3, 4)))
#endif
[[noreturn]] inline void
fatalAt(CgErrKind K, uint32_t WordIdx, const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  detail::fatalV(K, WordIdx, Fmt, Ap);
}

/// Legacy unclassified fatal: reports as ApiMisuse. Never returns.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
[[noreturn]] inline void
fatal(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  detail::fatalV(CgErrKind::ApiMisuse, CgError::NoWordIndex, Fmt, Ap);
}

/// Marks a point in code that must never be reached if library invariants
/// hold. Mirrors llvm_unreachable. Never returns.
[[noreturn]] inline void unreachable(const char *Msg) {
  fatalKind(CgErrKind::Internal, "%s", Msg);
}

} // namespace vcode

#endif // VCODE_SUPPORT_ERROR_H
