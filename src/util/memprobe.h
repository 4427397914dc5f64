// Heap-allocation probe: a process-global allocation counter plus the
// operator-new/delete replacement that feeds it, promoted out of
// bench_roundtime.cpp so tests and benches share one implementation (the
// per-round pin reads it from an EngineOptions::on_round observer). This
// is the runtime twin of the static hot-path rules in
// src/lint/rules_hotpath.cpp (see util/contract.h): the lint rule proves
// no allocating call is REACHABLE from a hot root, the probe proves no
// allocation actually HAPPENS in a warmed-up round.
//
// The counter is always present (one relaxed atomic, zero when no hook
// feeds it); the operator-new replacement is opt-in per binary. A TU that
// wants real counts places DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW at namespace
// scope in exactly one TU of the final binary -- replaceable operator new
// is a program-wide property, which is why the hook cannot live in the
// library (every test and tool would silently pay for it).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace dyndisp::memprobe {

/// Allocations observed so far. Stays 0 in binaries that do not install
/// the operator-new hook. Constant-initialized, safe before main().
inline std::atomic<std::uint64_t> g_allocations{0};

/// Called by the hooked operator new on every allocation.
inline void count_allocation() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}

/// Total allocations since process start (or 0 without the hook).
[[nodiscard]] inline std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Scoped window: delta() is the number of heap allocations since the
/// guard's construction. Meaningful only in binaries that install
/// DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW; elsewhere delta() is always 0.
class AllocGuard {
 public:
  AllocGuard() : start_(allocation_count()) {}

  /// Allocations observed since construction.
  [[nodiscard]] std::uint64_t delta() const {
    return allocation_count() - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace dyndisp::memprobe

// The full replaceable allocation-function set, counting through
// memprobe::count_allocation. GCC's inliner pairs the replacement with the
// default allocator when expanding make_unique and then flags the
// std::free as mismatched; the replacement is internally consistent
// (new -> malloc, delete -> free), so the diagnostic is noise in any TU
// that instantiates this macro.
#if defined(__GNUC__) && !defined(__clang__)
#define DYNDISP_MEMPROBE_SUPPRESS_MISMATCH \
  _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")
#else
#define DYNDISP_MEMPROBE_SUPPRESS_MISMATCH
#endif

#define DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW                                    \
  DYNDISP_MEMPROBE_SUPPRESS_MISMATCH                                          \
  void* operator new(std::size_t size) {                                      \
    ::dyndisp::memprobe::count_allocation();                                  \
    if (void* p = std::malloc(size ? size : 1)) return p;                     \
    throw std::bad_alloc();                                                   \
  }                                                                           \
  void* operator new[](std::size_t size) { return ::operator new(size); }     \
  void* operator new(std::size_t size, std::align_val_t align) {              \
    ::dyndisp::memprobe::count_allocation();                                  \
    /* aligned_alloc requires size to be a multiple of the alignment. */      \
    const std::size_t a = static_cast<std::size_t>(align);                    \
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;          \
    if (void* p = std::aligned_alloc(a, rounded)) return p;                   \
    throw std::bad_alloc();                                                   \
  }                                                                           \
  void* operator new[](std::size_t size, std::align_val_t align) {            \
    return ::operator new(size, align);                                       \
  }                                                                           \
  void operator delete(void* p) noexcept { std::free(p); }                    \
  void operator delete[](void* p) noexcept { std::free(p); }                  \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }       \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }     \
  void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }  \
  void operator delete[](void* p, std::align_val_t) noexcept {                \
    std::free(p);                                                             \
  }                                                                           \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {     \
    std::free(p);                                                             \
  }                                                                           \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {   \
    std::free(p);                                                             \
  }
