// x86 feature probes shared by the runtime-dispatched kernels
// (sketch/sketch_kernel.cpp, crypto/sha256_kernel.cpp).
//
// CPUID only says what the core can execute. Vector extensions wider
// than SSE additionally need the OS to save their register state on a
// context switch; if it does not (a kernel booted with AVX disabled, a
// hypervisor masking XSAVE), the first VEX/EVEX instruction raises #UD.
// The OS reports what it saves through OSXSAVE (CPUID.1:ECX[27]) and the
// XCR0 register (XGETBV 0), so every AVX-class probe checks both.
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define EYW_CPU_FEATURES_X86_64 1
#endif

namespace eyw::util {

/// XCR0 state components: SSE (bit 1) + AVX upper halves (bit 2).
inline constexpr std::uint64_t kXcr0Ymm = 0x06;
/// kXcr0Ymm + AVX-512 opmask (5), ZMM_Hi256 (6) and Hi16_ZMM (7).
inline constexpr std::uint64_t kXcr0Zmm = 0xE6;

/// True when the OS has enabled XSAVE and XCR0 has every bit of `mask`.
[[nodiscard]] inline bool os_saves_xstate(std::uint64_t mask) noexcept {
#if defined(EYW_CPU_FEATURES_X86_64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kOsXsave = 1u << 27;  // ECX bit 27
  if ((ecx & kOsXsave) == 0) return false;
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const std::uint64_t xcr0 = (static_cast<std::uint64_t>(hi) << 32) | lo;
  return (xcr0 & mask) == mask;
#else
  (void)mask;
  return false;
#endif
}

/// CPUID leaf 7 sub-leaf 0, EBX bit `bit` (false on non-x86 builds).
[[nodiscard]] inline bool cpuid7_ebx_has(unsigned int bit) noexcept {
#if defined(EYW_CPU_FEATURES_X86_64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << bit)) != 0;
#else
  (void)bit;
  return false;
#endif
}

}  // namespace eyw::util
