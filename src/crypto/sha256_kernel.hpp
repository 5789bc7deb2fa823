// Runtime-dispatched SHA-256 kernels, mirroring the Montgomery
// (crypto/mont_kernel.hpp) and sketch-cell (sketch/sketch_kernel.hpp)
// arrangement: a portable scalar backend that is always available and
// always right, plus x86 backends selected by CPUID at first use.
//
// Two primitives:
//   * `compress` — the FIPS 180-4 compression function. Every Sha256
//     instance, HMAC and sha256_expand run on it.
//   * `ctr_fold` — the blinding hot loop (crypto/blinding.cpp): fold a
//     counter-mode pad straight out of SHA-256 state into a cell
//     accumulator. One compression per 8 cells, hundreds of pads per
//     reporter per round, so this is the round pipeline's hottest loop.
//
// Backends:
//   * portable — scalar compression; ctr_fold loops over it.
//   * shani — SHA-NI compression (sha256_shani.cpp, -msha); ctr_fold
//     loops over it.
//   * avx512 — the 16-lane AVX-512F counter-mode fold
//     (sha256_avx512.cpp, -mavx512f): 16 consecutive counter blocks per
//     pass, Intel's multi-buffer technique. Its `compress` is SHA-NI when
//     present (single-block hashing does not vectorize across blocks),
//     else portable.
//
// Contract:
//   * `state` is the eight working variables a..h as uint32 words;
//     `blocks` points at `count` contiguous 64-byte message blocks. The
//     function folds every block into `state` in order (the standard
//     Merkle–Damgård chaining). No alignment requirement on `blocks`.
//   * ctr_fold(acc, cells, seed, add) sets, for i in [0, cells),
//       acc[i] += P[i]   (add)   or   acc[i] -= P[i]   (!add)
//     in wrapping 32-bit arithmetic, where P[i] is big-endian word i of
//     sha256_expand(seed, 4 * cells): word i % 8 of
//     SHA-256(seed || be64(i / 8)). `seed` is 32 bytes; `acc` may be
//     unaligned and must not alias it.
//   * `EYW_SHA256_KERNEL=portable|shani|avx512|auto` overrides selection
//     (read once); requesting an unavailable backend degrades to the best
//     available one below it (avx512 -> shani -> portable).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace eyw::crypto {

struct Sha256Kernel {
  void (*compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count);
  void (*ctr_fold)(std::uint32_t* acc, std::size_t cells,
                   const std::uint8_t seed[32], bool add);
  const char* name;  // "portable" | "shani" | "avx512"
};

/// FIPS 180-4 round constants and initial hash value, shared by every
/// backend.
inline constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
inline constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// The scalar FIPS 180-4 backend; always available, the differential
/// oracle for every other backend.
[[nodiscard]] const Sha256Kernel& portable_sha256_kernel() noexcept;

/// The SHA-NI backend, or nullptr when not compiled in or the CPU lacks
/// the SHA extensions.
[[nodiscard]] const Sha256Kernel* shani_sha256_kernel() noexcept;

/// The AVX-512F counter-mode backend, or nullptr when not compiled in,
/// the CPU lacks AVX-512F or the OS does not save ZMM state.
[[nodiscard]] const Sha256Kernel* avx512_sha256_kernel() noexcept;

/// CPUID leaf 7 SHA-extensions probe (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_sha_ni() noexcept;

/// CPUID leaf 7 AVX-512F probe plus the OS's XCR0 opmask/ZMM state bits
/// (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_avx512f() noexcept;

/// The kernel every Sha256 instance and pad fold uses, chosen once per
/// process: avx512, else shani, else portable, unless EYW_SHA256_KERNEL
/// says otherwise.
[[nodiscard]] const Sha256Kernel& active_sha256_kernel() noexcept;

}  // namespace eyw::crypto
