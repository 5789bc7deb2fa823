// 16-lane AVX-512F SHA-256 counter-mode fold — the one translation unit
// compiled with -mavx512f (CMakeLists.txt). Never called unless CPUID
// reports AVX-512F and the OS saves ZMM state (sha256_kernel.cpp gates
// dispatch).
//
// Multi-buffer hashing (Gopal et al., "Fast SHA-256 Implementations on
// Intel Architecture Processors", Intel white paper, 2012): lane l of
// every vector carries the compression of counter block base + l, so one
// pass computes 16 consecutive pad blocks = 128 cells. The counter
// blocks of one pad differ only in the counter words, which makes three
// shortcuts exact:
//   * rounds 0-7 read only the seed words W0..W7, so they run once per
//     pad as a scalar midstate;
//   * W8 (the counter's high word) is uniform within a pass, because
//     passes start at multiples of 16 and 2^32 is one too;
//   * the output state words already are the pad cells, so a transpose
//     turns 8 state vectors into 128 consecutive cells that are added
//     straight into the accumulator — no digest bytes, no scratch stream.
// Σ, σ, Ch and Maj are vprord/vpsrld plus one vpternlogd each.
#include "crypto/sha256_kernel.hpp"

#if defined(EYW_HAVE_AVX512_SHA256)

#include <immintrin.h>

namespace eyw::crypto::detail {
namespace {

inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}
inline __m512i big_sigma0(__m512i a) {
  return xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13),
              _mm512_ror_epi32(a, 22));
}
inline __m512i big_sigma1(__m512i e) {
  return xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11),
              _mm512_ror_epi32(e, 25));
}
inline __m512i small_sigma0(__m512i x) {
  return xor3(_mm512_ror_epi32(x, 7), _mm512_ror_epi32(x, 18),
              _mm512_srli_epi32(x, 3));
}
inline __m512i small_sigma1(__m512i x) {
  return xor3(_mm512_ror_epi32(x, 17), _mm512_ror_epi32(x, 19),
              _mm512_srli_epi32(x, 10));
}
inline __m512i ch(__m512i e, __m512i f, __m512i g) {
  return _mm512_ternarylogic_epi32(e, f, g, 0xCA);  // e ? f : g
}
inline __m512i maj(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0xE8);  // majority
}

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// One scalar round on state s (a..h) with K[t] + W[t] = kw.
inline void scalar_round(std::uint32_t s[8], std::uint32_t kw) {
  const std::uint32_t t1 = s[7] + (rotr(s[4], 6) ^ rotr(s[4], 11) ^
                                   rotr(s[4], 25)) +
                           ((s[4] & s[5]) ^ (~s[4] & s[6])) + kw;
  const std::uint32_t t2 = (rotr(s[0], 2) ^ rotr(s[0], 13) ^ rotr(s[0], 22)) +
                           ((s[0] & s[1]) ^ (s[0] & s[2]) ^ (s[1] & s[2]));
  for (int i = 7; i > 0; --i) s[i] = s[i - 1];
  s[4] += t1;
  s[0] = t1 + t2;
}

/// Transpose state vectors v[w] (lane l = word w of block l) into block
/// order: out[k] = words 0..7 of block 2k, then of block 2k+1.
inline void to_block_order(const __m512i v[8], __m512i out[8]) {
  // Per 128-bit chunk c, u[j] holds words 0..3 of block 4c+j and u[4+j]
  // words 4..7 of it.
  __m512i t[8], u[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm512_unpacklo_epi32(v[2 * i], v[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_epi32(v[2 * i], v[2 * i + 1]);
  }
  for (int half = 0; half < 2; ++half) {
    const __m512i* th = t + 4 * half;
    __m512i* uh = u + 4 * half;
    uh[0] = _mm512_unpacklo_epi64(th[0], th[2]);
    uh[1] = _mm512_unpackhi_epi64(th[0], th[2]);
    uh[2] = _mm512_unpacklo_epi64(th[1], th[3]);
    uh[3] = _mm512_unpackhi_epi64(th[1], th[3]);
  }
  // out[k] gathers chunk c of u[j], u[4+j], u[j+1], u[5+j] for blocks
  // 2k = 4c + j and 2k+1: first pair chunks 0/2 and 1/3 (p, q), then
  // split them.
  for (int j = 0; j < 4; j += 2) {
    const __m512i p0 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
    const __m512i p1 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xDD);
    const __m512i q0 = _mm512_shuffle_i32x4(u[j + 1], u[5 + j], 0x88);
    const __m512i q1 = _mm512_shuffle_i32x4(u[j + 1], u[5 + j], 0xDD);
    const int k = j / 2;
    out[k] = _mm512_shuffle_i32x4(p0, q0, 0x88);      // chunk 0
    out[k + 2] = _mm512_shuffle_i32x4(p1, q1, 0x88);  // chunk 1
    out[k + 4] = _mm512_shuffle_i32x4(p0, q0, 0xDD);  // chunk 2
    out[k + 6] = _mm512_shuffle_i32x4(p1, q1, 0xDD);  // chunk 3
  }
}

}  // namespace

// Declared in sha256_kernel.cpp, which wraps it as the "avx512" kernel.
void avx512_ctr_fold(std::uint32_t* acc, std::size_t cells,
                     const std::uint8_t seed[32], bool add) {
  if (cells == 0) return;
  // The message words every counter block shares: seed, the 0x80 pad
  // byte after the 40-byte message, and its bit length (320).
  std::uint32_t w[16] = {0};
  for (int i = 0; i < 8; ++i)
    w[i] = (static_cast<std::uint32_t>(seed[4 * i]) << 24) |
           (static_cast<std::uint32_t>(seed[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(seed[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(seed[4 * i + 3]);
  w[10] = 0x80000000u;
  w[15] = 320;
  std::uint32_t mid[8];
  for (int i = 0; i < 8; ++i) mid[i] = kSha256Iv[static_cast<std::size_t>(i)];
  for (int t = 0; t < 8; ++t)
    scalar_round(mid, kSha256K[static_cast<std::size_t>(t)] + w[t]);

  const auto splat = [](std::uint32_t x) {
    return _mm512_set1_epi32(static_cast<int>(x));
  };
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (std::uint64_t base = 0;; base += 16) {
    __m512i m[16];
    for (int i = 0; i < 16; ++i) m[i] = splat(w[i]);
    m[8] = splat(static_cast<std::uint32_t>(base >> 32));
    m[9] = _mm512_add_epi32(splat(static_cast<std::uint32_t>(base)), lane);

    __m512i a = splat(mid[0]), b = splat(mid[1]), c = splat(mid[2]);
    __m512i d = splat(mid[3]), e = splat(mid[4]), f = splat(mid[5]);
    __m512i g = splat(mid[6]), h = splat(mid[7]);
#pragma GCC unroll 56
    for (int t = 8; t < 64; ++t) {
      if (t >= 16) {
        m[t & 15] = _mm512_add_epi32(
            _mm512_add_epi32(small_sigma1(m[(t - 2) & 15]), m[(t - 7) & 15]),
            _mm512_add_epi32(small_sigma0(m[(t - 15) & 15]), m[t & 15]));
      }
      const __m512i kw = _mm512_add_epi32(
          m[t & 15], splat(kSha256K[static_cast<std::size_t>(t)]));
      const __m512i t1 = _mm512_add_epi32(
          _mm512_add_epi32(h, big_sigma1(e)),
          _mm512_add_epi32(ch(e, f, g), kw));
      const __m512i t2 = _mm512_add_epi32(big_sigma0(a), maj(a, b, c));
      h = g;
      g = f;
      f = e;
      e = _mm512_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm512_add_epi32(t1, t2);
    }
    const __m512i out[8] = {a, b, c, d, e, f, g, h};
    __m512i state[8];
    for (int i = 0; i < 8; ++i)
      state[i] = _mm512_add_epi32(
          out[i], splat(kSha256Iv[static_cast<std::size_t>(i)]));
    __m512i pad[8];
    to_block_order(state, pad);

    if (cells >= 128) {
      for (int k = 0; k < 8; ++k) {
        void* p = acc + 16 * k;
        const __m512i cur = _mm512_loadu_si512(p);
        _mm512_storeu_si512(p, add ? _mm512_add_epi32(cur, pad[k])
                                   : _mm512_sub_epi32(cur, pad[k]));
      }
      acc += 128;
      cells -= 128;
      if (cells == 0) return;
      continue;
    }
    // Last, partial pass: fold only the cells the pad covers.
    alignas(64) std::uint32_t tail[128];
    for (int k = 0; k < 8; ++k) _mm512_store_si512(tail + 16 * k, pad[k]);
    if (add) {
      for (std::size_t i = 0; i < cells; ++i) acc[i] += tail[i];
    } else {
      for (std::size_t i = 0; i < cells; ++i) acc[i] -= tail[i];
    }
    return;
  }
}

}  // namespace eyw::crypto::detail

#endif  // EYW_HAVE_AVX512_SHA256
