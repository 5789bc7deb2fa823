#include "crypto/sha256_kernel.hpp"

#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/cpu_features.hpp"

namespace eyw::crypto {

namespace detail {
#if defined(EYW_HAVE_SHANI_KERNEL)
// Defined in sha256_shani.cpp (compiled with -msha -msse4.1).
void shani_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t count);
#endif
#if defined(EYW_HAVE_AVX512_SHA256)
// Defined in sha256_avx512.cpp (compiled with -mavx512f).
void avx512_ctr_fold(std::uint32_t* acc, std::size_t cells,
                     const std::uint8_t seed[32], bool add);
#endif
}  // namespace detail

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

void portable_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t count) {
  for (std::size_t blk = 0; blk < count; ++blk, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 =
          h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

/// The counter-mode fold as a loop over one compression per counter
/// block — the scalar oracle, and the pad path on hosts without
/// AVX-512. The padded block (seed || be64(ctr) || 0x80 || zeros ||
/// be64(320)) is built once; per block only the counter bytes change,
/// and the output state words are the cells, so nothing is byte-decoded.
template <void (*Compress)(std::uint32_t*, const std::uint8_t*, std::size_t)>
void generic_ctr_fold(std::uint32_t* acc, std::size_t cells,
                      const std::uint8_t seed[32], bool add) {
  std::uint8_t block[64] = {0};
  std::memcpy(block, seed, 32);
  block[40] = 0x80;
  block[62] = 0x01;  // message length: 40 bytes = 320 bits = 0x140
  block[63] = 0x40;
  for (std::uint64_t ctr = 0; cells > 0; ++ctr) {
    for (int i = 0; i < 8; ++i)
      block[32 + i] = static_cast<std::uint8_t>(ctr >> (56 - 8 * i));
    std::array<std::uint32_t, 8> st = kSha256Iv;
    Compress(st.data(), block, 1);
    const std::size_t take = cells < 8 ? cells : 8;
    if (add) {
      for (std::size_t w = 0; w < take; ++w) acc[w] += st[w];
    } else {
      for (std::size_t w = 0; w < take; ++w) acc[w] -= st[w];
    }
    acc += take;
    cells -= take;
  }
}

constexpr Sha256Kernel kPortable{portable_compress,
                                 generic_ctr_fold<portable_compress>,
                                 "portable"};

#if defined(EYW_HAVE_SHANI_KERNEL)
constexpr Sha256Kernel kShani{detail::shani_compress,
                              generic_ctr_fold<detail::shani_compress>,
                              "shani"};
#endif

const Sha256Kernel* resolve_active() noexcept {
  const char* env = std::getenv("EYW_SHA256_KERNEL");
  const std::string_view pref = env != nullptr ? env : "auto";
  // An unavailable request degrades down the ladder avx512 -> shani ->
  // portable: the override is a test knob, not a correctness switch, and
  // every backend computes the same bits.
  if (pref == "portable") return &kPortable;
  if (pref != "shani") {
    if (const Sha256Kernel* avx512 = avx512_sha256_kernel()) return avx512;
  }
  if (const Sha256Kernel* shani = shani_sha256_kernel()) return shani;
  return &kPortable;
}

}  // namespace

const Sha256Kernel& portable_sha256_kernel() noexcept { return kPortable; }

bool cpu_supports_sha_ni() noexcept {
  // SHA-NI works on XMM registers only, whose state every x86-64 OS
  // saves: CPUID.7:EBX[29] is the whole probe.
  return util::cpuid7_ebx_has(29);
}

bool cpu_supports_avx512f() noexcept {
  return util::cpuid7_ebx_has(16) && util::os_saves_xstate(util::kXcr0Zmm);
}

const Sha256Kernel* shani_sha256_kernel() noexcept {
#if defined(EYW_HAVE_SHANI_KERNEL)
  static const bool usable = cpu_supports_sha_ni();
  return usable ? &kShani : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernel* avx512_sha256_kernel() noexcept {
#if defined(EYW_HAVE_AVX512_SHA256)
  // Single-block hashing keeps the best compression the host has.
  static const Sha256Kernel kernel{
      shani_sha256_kernel() != nullptr ? shani_sha256_kernel()->compress
                                       : portable_compress,
      detail::avx512_ctr_fold, "avx512"};
  static const bool usable = cpu_supports_avx512f();
  return usable ? &kernel : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernel& active_sha256_kernel() noexcept {
  static const Sha256Kernel* chosen = resolve_active();
  return *chosen;
}

}  // namespace eyw::crypto
