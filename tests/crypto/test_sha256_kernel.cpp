// Differential suite for the SHA-256 kernels: the SHA-NI compression
// must agree bit-for-bit with the portable scalar compression on single
// blocks, multi-block chains, and through the public digest /
// counter-mode-expansion APIs (skipping cleanly when SHA-NI is not
// compiled in or the CPU lacks it — the portable compression is the
// oracle), and every backend's counter-mode pad fold must equal its
// definition: sha256_expand read as big-endian cells.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace eyw::crypto {
namespace {

class Sha256KernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    shani_ = shani_sha256_kernel();
    if (shani_ == nullptr)
      GTEST_SKIP() << "SHA-NI kernel unavailable (not compiled in or CPU "
                      "lacks SHA extensions) — portable compression is the "
                      "only backend, nothing to differentiate";
  }

  const Sha256Kernel* shani_ = nullptr;
  const Sha256Kernel& portable_ = portable_sha256_kernel();
};

TEST_F(Sha256KernelDifferential, SingleBlockAgreesOnRandomInputs) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t block[64];
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, block, 1);
    shani_->compress(got, block, 1);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "trial " << trial;
  }
}

TEST_F(Sha256KernelDifferential, MultiBlockChainingAgrees) {
  util::Rng rng(42);
  // Chained compressions over every count a bulk update() might issue,
  // including the empty call.
  for (const std::size_t blocks : {0u, 1u, 2u, 3u, 7u, 16u, 65u}) {
    std::vector<std::uint8_t> data(blocks * 64);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, data.data(), blocks);
    shani_->compress(got, data.data(), blocks);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << blocks << " blocks";
  }
}

TEST_F(Sha256KernelDifferential, UnalignedBlockPointersAgree) {
  util::Rng rng(43);
  std::vector<std::uint8_t> backing(64 * 3 + 16);
  for (std::uint8_t& b : backing) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t off = 0; off < 16; ++off) {
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, backing.data() + off, 3);
    shani_->compress(got, backing.data() + off, 3);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "offset " << off;
  }
}

// The known-answer vectors guard the glue above the kernel (padding,
// digest byte order) — whichever backend is active must still be SHA-256.
TEST(Sha256KernelGlue, FipsVectorsHoldOnActiveKernel) {
  const Digest empty = sha256(std::string_view(""));
  const char* want_empty =
      "\xe3\xb0\xc4\x42\x98\xfc\x1c\x14\x9a\xfb\xf4\xc8\x99\x6f\xb9\x24"
      "\x27\xae\x41\xe4\x64\x9b\x93\x4c\xa4\x95\x99\x1b\x78\x52\xb8\x55";
  EXPECT_EQ(0, std::memcmp(empty.data(), want_empty, 32));

  const Digest abc = sha256(std::string_view("abc"));
  const char* want_abc =
      "\xba\x78\x16\xbf\x8f\x01\xcf\xea\x41\x41\x40\xde\x5d\xae\x22\x23"
      "\xb0\x03\x61\xa3\x96\x17\x7a\x9c\xb4\x10\xff\x61\xf2\x00\x15\xad";
  EXPECT_EQ(0, std::memcmp(abc.data(), want_abc, 32));

  // Two-block message (56 bytes forces the length into a second block).
  const Digest two = sha256(std::string_view(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  const char* want_two =
      "\x24\x8d\x6a\x61\xd2\x06\x38\xb8\xe5\xc0\x26\x93\x0c\x3e\x60\x39"
      "\xa3\x3c\xe4\x59\x64\xff\x21\x67\xf6\xec\xed\xd4\x19\xdb\x06\xc1";
  EXPECT_EQ(0, std::memcmp(two.data(), want_two, 32));
}

// The expansion fast path (prepared padded block, raw compressions from
// the IV) must produce exactly the incremental-API stream for every
// length split, including non-multiple-of-32 tails.
TEST(Sha256KernelGlue, ExpandFastPathMatchesIncrementalReference) {
  util::Rng rng(44);
  std::array<std::uint8_t, 32> seed;
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u, 4096u}) {
    std::vector<std::uint8_t> fast(len);
    sha256_expand_into(seed, fast);
    std::vector<std::uint8_t> want(len);
    std::uint64_t counter = 0;
    std::size_t off = 0;
    while (off < want.size()) {
      Sha256 h;
      h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
      h.update_u64(counter++);
      const Digest d = h.finish();
      const std::size_t take = std::min<std::size_t>(32, want.size() - off);
      std::memcpy(want.data() + off, d.data(), take);
      off += take;
    }
    EXPECT_EQ(fast, want) << "len " << len;
  }
}

/// Every backend this host can run; portable first.
std::vector<const Sha256Kernel*> available_kernels() {
  std::vector<const Sha256Kernel*> kernels = {&portable_sha256_kernel()};
  for (const Sha256Kernel* k : {shani_sha256_kernel(), avx512_sha256_kernel()})
    if (k != nullptr) kernels.push_back(k);
  return kernels;
}

/// The fold's definition: acc[i] ±= big-endian word i of
/// sha256_expand(seed, 4 * cells).
void reference_fold(std::uint32_t* acc, std::size_t cells,
                    const Digest& seed, bool add) {
  std::vector<std::uint8_t> stream(cells * 4);
  sha256_expand_into(seed, stream);
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint32_t v = (static_cast<std::uint32_t>(stream[4 * i]) << 24) |
                            (static_cast<std::uint32_t>(stream[4 * i + 1]) << 16) |
                            (static_cast<std::uint32_t>(stream[4 * i + 2]) << 8) |
                            static_cast<std::uint32_t>(stream[4 * i + 3]);
    acc[i] = add ? acc[i] + v : acc[i] - v;
  }
}

// Cell counts straddle the 8-cell block and the AVX-512 kernel's
// 128-cell pass at both ends; 7072 is the blinded round's sketch size,
// 7077 a ragged tail after it.
TEST(Sha256CtrFold, EveryBackendMatchesExpandDefinition) {
  util::Rng rng(45);
  for (int trial = 0; trial < 3; ++trial) {
    Digest seed;
    for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
    for (const std::size_t cells :
         {0u, 1u, 7u, 8u, 9u, 127u, 128u, 129u, 7072u, 7077u}) {
      // One spare word on each side: the fold must touch exactly
      // acc[0, cells), and acc starts one word past the allocation's
      // alignment.
      std::vector<std::uint32_t> base(cells + 2);
      for (std::uint32_t& c : base) c = static_cast<std::uint32_t>(rng.next());
      for (const bool add : {true, false}) {
        std::vector<std::uint32_t> want = base;
        reference_fold(want.data() + 1, cells, seed, add);
        for (const Sha256Kernel* k : available_kernels()) {
          std::vector<std::uint32_t> got = base;
          k->ctr_fold(got.data() + 1, cells, seed.data(), add);
          EXPECT_EQ(want, got) << k->name << " cells=" << cells
                               << " add=" << add << " trial=" << trial;
        }
      }
    }
  }
}

TEST(Sha256CtrFold, EveryAccAlignmentAgrees) {
  util::Rng rng(46);
  Digest seed;
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  constexpr std::size_t kCells = 300;  // two full passes + a tail
  std::vector<std::uint32_t> base(kCells + 16);
  for (std::uint32_t& c : base) c = static_cast<std::uint32_t>(rng.next());
  for (std::size_t off = 0; off < 16; ++off) {
    std::vector<std::uint32_t> want = base;
    reference_fold(want.data() + off, kCells, seed, true);
    for (const Sha256Kernel* k : available_kernels()) {
      std::vector<std::uint32_t> got = base;
      k->ctr_fold(got.data() + off, kCells, seed.data(), true);
      EXPECT_EQ(want, got) << k->name << " offset=" << off;
    }
  }
}

// Pinned pad: seed 00 01 .. 1f, cells 0-7 = SHA-256(seed || be64(0)),
// cells 8-15 = SHA-256(seed || be64(1)), computed outside this code base.
// Guards the pad definition itself, which every peer must share.
TEST(Sha256CtrFold, KnownAnswerFirstSixteenCells) {
  Digest seed;
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<std::uint8_t>(i);
  const std::vector<std::uint32_t> want = {
      0xa9d6e500, 0x293a88bd, 0x38cbe213, 0xd07ab71f, 0x8cb22585, 0x52072a01,
      0xbdf1c40b, 0xe527f4d0, 0x6061c438, 0x6d7a1788, 0xba52e2e8, 0xb2ee6fe6,
      0x137644ec, 0x75a70bf7, 0x042cfd67, 0xa1e57bd3};
  for (const Sha256Kernel* k : available_kernels()) {
    std::vector<std::uint32_t> got(16, 0);
    k->ctr_fold(got.data(), got.size(), seed.data(), true);
    EXPECT_EQ(want, got) << k->name;
  }
  std::vector<std::uint32_t> active(16, 0);
  sha256_ctr_fold(seed, active, true);
  EXPECT_EQ(want, active);
  // Subtracting the pad from zero is its wrapping negation.
  std::vector<std::uint32_t> negated(16, 0);
  sha256_ctr_fold(seed, negated, false);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(negated[i], 0u - want[i]) << "cell " << i;
}

TEST(Sha256KernelSelection, ActiveKernelRespectsEnvOverride) {
  const Sha256Kernel& active = active_sha256_kernel();
  const std::string_view name = active.name;
  const char* env = ::getenv("EYW_SHA256_KERNEL");
  if (env != nullptr && std::string_view(env) == "portable")
    EXPECT_EQ(name, "portable");
  else if (env != nullptr && std::string_view(env) == "shani")
    EXPECT_TRUE(name == "portable" || name == "shani");
  else
    EXPECT_TRUE(name == "portable" || name == "shani" || name == "avx512");
  if (name == "shani") EXPECT_NE(shani_sha256_kernel(), nullptr);
  if (name == "avx512") {
    EXPECT_NE(avx512_sha256_kernel(), nullptr);
    // Single-block hashing keeps the host's best compression.
    const Sha256Kernel* shani = shani_sha256_kernel();
    EXPECT_EQ(active.compress, shani != nullptr
                                   ? shani->compress
                                   : portable_sha256_kernel().compress);
  }
}

}  // namespace
}  // namespace eyw::crypto
