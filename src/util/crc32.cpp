#include "util/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ACEX_CRC32_FOLD 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace acex {
namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table, and
/// `t[s][b]` is the register contribution of byte `b` followed by `s` more
/// bytes, so eight lookups advance the register by eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian 32-bit load assembled from bytes, so the 8-byte step is the
/// same on every byte order (compilers fuse it into one load on x86).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

#ifdef ACEX_CRC32_FOLD
// Carry-less-multiply folding in the bit-reflected domain of the IEEE
// polynomial: Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009). Each fold constant is
// x^d mod P for its fold distance d, bit-reflected and shifted left by one.
#define ACEX_CLMUL __attribute__((target("pclmul,sse4.1")))

/// Inputs shorter than one 64-byte stride stay on the portable kernel.
constexpr std::size_t kFoldMin = 64;

bool fold_available() noexcept {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
  }();
  return available;
}

ACEX_CLMUL inline __m128i load128(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves the remainder held in `acc` further along the message (its low
/// half times k's low constant, its high half times k's high one) and adds
/// `next`, the 16 bytes that now line up with it.
ACEX_CLMUL inline __m128i fold(__m128i acc, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Advances the raw register `state` over `n` bytes at `p`, where `n` is at
/// least kFoldMin and a multiple of 16.
ACEX_CLMUL std::uint32_t crc32_fold(std::uint32_t state, const std::uint8_t* p,
                                    std::size_t n) noexcept {
  // k1, k2: x^(512+32), x^(512-32) mod P — one 64-byte stride.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // k3, k4: x^(128+32), x^(128-32) mod P — one 16-byte lane.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // k5: x^64 mod P — the 64 -> 32 bit step.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // P' (P with its x^32 term) and mu = floor(x^64 / P), for Barrett.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four 128-bit lanes, each holding the remainder of every fourth 16 bytes.
  __m128i a0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = load128(p + 16);
  __m128i a2 = load128(p + 32);
  __m128i a3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    a0 = fold(a0, k1k2, load128(p));
    a1 = fold(a1, k1k2, load128(p + 16));
    a2 = fold(a2, k1k2, load128(p + 32));
    a3 = fold(a3, k1k2, load128(p + 48));
  }

  // Four lanes into one, then any 16-byte lanes left over.
  __m128i acc = fold(a0, k3k4, a1);
  acc = fold(acc, k3k4, a2);
  acc = fold(acc, k3k4, a3);
  for (; n >= 16; p += 16, n -= 16) acc = fold(acc, k3k4, load128(p));

  // 128 -> 64 bits: the low half times k4, added into the high half.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k3k4, 0x10));
  // 64 -> 32 bits over a 64-bit remainder: the low word times k5.
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00));
  // Barrett: q = floor(R * mu / x^64), then R - q * P' leaves the register
  // in the second 32-bit word.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}
#endif  // ACEX_CRC32_FOLD

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::uint32_t state, ByteView data) noexcept {
  std::uint32_t c = state;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

}  // namespace detail

void Crc32::update(ByteView data) noexcept {
#ifdef ACEX_CRC32_FOLD
  if (data.size() >= kFoldMin && fold_available()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    state_ = crc32_fold(state_, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  state_ = detail::crc32_portable(state_, data);
}

std::uint32_t crc32(ByteView data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace acex
