/* SHA-256 block compression with the x86-64 SHA extensions.

   [splitbft_sha256_hw_available] reports whether the CPU has them (CPUID
   leaf 7 EBX bit 29, plus SSSE3 and SSE4.1 from leaf 1 ECX); Sha256 asks
   once, at module initialisation, and otherwise runs its OCaml kernel.
   [splitbft_sha256_compress] absorbs the 64 bytes at [off] of the string
   into the 8-word [int array] state, in place.  It checks no bounds: the
   caller guarantees a state of 8 words and [off + 64 <= length].  Off
   x86-64 the file reports "unavailable" and the compress stub is never
   called. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k[64] = {
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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

__attribute__((target("sha,sse4.1")))
static void compress(value state, const unsigned char *p)
{
  uint32_t h[8];
  for (int i = 0; i < 8; i++) h[i] = (uint32_t)Long_val(Field(state, i));

  /* The rounds instruction works on the (ABEF, CDGH) register layout. */
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[0]), 0xB1);
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[4]), 0x1B);
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);
  const __m128i abef = s0, cdgh = s1;

  /* Big-endian message words, four per register; m[i & 3] holds words
     4i..4i+3 while group i runs, and is then replaced by group i + 4. */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i m[4];
  for (int i = 0; i < 4; i++)
    m[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * i)), bswap);

#pragma GCC unroll 16
  for (int i = 0; i < 16; i++) {
    __m128i msg = _mm_add_epi32(m[i & 3], _mm_loadu_si128((const __m128i *)&k[4 * i]));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(msg, 0x0E));
    if (i < 12) {
      __m128i w = _mm_sha256msg1_epu32(m[i & 3], m[(i + 1) & 3]);
      w = _mm_add_epi32(w, _mm_alignr_epi8(m[(i + 3) & 3], m[(i + 2) & 3], 4));
      m[i & 3] = _mm_sha256msg2_epu32(w, m[(i + 3) & 3]);
    }
  }

  s0 = _mm_add_epi32(s0, abef);
  s1 = _mm_add_epi32(s1, cdgh);
  tmp = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&h[0], _mm_blend_epi16(tmp, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&h[4], _mm_alignr_epi8(s1, tmp, 8));

  /* Immediate ints: no write barrier needed. */
  for (int i = 0; i < 8; i++) Field(state, i) = Val_long(h[i]);
}

value splitbft_sha256_compress(value state, value block, value off)
{
  compress(state, (const unsigned char *)String_val(block) + Long_val(off));
  return Val_unit;
}

value splitbft_sha256_hw_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool(b & (1u << 29));
}

#else

value splitbft_sha256_compress(value state, value block, value off)
{
  (void)state; (void)block; (void)off;
  return Val_unit;
}

value splitbft_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

#endif
