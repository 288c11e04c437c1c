/* ChaCha20 keystream (RFC 8439 §2.3-2.4) in C.

   [splitbft_chacha20_xor key nonce counter src soff dst doff len wide] XORs
   [len] keystream bytes, starting at block [counter] (its low 32 bits,
   wrapping modulo 2^32 as the RFC's 32-bit block counter does), into
   [src[soff ..]] and writes the result to [dst[doff ..]].  The key and
   nonce words are loaded as explicit little-endian bytes, so the output
   is the same on every host.  It checks nothing: the caller guarantees a
   32-byte key, a 12-byte nonce and both ranges in bounds.  [src] and
   [dst] may be the same buffer at the same offset.

   On x86-64 the bulk of a message goes through a 4-block SSE2 kernel:
   each 128-bit register holds one state word of four consecutive blocks,
   so one pass of the rounds yields 256 keystream bytes.  SSE2 is part of
   the x86-64 baseline, so the kernel needs no CPUID check.  The scalar
   block function serves tails shorter than 256 bytes and every other
   architecture; a false [wide] makes it serve the whole message, so the
   test suite can check one kernel against the other. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>

#if defined(__x86_64__) && defined(__SSE2__)
#include <emmintrin.h>
#define SPLITBFT_CHACHA20_X4 1
#endif

static uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

#define ROTL(x, n) (((x) << (n)) | ((x) >> (32 - (n))))
#define QR(a, b, c, d)                                                    \
  do {                                                                    \
    a += b; d ^= a; d = ROTL(d, 16);                                      \
    c += d; b ^= c; b = ROTL(b, 12);                                      \
    a += b; d ^= a; d = ROTL(d, 8);                                       \
    c += d; b ^= c; b = ROTL(b, 7);                                       \
  } while (0)

/* The 64-byte keystream block of state [in]. */
static void keystream(const uint32_t in[16], unsigned char out[64])
{
  uint32_t x[16];
  for (int i = 0; i < 16; i++) x[i] = in[i];
  for (int i = 0; i < 10; i++) {
    QR(x[0], x[4], x[8], x[12]);
    QR(x[1], x[5], x[9], x[13]);
    QR(x[2], x[6], x[10], x[14]);
    QR(x[3], x[7], x[11], x[15]);
    QR(x[0], x[5], x[10], x[15]);
    QR(x[1], x[6], x[11], x[12]);
    QR(x[2], x[7], x[8], x[13]);
    QR(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++) {
    uint32_t v = x[i] + in[i];
    out[4 * i] = (unsigned char)v;
    out[4 * i + 1] = (unsigned char)(v >> 8);
    out[4 * i + 2] = (unsigned char)(v >> 16);
    out[4 * i + 3] = (unsigned char)(v >> 24);
  }
}

#ifdef SPLITBFT_CHACHA20_X4
#define ROTV(x, n) _mm_or_si128(_mm_slli_epi32((x), (n)), _mm_srli_epi32((x), 32 - (n)))
/* Rotating a 32-bit lane by 16 swaps its 16-bit halves. */
#define ROTV16(x) _mm_shufflehi_epi16(_mm_shufflelo_epi16((x), 0xb1), 0xb1)
#define QRV(a, b, c, d)                                                   \
  do {                                                                    \
    a = _mm_add_epi32(a, b); d = ROTV16(_mm_xor_si128(d, a));             \
    c = _mm_add_epi32(c, d); b = ROTV(_mm_xor_si128(b, c), 12);           \
    a = _mm_add_epi32(a, b); d = ROTV(_mm_xor_si128(d, a), 8);            \
    c = _mm_add_epi32(c, d); b = ROTV(_mm_xor_si128(b, c), 7);            \
  } while (0)

/* XORs the four keystream blocks [st[12]] .. [st[12] + 3] (counters
   wrapping modulo 2^32) into the 256 bytes at [s] and stores them at
   [d]. */
static void xor4(const uint32_t st[16], const unsigned char *s, unsigned char *d)
{
  __m128i in[16], x[16];
  for (int i = 0; i < 16; i++) in[i] = _mm_set1_epi32((int)st[i]);
  in[12] = _mm_add_epi32(in[12], _mm_set_epi32(3, 2, 1, 0));
  for (int i = 0; i < 16; i++) x[i] = in[i];
  for (int i = 0; i < 10; i++) {
    QRV(x[0], x[4], x[8], x[12]);
    QRV(x[1], x[5], x[9], x[13]);
    QRV(x[2], x[6], x[10], x[14]);
    QRV(x[3], x[7], x[11], x[15]);
    QRV(x[0], x[5], x[10], x[15]);
    QRV(x[1], x[6], x[11], x[12]);
    QRV(x[2], x[7], x[8], x[13]);
    QRV(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++) x[i] = _mm_add_epi32(x[i], in[i]);
  /* Transpose each group of four words: lane b of x[4g .. 4g + 3] is
     words 4g .. 4g + 3 of block b, i.e. its bytes 16g .. 16g + 15. */
  for (int g = 0; g < 4; g++) {
    __m128i t0 = _mm_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    __m128i t1 = _mm_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    __m128i t2 = _mm_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    __m128i t3 = _mm_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    __m128i b[4];
    b[0] = _mm_unpacklo_epi64(t0, t1);
    b[1] = _mm_unpackhi_epi64(t0, t1);
    b[2] = _mm_unpacklo_epi64(t2, t3);
    b[3] = _mm_unpackhi_epi64(t2, t3);
    for (int k = 0; k < 4; k++) {
      intnat off = 64 * k + 16 * g;
      __m128i m = _mm_loadu_si128((const __m128i *)(s + off));
      _mm_storeu_si128((__m128i *)(d + off), _mm_xor_si128(m, b[k]));
    }
  }
}
#endif

value splitbft_chacha20_xor(value key, value nonce, value counter, value src,
                            value soff, value dst, value doff, value len, value wide)
{
  const unsigned char *k = (const unsigned char *)String_val(key);
  const unsigned char *n = (const unsigned char *)String_val(nonce);
  const unsigned char *s = (const unsigned char *)String_val(src) + Long_val(soff);
  unsigned char *d = Bytes_val(dst) + Long_val(doff);
  intnat remaining = Long_val(len);
  uint32_t st[16];
  unsigned char ks[64];

  /* "expand 32-byte k" */
  st[0] = 0x61707865;
  st[1] = 0x3320646e;
  st[2] = 0x79622d32;
  st[3] = 0x6b206574;
  for (int i = 0; i < 8; i++) st[4 + i] = load32_le(k + 4 * i);
  st[12] = (uint32_t)Long_val(counter);
  for (int i = 0; i < 3; i++) st[13 + i] = load32_le(n + 4 * i);

#ifdef SPLITBFT_CHACHA20_X4
  if (Bool_val(wide)) {
    while (remaining >= 256) {
      xor4(st, s, d);
      s += 256;
      d += 256;
      remaining -= 256;
      st[12] += 4;
    }
  }
#else
  (void)wide;
#endif
  while (remaining > 0) {
    intnat take = remaining < 64 ? remaining : 64;
    keystream(st, ks);
    for (intnat i = 0; i < take; i++) d[i] = s[i] ^ ks[i];
    s += take;
    d += take;
    remaining -= take;
    st[12]++;
  }
  return Val_unit;
}

value splitbft_chacha20_xor_bc(value *argv, int argn)
{
  (void)argn;
  return splitbft_chacha20_xor(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8]);
}
