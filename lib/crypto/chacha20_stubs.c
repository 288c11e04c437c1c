/* ChaCha20 keystream (RFC 8439 §2.3-2.4) in portable C.

   [splitbft_chacha20_xor key nonce counter src soff dst doff len] XORs
   [len] keystream bytes, starting at block [counter] (its low 32 bits,
   wrapping modulo 2^32 as the RFC's 32-bit block counter does), into
   [src[soff ..]] and writes the result to [dst[doff ..]].  The key and
   nonce words are loaded as explicit little-endian bytes, so the output
   is the same on every host.  It checks nothing: the caller guarantees a
   32-byte key, a 12-byte nonce and both ranges in bounds.  [src] and
   [dst] may be the same buffer at the same offset. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>

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

value splitbft_chacha20_xor(value key, value nonce, value counter, value src,
                            value soff, value dst, value doff, value len)
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
                               argv[5], argv[6], argv[7]);
}
