/* SHA-256 block compression with the x86 SHA extensions (SHA-NI).

   [fb_sha256_hw_available] is the CPUID probe the OCaml side runs once at
   module init; [fb_sha256_hw_compress] folds [n] whole 64-byte blocks,
   read straight from an OCaml string or bytes starting at [off], into the
   8-word state held in an OCaml [int array].  Both are [@@noalloc]: they
   never allocate, raise or release the runtime lock, so the caller's
   buffer cannot move underneath them.  The caller has already checked
   that [off + 64 * n] lies inside the buffer.

   The intrinsics are compiled per function with a target attribute, not
   a global -msha, so the rest of the file (and the library) keeps the
   baseline ISA.  On other architectures the probe reports "unavailable"
   and the OCaml reference compression is the only path. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k256[64] __attribute__((aligned(16))) = {
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

static int hw_available(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

/* Four rounds on the schedule words in [m]: sha256rnds2 does two rounds
   per call, taking W+K from the low half of its third operand. */
#define RNDS(g, m)                                                        \
  do {                                                                    \
    __m128i wk_ =                                                         \
      _mm_add_epi32((m), _mm_load_si128((const __m128i *)&k256[4 * (g)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);                        \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk_, 0x0E)); \
  } while (0)

/* Finish the next group's schedule words from the current and previous
   groups (sha256msg1 started them three groups earlier). */
#define MSG2(next, cur, prev)                                             \
  next = _mm_sha256msg2_epu32(                                            \
    _mm_add_epi32((next), _mm_alignr_epi8((cur), (prev), 4)), (cur))

#define MSG1(prev, cur) prev = _mm_sha256msg1_epu32((prev), (cur))

/* A middle group: rounds, then extend the schedule both ways. */
#define GROUP(g, cur, prev, next) \
  RNDS(g, cur);                   \
  MSG2(next, cur, prev);          \
  MSG1(prev, cur)

__attribute__((target("sha,ssse3,sse4.1")))
static void hw_compress(uint32_t st[8], const unsigned char *p, intnat n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* The rounds instruction wants the state as ABEF / CDGH lanes. */
  __m128i dcba = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&st[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0, m1, m2, m3;

    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    RNDS(0, m0);
    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    RNDS(1, m1);
    MSG1(m0, m1);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    RNDS(2, m2);
    MSG1(m1, m2);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    GROUP(3, m3, m2, m0);
    GROUP(4, m0, m3, m1);
    GROUP(5, m1, m0, m2);
    GROUP(6, m2, m1, m3);
    GROUP(7, m3, m2, m0);
    GROUP(8, m0, m3, m1);
    GROUP(9, m1, m0, m2);
    GROUP(10, m2, m1, m3);
    GROUP(11, m3, m2, m0);
    GROUP(12, m0, m3, m1);
    RNDS(13, m1);
    MSG2(m2, m1, m0);
    RNDS(14, m2);
    MSG2(m3, m2, m1);
    RNDS(15, m3);

    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

#else

static int hw_available(void) { return 0; }

static void hw_compress(uint32_t st[8], const unsigned char *p, intnat n)
{
  (void)st; (void)p; (void)n;
}

#endif

value fb_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_bool(hw_available());
}

value fb_sha256_hw_compress(value h, value src, value off, value n)
{
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  hw_compress(st, (const unsigned char *)String_val(src) + Long_val(off),
              Long_val(n));
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}
