/* The byte compare behind [Fblob.run_equal]: the length of the run of
   equal bytes of two strings, going forward from [ai] and [bi] or
   backward from just before them, at most [len].  Blocks of 4096, 512,
   64 and 8 bytes are compared with memcmp while they match, then single
   bytes, so a long equal run costs a few large compares and the first
   difference is pinned down within the block that holds it.

   The OCaml side has checked both ranges; the stub is [@@noalloc]: it
   never allocates, raises or releases the runtime lock, so the strings
   cannot move underneath it. */

#include <string.h>
#include <caml/mlvalues.h>

static const intnat widths[] = { 4096, 512, 64, 8, 1 };

value fb_blob_run_equal(value back, value a, value ai, value b, value bi,
                        value len)
{
  const unsigned char *pa = (const unsigned char *) String_val(a) + Long_val(ai);
  const unsigned char *pb = (const unsigned char *) String_val(b) + Long_val(bi);
  intnat n = Long_val(len), k = 0;
  size_t i;
  if (Bool_val(back)) {
    for (i = 0; i < sizeof widths / sizeof widths[0]; i++) {
      intnat w = widths[i];
      while (k + w <= n && memcmp(pa - k - w, pb - k - w, w) == 0) k += w;
    }
  } else {
    for (i = 0; i < sizeof widths / sizeof widths[0]; i++) {
      intnat w = widths[i];
      while (k + w <= n && memcmp(pa + k, pb + k, w) == 0) k += w;
    }
  }
  return Val_long(k);
}

value fb_blob_run_equal_byte(value *argv, int argn)
{
  (void) argn;
  return fb_blob_run_equal(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5]);
}
