/*
 * The SR engine's convolution (repro.nn.functional.conv2d_shift_padded):
 * stride 1, 'same', over one frame of the padded-stride layout, with the
 * bias / ReLU / res_scale / residual epilogue fused in.
 *
 * Layout: pixels are the rows of a flat (length, C) buffer; each of the
 * frame's h image rows is followed by 2*pad zero pixels, and the image
 * sits between pad*(w+2*pad)+pad zero pixels before and after it.  Tap
 * (i, j) of output pixel q reads input pixel q + (i-KH/2)*(w+2*pad) +
 * (j-KW/2), so no tap ever needs a bounds check.
 *
 * The arithmetic is that of the sgemm tap sequence it replaced, step for
 * step, so the output bits are the same:
 *   - per tap, every output channel is an FMA chain over ci = 0..Cin-1
 *     that starts from +0 (what a BLAS micro-kernel computes for K = Cin);
 *   - the taps are added in (i, j) row-major order, one rounding each:
 *     c = acc_0, then c = c + acc_t;
 *   - the epilogue adds the bias, takes the ReLU (NaN kept, -0 to +0, as
 *     numpy's maximum(v, 0)), multiplies by res_scale and adds the
 *     residual, one rounding per step.
 * Build with -ffp-contract=off, or the compiler fuses the epilogue's
 * res_scale multiply and residual add into one FMA and the bits move.
 *
 * Three variants compute that chain, lanes across output channels:
 * AVX-512, AVX2+FMA and scalar fmaf.  The widest one the compiler targets
 * is built; SHIFT_CONV_NO_AVX512 / SHIFT_CONV_NO_AVX2 rule one out.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX512F__) && !defined(SHIFT_CONV_NO_AVX512)

#include <immintrin.h>
#define ISA "avx512"
#define VW 16
typedef __m512 vec;
typedef __mmask16 vmask;
#define VZERO() _mm512_setzero_ps()
#define VSET1(s) _mm512_set1_ps(s)
#define VLOAD(p) _mm512_loadu_ps(p)
#define VSTORE(p, v) _mm512_storeu_ps(p, v)
#define VLOADM(p, k) _mm512_maskz_loadu_ps(k, p)
#define VSTOREM(p, k, v) _mm512_mask_storeu_ps(p, k, v)
#define VFMA(a, b, c) _mm512_fmadd_ps(a, b, c)
#define VADD(a, b) _mm512_add_ps(a, b)
#define VMUL(a, b) _mm512_mul_ps(a, b)
#define VRELU(v) _mm512_maskz_mov_ps( \
    _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NLE_UQ), v)
#define LANES(n) ((vmask)((1u << (n)) - 1u))
/* Pixels per block, by vectors per pixel: 24 accumulators in registers. */
#define PIXELS(nv) ((nv) >= 4 ? 3 : 12 / (nv))

#elif defined(__AVX2__) && defined(__FMA__) && !defined(SHIFT_CONV_NO_AVX2)

#include <immintrin.h>
#define ISA "avx2"
#define VW 8
typedef __m256 vec;
typedef __m256i vmask;
#define VZERO() _mm256_setzero_ps()
#define VSET1(s) _mm256_set1_ps(s)
#define VLOAD(p) _mm256_loadu_ps(p)
#define VSTORE(p, v) _mm256_storeu_ps(p, v)
#define VLOADM(p, k) _mm256_maskload_ps(p, k)
#define VSTOREM(p, k, v) _mm256_maskstore_ps(p, k, v)
#define VFMA(a, b, c) _mm256_fmadd_ps(a, b, c)
#define VADD(a, b) _mm256_add_ps(a, b)
#define VMUL(a, b) _mm256_mul_ps(a, b)
#define VRELU(v) _mm256_and_ps( \
    _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NLE_UQ), v)
#define LANES(n) _mm256_cmpgt_epi32(_mm256_set1_epi32(n), \
    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
/* 12 of the 16 ymm registers hold accumulators. */
#define PIXELS(nv) ((nv) >= 6 ? 1 : 6 / (nv))

#else

#define ISA "scalar"
#define VW 1
typedef float vec;
typedef int vmask;
#define VZERO() 0.0f
#define VSET1(s) (s)
#define VLOAD(p) (*(p))
#define VSTORE(p, v) (*(p) = (v))
#define VLOADM(p, k) (*(p))
#define VSTOREM(p, k, v) (*(p) = (v))
#define VFMA(a, b, c) fmaf(a, b, c)
#define VADD(a, b) ((a) + (b))
#define VMUL(a, b) ((a) * (b))
#define VRELU(v) (!((v) <= 0.0f) ? (v) : 0.0f)
#define LANES(n) (n)
#define PIXELS(nv) 1

#endif

#define INLINE static inline __attribute__((always_inline))

/* One conv over one frame, its operands laid out for the vector width. */
typedef struct {
    const float *x;     /* (length, cin) input */
    const float *w;     /* (ntaps, cin, nv*VW) taps, lanes past cout zero */
    const float *bias;  /* (nv*VW) bias, -0 without one */
    const float *res;   /* (length, cout) residual, or NULL */
    float *out;         /* (length, cout) */
    const long *offs;   /* (ntaps) tap offsets in pixels */
    long ntaps, cin, cout, nv;
    int partial;        /* the last vector holds fewer than VW channels */
    vmask last;         /* ... and these are its lanes */
    int relu;
    float res_scale;
} conv_t;

/* sum[p*nv + v] = tap t of pixels q..q+np-1, vectors v0..v0+nv-1: one FMA
 * chain over the input channels per lane, from +0. */
INLINE void tap_sums(const conv_t *a, long q, long t, long v0, long cin,
                     long nv, long np, vec *sum)
{
    const long stride = a->nv * VW;
    const float *x = a->x + (q + a->offs[t]) * cin;
    const float *w = a->w + t * cin * stride + v0 * VW;
#pragma GCC unroll 64
    for (long i = 0; i < np * nv; i++)
        sum[i] = VZERO();
    for (long ci = 0; ci < cin; ci++) {
#pragma GCC unroll 8
        for (long v = 0; v < nv; v++) {
            const vec wv = VLOAD(w + ci * stride + v * VW);
#pragma GCC unroll 16
            for (long p = 0; p < np; p++)
                sum[p * nv + v] = VFMA(VSET1(x[p * cin + ci]), wv,
                                       sum[p * nv + v]);
        }
    }
}

/* Output pixels q..q+np-1, vectors v0..v0+nv-1: the taps in order, then
 * the epilogue, then the store.  c and acc hold np*nv vectors each.  An
 * absent epilogue step runs on a neutral operand, which returns every
 * float unchanged (x + -0 and x*1), so the steps need no branches. */
INLINE void pixels(const conv_t *a, long q, long v0, long cin, long nv,
                   long np, vec *c, vec *acc)
{
    tap_sums(a, q, 0, v0, cin, nv, np, c);
    for (long t = 1; t < a->ntaps; t++) {
        tap_sums(a, q, t, v0, cin, nv, np, acc);
#pragma GCC unroll 64
        for (long i = 0; i < np * nv; i++)
            c[i] = VADD(c[i], acc[i]);
    }
#pragma GCC unroll 16
    for (long p = 0; p < np; p++) {
#pragma GCC unroll 8
        for (long v = 0; v < nv; v++) {
            const long lane0 = (v0 + v) * VW;
            const long at = (q + p) * a->cout + lane0;
            const int part = a->partial && v0 + v == a->nv - 1;
            vec r = VADD(c[p * nv + v], VLOAD(a->bias + lane0));
            if (a->relu)
                r = VRELU(r);
            vec res = VSET1(-0.0f);
            if (a->res)
                res = part ? VLOADM(a->res + at, a->last)
                           : VLOAD(a->res + at);
            r = VADD(VMUL(r, VSET1(a->res_scale)), res);
            if (part)
                VSTOREM(a->out + at, a->last, r);
            else
                VSTORE(a->out + at, r);
        }
    }
}

/* Every image pixel of the frame, np at a time along each row. */
INLINE void frame(const conv_t *a, long h, long w, long wp, long lead,
                  long cin, long nv, long np, vec *c, vec *acc)
{
    for (long r = 0; r < h; r++) {
        long q = lead + r * wp;
        const long end = q + w;
        for (; q + np <= end; q += np)
            pixels(a, q, 0, cin, nv, np, c, acc);
        for (; q < end; q++)
            pixels(a, q, 0, cin, nv, 1, c, acc);
    }
}

/* The micro model's channel pairs, for C in {3, 4, 6, 8, 12, 16}: head
 * (3, C), body (C, C), tail (C, 3) and upsampler (C, 4C), 3x3 taps. */
#define SPECIALISE(CIN, COUT)                                             \
    static void conv_##CIN##_##COUT(const conv_t *a, long h, long w,      \
                                    long wp, long lead)                   \
    {                                                                     \
        enum { NV = (COUT + VW - 1) / VW, NP = PIXELS(NV) };              \
        vec c[NP * NV], acc[NP * NV];                                     \
        frame(a, h, w, wp, lead, CIN, NV, NP, c, acc);                    \
    }

SPECIALISE(3, 3)   SPECIALISE(3, 12)
SPECIALISE(3, 4)   SPECIALISE(4, 4)   SPECIALISE(4, 3)   SPECIALISE(4, 16)
SPECIALISE(3, 6)   SPECIALISE(6, 6)   SPECIALISE(6, 3)   SPECIALISE(6, 24)
SPECIALISE(3, 8)   SPECIALISE(8, 8)   SPECIALISE(8, 3)   SPECIALISE(8, 32)
SPECIALISE(12, 12) SPECIALISE(12, 3)  SPECIALISE(12, 48)
SPECIALISE(3, 16)  SPECIALISE(16, 16) SPECIALISE(16, 3)  SPECIALISE(16, 64)

typedef void (*conv_fn)(const conv_t *, long, long, long, long);

static const struct { long cin, cout; conv_fn fn; } SPECIALISED[] = {
#define ENTRY(CIN, COUT) {CIN, COUT, conv_##CIN##_##COUT}
    ENTRY(3, 3),   ENTRY(3, 12),
    ENTRY(3, 4),   ENTRY(4, 4),   ENTRY(4, 3),   ENTRY(4, 16),
    ENTRY(3, 6),   ENTRY(6, 6),   ENTRY(6, 3),   ENTRY(6, 24),
    ENTRY(3, 8),   ENTRY(8, 8),   ENTRY(8, 3),   ENTRY(8, 32),
    ENTRY(12, 12), ENTRY(12, 3),  ENTRY(12, 48),
    ENTRY(3, 16),  ENTRY(16, 16), ENTRY(16, 3),  ENTRY(16, 64),
#undef ENTRY
};

/* Any other shape: one pixel and one vector at a time. */
static void conv_generic(const conv_t *a, long h, long w, long wp, long lead)
{
    vec c[1], acc[1];
    for (long r = 0; r < h; r++)
        for (long q = lead + r * wp; q < lead + r * wp + w; q++)
            for (long v = 0; v < a->nv; v++)
                pixels(a, q, v, a->cin, 1, 1, c, acc);
}

const char *shift_conv_isa(void)
{
    return ISA;
}

/* One conv over one frame of ``length`` pixels (h image rows of w pixels,
 * padded by ``pad``).  x: (length, cin); taps: (kh, kw, cin, cout);
 * bias: (cout) or NULL; res: (length, cout) or NULL; out: (length, cout),
 * written everywhere (zero outside the image).  Returns 0, or -1 when out
 * of memory. */
int shift_conv(const float *x, const float *taps, const float *bias,
               const float *res, float *out,
               long length, long w, long pad, long kh, long kw, long cin,
               long cout, int relu, float res_scale)
{
    const long wp = w + 2 * pad, lead = pad * wp + pad;
    const long h = (length - 2 * lead) / wp;
    const long nv = (cout + VW - 1) / VW, ntaps = kh * kw;
    float *packed = calloc((size_t)((ntaps * cin + 1) * nv * VW),
                           sizeof(float));
    long *offs = malloc((size_t)ntaps * sizeof(long));
    if (!packed || !offs) {
        free(packed);
        free(offs);
        return -1;
    }
    float *bias_v = packed + ntaps * cin * nv * VW;
    for (long i = 0; i < nv * VW; i++)
        bias_v[i] = bias && i < cout ? bias[i] : -0.0f;
    for (long t = 0; t < ntaps; t++) {
        offs[t] = (t / kw - kh / 2) * wp + t % kw - kw / 2;
        for (long ci = 0; ci < cin; ci++)
            memcpy(packed + (t * cin + ci) * nv * VW,
                   taps + (t * cin + ci) * cout, (size_t)cout * sizeof(float));
    }
    const long tail = cout - (nv - 1) * VW;
    const conv_t a = {
        .x = x, .w = packed, .bias = bias_v, .res = res,
        .out = out, .offs = offs, .ntaps = ntaps, .cin = cin, .cout = cout,
        .nv = nv, .partial = tail < VW, .last = LANES(tail),
        .relu = relu, .res_scale = res_scale,
    };

    conv_fn fn = conv_generic;
    if (kh == 3 && kw == 3)
        for (size_t i = 0; i < sizeof SPECIALISED / sizeof *SPECIALISED; i++)
            if (SPECIALISED[i].cin == cin && SPECIALISED[i].cout == cout)
                fn = SPECIALISED[i].fn;
    fn(&a, h, w, wp, lead);

    /* Zero outside the image: the next conv's taps read it as padding. */
    memset(out, 0, (size_t)(lead * cout) * sizeof(float));
    memset(out + (lead + h * wp) * cout, 0,
           (size_t)((length - lead - h * wp) * cout) * sizeof(float));
    for (long r = 0; r < h; r++)
        memset(out + (lead + r * wp + w) * cout, 0,
               (size_t)(2 * pad * cout) * sizeof(float));
    free(packed);
    free(offs);
    return 0;
}
