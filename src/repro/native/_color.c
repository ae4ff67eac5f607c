/*
 * BT.601 full-range colour conversion (repro.video.color): planar YUV
 * 4:2:0 uint8 to interleaved float32 RGB in [0, 1] and back, one pass
 * each into arrays the caller allocated.
 *
 * The bits are those of the numpy formulas the module used to evaluate
 * (kept as tests/video/color_reference.py), because each expression is
 * written the way numpy evaluated it:
 *   - every constant is the float32 of numpy's double constant, so
 *     2 * (1 - KR) is folded in double and then rounded;
 *   - every operation rounds to float32, in numpy's order:
 *     g = ((y - KR*r) - KB*b) / KG, y = (KR*r + KG*g) + KB*b;
 *   - divisions are true divisions, never a reciprocal multiply;
 *   - rintf rounds half to even, like np.rint;
 *   - a 2x2 chroma mean sums pairwise along rows,
 *     (a00 + a01) + (a10 + a11), then divides by 4.
 * Build with -ffp-contract=off, or the compiler fuses the multiply-adds.
 *
 * Clamps are ternaries, as np.clip returns them for finite values:
 * fminf/fmaxf stop GCC from vectorising the loops.  Each row is converted
 * through row-planar temporaries and interleaved at the end.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define KR ((float)0.299)
#define KG ((float)0.587)
#define KB ((float)0.114)
#define CR_R ((float)(2.0 * (1.0 - 0.299)))
#define CB_B ((float)(2.0 * (1.0 - 0.114)))

static inline float clampf(float x, float lo, float hi)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

/* y is (h, w), u and v are (h/2, w/2), rgb is (h, w, 3), all C-contiguous;
 * h and w are even.  Returns -1 when the row scratch cannot be allocated. */
int yuv420_to_rgb(const uint8_t *yp, const uint8_t *up, const uint8_t *vp,
                  float *rgb, long h, long w)
{
    long cw = w / 2;
    /* + 1: malloc(0) may return NULL, and an empty frame is no error. */
    float *buf = malloc(5 * (size_t)w * sizeof(float) + 1);
    if (!buf)
        return -1;
    float *cr = buf, *cb = buf + w, *R = buf + 2 * w, *G = buf + 3 * w,
          *B = buf + 4 * w;
    for (long i = 0; i < h; i++) {
        if (i % 2 == 0) {
            /* The chroma terms of a chroma row, each pixel's copy. */
            const uint8_t *u = up + i / 2 * cw, *v = vp + i / 2 * cw;
            for (long k = 0; k < cw; k++) {
                float r = CR_R * ((float)v[k] - 128.0f);
                float b = CB_B * ((float)u[k] - 128.0f);
                cr[2 * k] = cr[2 * k + 1] = r;
                cb[2 * k] = cb[2 * k + 1] = b;
            }
        }
        const uint8_t *y = yp + i * w;
        for (long j = 0; j < w; j++) {
            float luma = (float)y[j];
            float r = luma + cr[j];
            float b = luma + cb[j];
            float g = ((luma - KR * r) - KB * b) / KG;
            R[j] = clampf(r / 255.0f, 0.0f, 1.0f);
            G[j] = clampf(g / 255.0f, 0.0f, 1.0f);
            B[j] = clampf(b / 255.0f, 0.0f, 1.0f);
        }
        float *out = rgb + i * 3 * w;
        for (long j = 0; j < w; j++) {
            out[3 * j] = R[j];
            out[3 * j + 1] = G[j];
            out[3 * j + 2] = B[j];
        }
    }
    free(buf);
    return 0;
}

static inline uint8_t to_u8(float x)
{
    return (uint8_t)(int)clampf(rintf(x), 0.0f, 255.0f);
}

/* rgb is (h, w, 3), y is (h, w), u and v are (h/2, w/2), all C-contiguous;
 * h and w are even.  Returns 1, with the outputs unfinished, when a sample
 * is NaN or lies outside validate_rgb's bounds ([0, 1] widened by 1e-3,
 * compared in double); -1 when the row scratch cannot be allocated. */
int rgb_to_yuv420(const float *rgb, uint8_t *yp, uint8_t *up, uint8_t *vp,
                  long h, long w)
{
    /* The float32 bounds equivalent to float(x) >= -1e-3 and
     * float(x) <= 1 + 1e-3. */
    float lo = (float)-1e-3, hi = (float)(1.0 + 1e-3);
    if ((double)lo < -1e-3)
        lo = nextafterf(lo, 0.0f);
    if ((double)hi > 1.0 + 1e-3)
        hi = nextafterf(hi, 0.0f);
    long cw = w / 2;
    float *buf = malloc(7 * (size_t)w * sizeof(float) + 1);
    if (!buf)
        return -1;
    float *R = buf, *G = buf + w, *B = buf + 2 * w, *cb = buf + 3 * w,
          *cr = buf + 5 * w;
    for (long i = 0; i < h; i += 2) {
        for (long k = 0; k < 2; k++) {
            const float *px = rgb + (i + k) * 3 * w;
            int ok = 1;
            for (long j = 0; j < 3 * w; j++)
                ok &= (px[j] >= lo) & (px[j] <= hi);
            if (!ok) {
                free(buf);
                return 1;
            }
            for (long j = 0; j < w; j++) {
                R[j] = px[3 * j];
                G[j] = px[3 * j + 1];
                B[j] = px[3 * j + 2];
            }
            float *cbk = cb + k * w, *crk = cr + k * w;
            uint8_t *y = yp + (i + k) * w;
            for (long j = 0; j < w; j++) {
                float r = clampf(R[j], 0.0f, 1.0f) * 255.0f;
                float g = clampf(G[j], 0.0f, 1.0f) * 255.0f;
                float b = clampf(B[j], 0.0f, 1.0f) * 255.0f;
                float luma = (KR * r + KG * g) + KB * b;
                cbk[j] = clampf((b - luma) / CB_B + 128.0f, 0.0f, 255.0f);
                crk[j] = clampf((r - luma) / CR_R + 128.0f, 0.0f, 255.0f);
                y[j] = to_u8(luma);
            }
        }
        uint8_t *u = up + i / 2 * cw, *v = vp + i / 2 * cw;
        for (long k = 0; k < cw; k++) {
            u[k] = to_u8(((cb[2 * k] + cb[2 * k + 1])
                          + (cb[w + 2 * k] + cb[w + 2 * k + 1])) / 4.0f);
            v[k] = to_u8(((cr[2 * k] + cr[2 * k + 1])
                          + (cr[w + 2 * k] + cr[w + 2 * k + 1])) / 4.0f);
        }
    }
    free(buf);
    return 0;
}
