/*
 * Native twins of the packed DAISM front end and the value-table GEMM.
 *
 * repro_pack_e8      one pass from float32 bits to the sign, exponent,
 *                    significand, dense and scale planes of an 8-exponent-
 *                    bit format (the twin of formats.packed._pack_fast_e8).
 * repro_gather_gemm  out[r, j] = sum_t V0[ma, mb] * alpha * beta (the twin
 *                    of repro.core.kernels.FloatTableKernel).
 * repro_conv_ranges  per-group exponent range (and significand maximum)
 *                    over exactly the image pixels a convolution's windows
 *                    read: the input of the GEMM's range masks.
 * repro_grouped_conv a grouped/depthwise convolution computed directly on
 *                    the packed NCHW image, one GEMM per (sample, group)
 *                    with im2col's terms, written straight to NCHW.
 *
 * Operands are the packed planes exactly as PackedTensor stores them:
 * uint32 significand indices and float32 signed power-of-two scales, all
 * C-contiguous.  ``table`` is the (width, width) float32 value table V0,
 * indexed [ma, mb] in every orientation.
 *
 * Bit contract (shared with float_table): every product is formed with
 * the same IEEE float32 multiplies in the same order, passes the same
 * flush/overflow bit masks, and the terms of each pinned K-chunk are
 * summed sequentially into a float32 partial, with chunk partials added
 * to the output in chunk order.  The convolution feeds its terms in
 * im2col column order (c, kh, kw), and a tap in the zero padding is the
 * term im2col feeds there: significand 0, scale +0.  Work is divided
 * between threads only by whole output rows (GEMM) or whole (sample,
 * group) pairs (convolution), so the thread count never changes a bit.
 * Build without -ffast-math and with -ffp-contract=off: a fused
 * multiply-add or a reassociated sum would break byte parity.
 *
 * Threads are plain pthreads created and joined inside each call (no
 * pool, no OpenMP runtime), so a process that forks after a call hands
 * its child no half-initialised thread state.
 *
 * Every entry point returns 0 on success, 1 if a buffer could not be
 * allocated; repro_pack_e8 returns 2 when its input holds a NaN or Inf.
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Rows accumulated together so each (mb, beta) row is read once per block. */
#define ROW_BLOCK 4

/* Below this many output columns the per-element dot form is faster.
 * Measured single-threaded on a 2-vCPU x86-64 host (gcc 12, -O3), dot
 * time over wide time on (m, k) = (9216, 9), (2048, 64), (1024, 288):
 * 0.25-0.39 at n = 1 (the depthwise GEMMs), 0.54-0.88 at n = 4,
 * 0.79-1.05 at n = 6-7 and 1.03-1.32 at n = 8. */
#define NARROW_N 8

enum { F32_EXACT = 1, NEEDS_FLUSH = 2, NEEDS_OVERFLOW = 4 };

/* The convolution loops are table-gather bound: at -O2 they ran as fast
 * as at -O3 on a 2-vCPU x86-64 host (gcc 12, mobilenet_edge depthwise
 * layers, batch 16), and compiling them at -O2 keeps the cold build's
 * compiler peak RSS at 47.6 MB instead of 51.8 MB (43.7 MB for the GEMM
 * alone). */
#if defined(__GNUC__) && !defined(__clang__)
#define GATHER_BOUND __attribute__((optimize("O2")))
#else
#define GATHER_BOUND
#endif

/* ------------------------------------------------------------------ */
/* Threads: [0, items) in contiguous slices, one pthread per slice.    */
/* ------------------------------------------------------------------ */

typedef int (*slice_fn)(const void *ctx, int64_t lo, int64_t hi);

typedef struct {
    slice_fn fn;
    const void *ctx;
    int64_t lo, hi;
    int spawned, status;
} slice_t;

static void *slice_worker(void *arg)
{
    slice_t *s = arg;
    s->status = s->fn(s->ctx, s->lo, s->hi);
    return NULL;
}

/* ``threads`` is an upper bound: each thread gets at least one item.
 * Returns the OR of the slice statuses. */
static int parallel_for(slice_fn fn, const void *ctx, int64_t items, int threads)
{
    if (items <= 0)
        return 0;
    if (threads > items)
        threads = (int)items;
    if (threads <= 1)
        return fn(ctx, 0, items);
    slice_t *slices = calloc((size_t)threads, sizeof(slice_t));
    pthread_t *ids = calloc((size_t)threads, sizeof(pthread_t));
    if (slices == NULL || ids == NULL) {
        free(slices);
        free(ids);
        return 1;
    }
    for (int i = 0; i < threads; ++i) {
        slices[i].fn = fn;
        slices[i].ctx = ctx;
        slices[i].lo = items * i / threads;
        slices[i].hi = items * (i + 1) / threads;
    }
    /* Threads 1.. run the later slices; the calling thread runs slice 0.
     * A thread that cannot be created has its slice run here instead. */
    for (int i = 1; i < threads; ++i) {
        slices[i].spawned = pthread_create(&ids[i], NULL, slice_worker, &slices[i]) == 0;
        if (!slices[i].spawned)
            slices[i].status = fn(ctx, slices[i].lo, slices[i].hi);
    }
    slices[0].status = fn(ctx, slices[0].lo, slices[0].hi);
    int status = 0;
    for (int i = 0; i < threads; ++i) {
        if (slices[i].spawned)
            pthread_join(ids[i], NULL);
        status |= slices[i].status;
    }
    free(ids);
    free(slices);
    return status;
}

/* ------------------------------------------------------------------ */
/* Pack: float32 bits -> planes, round-to-nearest-even in one pass.    */
/* ------------------------------------------------------------------ */

typedef struct {
    const uint32_t *bits;
    uint32_t *sign;
    int32_t *exponent;
    uint32_t *significand;
    uint32_t *dense, *scale; /* float32 planes, written as bit patterns */
    int mantissa_bits;
} pack_t;

/* Rounding, plane extraction, the dense quantised value and the scale
 * plane all derive from one rounded bit pattern, exactly as
 * _pack_fast_e8 computes them: float32 subnormals flush to zero in the
 * planes; below float32 precision they also flush in ``dense``, to
 * *unsigned* zero unless the rounded pattern was an exact +-0. */
static int pack_slice(const void *ctx, int64_t lo, int64_t hi)
{
    const pack_t *p = ctx;
    const uint32_t shift = 23u - (uint32_t)p->mantissa_bits;
    const uint32_t half = shift ? (1u << (shift - 1)) - 1u : 0u;
    const uint32_t keep = ~((1u << shift) - 1u);
    const uint32_t lead = 1u << p->mantissa_bits;
    uint32_t special = 0;
    for (int64_t e = lo; e < hi; ++e) {
        const uint32_t bits = p->bits[e];
        /* Checked before rounding: a rounded NaN payload can wrap into
         * an innocuous-looking pattern. */
        special |= (bits & 0x7F800000u) == 0x7F800000u;
        const uint32_t rounded = shift ? (bits + half + ((bits >> shift) & 1u)) & keep : bits;
        const uint32_t biased = (rounded >> 23) & 0xFFu;
        uint32_t sign = rounded >> 31;
        uint32_t dense = rounded;
        if (biased == 0) {
            if (shift) {
                if (rounded & 0x7FFFFFFFu)
                    sign = 0;
                dense = sign << 31;
            }
            p->exponent[e] = 0;
            p->significand[e] = 0;
            p->scale[e] = sign << 31;
        } else {
            p->exponent[e] = (int32_t)biased - 127;
            p->significand[e] = ((rounded & 0x007FFFFFu) >> shift) | lead;
            p->scale[e] = rounded & 0xFF800000u;
        }
        p->sign[e] = sign;
        p->dense[e] = dense;
    }
    return special ? 2 : 0;
}

int repro_pack_e8(const uint32_t *bits, int64_t size, int mantissa_bits,
                  uint32_t *sign, int32_t *exponent, uint32_t *significand,
                  float *dense, float *scale, int threads)
{
    const pack_t p = {
        .bits = bits, .sign = sign, .exponent = exponent,
        .significand = significand, .dense = (uint32_t *)dense,
        .scale = (uint32_t *)scale, .mantissa_bits = mantissa_bits,
    };
    return parallel_for(pack_slice, &p, size, threads);
}

/* ------------------------------------------------------------------ */
/* One product term, with the range masks.                             */
/* ------------------------------------------------------------------ */

static inline __attribute__((always_inline)) float
product(float v, float a, float b, uint32_t flush_bits, uint32_t inf_from,
        const int exact, const int flush, const int overflow)
{
    if (exact) {
        v = v * a;
        v = v * b;
    } else {
        float s = a * b;
        v = s * v;
    }
    if (flush || overflow) {
        uint32_t bits, mag;
        memcpy(&bits, &v, sizeof bits);
        mag = bits & 0x7FFFFFFFu;
        if (flush && mag < flush_bits)
            bits &= 0x80000000u;
        if (overflow && mag >= inf_from)
            bits = (bits & 0x80000000u) | 0x7F800000u;
        memcpy(&v, &bits, sizeof v);
    }
    return v;
}

/* ------------------------------------------------------------------ */
/* GEMM                                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    const float *table;
    int64_t width;
    const uint32_t *ma;
    const float *alpha;
    const uint32_t *mb;
    const float *beta;
    float *out;
    int64_t k, n, k_chunk;
    int flags;
    uint32_t flush_bits, inf_from;
} gemm_t;

/* Wide outputs: a block of rows, each term row vectorised across columns. */
static inline __attribute__((always_inline)) int
rows_wide(const gemm_t *t, int64_t r0, int64_t r1,
          const int exact, const int flush, const int overflow)
{
    const int64_t k = t->k, n = t->n, width = t->width;
    float *partial = malloc(sizeof(float) * ROW_BLOCK * (size_t)n);
    if (partial == NULL)
        return 1;
    for (int64_t b0 = r0; b0 < r1; b0 += ROW_BLOCK) {
        const int64_t rows = (r1 - b0 < ROW_BLOCK) ? r1 - b0 : ROW_BLOCK;
        float *out = t->out + b0 * n;
        memset(out, 0, sizeof(float) * (size_t)(rows * n));
        for (int64_t c0 = 0; c0 < k; c0 += t->k_chunk) {
            const int64_t c1 = (k - c0 < t->k_chunk) ? k : c0 + t->k_chunk;
            memset(partial, 0, sizeof(float) * (size_t)(rows * n));
            for (int64_t s = c0; s < c1; ++s) {
                const uint32_t *mb = t->mb + s * n;
                const float *beta = t->beta + s * n;
                for (int64_t i = 0; i < rows; ++i) {
                    const int64_t at = (b0 + i) * k + s;
                    const float a = t->alpha[at];
                    const float *row = t->table + (int64_t)t->ma[at] * width;
                    float *p = partial + i * n;
                    for (int64_t j = 0; j < n; ++j)
                        p[j] += product(row[mb[j]], a, beta[j], t->flush_bits,
                                        t->inf_from, exact, flush, overflow);
                }
            }
            for (int64_t e = 0; e < rows * n; ++e)
                out[e] += partial[e];
        }
    }
    free(partial);
    return 0;
}

/* Narrow outputs: one scalar sum per element. */
static inline __attribute__((always_inline)) int
rows_narrow(const gemm_t *t, int64_t r0, int64_t r1,
            const int exact, const int flush, const int overflow)
{
    const int64_t k = t->k, n = t->n, width = t->width;
    for (int64_t r = r0; r < r1; ++r) {
        const uint32_t *ma = t->ma + r * k;
        const float *alpha = t->alpha + r * k;
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t c0 = 0; c0 < k; c0 += t->k_chunk) {
                const int64_t c1 = (k - c0 < t->k_chunk) ? k : c0 + t->k_chunk;
                float partial = 0.0f;
                for (int64_t s = c0; s < c1; ++s)
                    partial += product(t->table[(int64_t)ma[s] * width + t->mb[s * n + j]],
                                       alpha[s], t->beta[s * n + j], t->flush_bits,
                                       t->inf_from, exact, flush, overflow);
                acc += partial;
            }
            t->out[r * n + j] = acc;
        }
    }
    return 0;
}

/* The common case (f32-exact products, no range masks) gets its own
 * specialised loop; every other flag combination shares a generic one. */
static int gemm_rows(const void *ctx, int64_t r0, int64_t r1)
{
    const gemm_t *t = ctx;
    const int exact = (t->flags & F32_EXACT) != 0;
    const int flush = (t->flags & NEEDS_FLUSH) != 0;
    const int overflow = (t->flags & NEEDS_OVERFLOW) != 0;
    if (t->n < NARROW_N)
        return t->flags == F32_EXACT ? rows_narrow(t, r0, r1, 1, 0, 0)
                                     : rows_narrow(t, r0, r1, exact, flush, overflow);
    return t->flags == F32_EXACT ? rows_wide(t, r0, r1, 1, 0, 0)
                                 : rows_wide(t, r0, r1, exact, flush, overflow);
}

int repro_gather_gemm(const float *table, int64_t width,
                      const uint32_t *ma, const float *alpha,
                      const uint32_t *mb, const float *beta,
                      float *out, int64_t m, int64_t k, int64_t n,
                      int64_t k_chunk, int flags,
                      uint32_t flush_bits, uint32_t inf_from, int threads)
{
    if (n <= 0)
        return 0;
    const gemm_t t = {
        .table = table, .width = width, .ma = ma, .alpha = alpha, .mb = mb,
        .beta = beta, .out = out, .k = k, .n = n,
        .k_chunk = k_chunk < 1 ? 1 : k_chunk, .flags = flags,
        .flush_bits = flush_bits, .inf_from = inf_from,
    };
    return parallel_for(gemm_rows, &t, m, threads);
}

/* ------------------------------------------------------------------ */
/* Convolution over the packed NCHW image                              */
/* ------------------------------------------------------------------ */

typedef struct {
    const int32_t *exponent;
    const uint32_t *significand;
    int64_t n, channels, h, w, cg;
    const uint8_t *row_read;
    const int32_t *col_keep; /* -1 where a window reads the column, else 0 */
    int32_t *emin, *emax;
    uint32_t *sig_max;
} ranges_t;

/* Unread pixels count as exponent 0 and significand 0, which the
 * ranges' initial value of 0 already covers. */
static GATHER_BOUND int ranges_groups(const void *ctx, int64_t g0, int64_t g1)
{
    const ranges_t *r = ctx;
    const int64_t w = r->w;
    for (int64_t g = g0; g < g1; ++g) {
        int32_t lo = 0, hi = 0;
        uint32_t top = 0;
        for (int64_t i = 0; i < r->n; ++i)
            for (int64_t c = g * r->cg; c < (g + 1) * r->cg; ++c)
                for (int64_t ih = 0; ih < r->h; ++ih) {
                    if (!r->row_read[ih])
                        continue;
                    const int64_t at = ((i * r->channels + c) * r->h + ih) * w;
                    const int32_t *e = r->exponent + at;
                    const uint32_t *s = r->significand + at;
                    for (int64_t iw = 0; iw < w; ++iw) {
                        const int32_t v = e[iw] & r->col_keep[iw];
                        const uint32_t m = s[iw] & (uint32_t)r->col_keep[iw];
                        lo = v < lo ? v : lo;
                        hi = v > hi ? v : hi;
                        top = m > top ? m : top;
                    }
                }
        r->emin[g] = lo;
        r->emax[g] = hi;
        r->sig_max[g] = top;
    }
    return 0;
}

int repro_conv_ranges(const int32_t *exponent, const uint32_t *significand,
                      int64_t n, int64_t channels, int64_t h, int64_t w,
                      int64_t groups, int64_t kernel, int64_t stride, int64_t padding,
                      int64_t oh, int64_t ow,
                      int32_t *emin, int32_t *emax, uint32_t *sig_max, int threads)
{
    uint8_t *row_read = calloc((size_t)(h > 0 ? h : 1), 1);
    int32_t *col_keep = calloc((size_t)(w > 0 ? w : 1), sizeof(int32_t));
    if (row_read == NULL || col_keep == NULL) {
        free(row_read);
        free(col_keep);
        return 1;
    }
    for (int64_t o = 0; o < oh; ++o)
        for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = o * stride + kh - padding;
            if (ih >= 0 && ih < h)
                row_read[ih] = 1;
        }
    for (int64_t o = 0; o < ow; ++o)
        for (int64_t kw = 0; kw < kernel; ++kw) {
            const int64_t iw = o * stride + kw - padding;
            if (iw >= 0 && iw < w)
                col_keep[iw] = -1;
        }
    const ranges_t r = {
        .exponent = exponent, .significand = significand, .n = n,
        .channels = channels, .h = h, .w = w, .cg = channels / groups,
        .row_read = row_read, .col_keep = col_keep,
        .emin = emin, .emax = emax, .sig_max = sig_max,
    };
    const int status = parallel_for(ranges_groups, &r, groups, threads);
    free(row_read);
    free(col_keep);
    return status;
}

typedef struct {
    const float *table;
    int64_t width;
    const uint32_t *sig;  /* (n, channels, h, w) */
    const float *scale;
    const uint32_t *wsig; /* (groups, cg * kernel^2, cout_g) */
    const float *wscale;
    const float *bias; /* (groups * cout_g,) or NULL */
    float *out;        /* (n, groups * cout_g, oh, ow) */
    int64_t channels, h, w, groups, cout_g;
    int64_t kernel, stride, padding, oh, ow, k_chunk;
    const int32_t *flags; /* per group */
    uint32_t flush_bits, inf_from;
} conv_t;

/* One (sample, group) pair: the GEMM of its im2col rows against the
 * group's weight planes, each output row vectorised across ``ow``.
 * ``ma``/``alpha`` hold the pair's channels zero-padded, (cg, hp, wp). */
static inline __attribute__((always_inline)) void
conv_pair(const conv_t *c, int64_t i, int64_t g, const uint32_t *ma, const float *alpha,
          float *partial, const int exact, const int flush, const int overflow)
{
    const int64_t k = c->kernel, s = c->stride, ow = c->ow, cout_g = c->cout_g;
    const int64_t hp = c->h + 2 * c->padding, wp = c->w + 2 * c->padding;
    const int64_t kk = k * k, kg = c->channels / c->groups * kk;
    const uint32_t *wsig = c->wsig + g * kg * cout_g;
    const float *wscale = c->wscale + g * kg * cout_g;
    for (int64_t j = 0; j < cout_g; ++j) {
        const int64_t channel = g * cout_g + j;
        for (int64_t y = 0; y < c->oh; ++y) {
            float *out = c->out + ((i * c->groups * cout_g + channel) * c->oh + y) * ow;
            memset(out, 0, sizeof(float) * (size_t)ow);
            for (int64_t c0 = 0; c0 < kg; c0 += c->k_chunk) {
                const int64_t c1 = (kg - c0 < c->k_chunk) ? kg : c0 + c->k_chunk;
                memset(partial, 0, sizeof(float) * (size_t)ow);
                for (int64_t t = c0; t < c1; ++t) {
                    const int64_t at = ((t / kk) * hp + y * s + (t / k) % k) * wp + t % k;
                    const float *column = c->table + wsig[t * cout_g + j];
                    const float b = wscale[t * cout_g + j];
                    for (int64_t x = 0; x < ow; ++x)
                        partial[x] += product(column[(int64_t)ma[at + x * s] * c->width],
                                              alpha[at + x * s], b, c->flush_bits,
                                              c->inf_from, exact, flush, overflow);
                }
                for (int64_t x = 0; x < ow; ++x)
                    out[x] += partial[x];
            }
            if (c->bias != NULL)
                for (int64_t x = 0; x < ow; ++x)
                    out[x] += c->bias[channel];
        }
    }
}

/* As for the GEMM: one specialised instantiation for f32-exact groups
 * without range masks, one generic instantiation for the rest. */
static GATHER_BOUND int conv_pairs(const void *ctx, int64_t p0, int64_t p1)
{
    const conv_t *c = ctx;
    const int64_t cg = c->channels / c->groups, p = c->padding;
    const int64_t h = c->h, w = c->w, hp = h + 2 * p, wp = w + 2 * p;
    /* The border stays zero: significand 0 and scale +0, the padded tap
     * im2col feeds.  Each pair overwrites only the interior. */
    uint32_t *ma = calloc((size_t)(cg * hp * wp), sizeof(uint32_t));
    float *alpha = calloc((size_t)(cg * hp * wp), sizeof(float));
    float *partial = malloc(sizeof(float) * (size_t)(c->ow > 0 ? c->ow : 1));
    int status = ma == NULL || alpha == NULL || partial == NULL;
    for (int64_t pair = p0; pair < p1 && !status; ++pair) {
        const int64_t i = pair / c->groups, g = pair % c->groups;
        for (int64_t ch = 0; ch < cg; ++ch)
            for (int64_t y = 0; y < h; ++y) {
                const int64_t from = ((i * c->channels + g * cg + ch) * h + y) * w;
                const int64_t to = (ch * hp + y + p) * wp + p;
                memcpy(ma + to, c->sig + from, sizeof(uint32_t) * (size_t)w);
                memcpy(alpha + to, c->scale + from, sizeof(float) * (size_t)w);
            }
        const int flags = c->flags[g];
        if (flags == F32_EXACT)
            conv_pair(c, i, g, ma, alpha, partial, 1, 0, 0);
        else
            conv_pair(c, i, g, ma, alpha, partial, (flags & F32_EXACT) != 0,
                      (flags & NEEDS_FLUSH) != 0, (flags & NEEDS_OVERFLOW) != 0);
    }
    free(ma);
    free(alpha);
    free(partial);
    return status;
}

int repro_grouped_conv(const float *table, int64_t width,
                       const uint32_t *sig, const float *scale,
                       const uint32_t *wsig, const float *wscale,
                       const float *bias, float *out,
                       int64_t n, int64_t channels, int64_t h, int64_t w,
                       int64_t groups, int64_t cout_g,
                       int64_t kernel, int64_t stride, int64_t padding,
                       int64_t oh, int64_t ow, int64_t k_chunk,
                       const int32_t *flags, uint32_t flush_bits, uint32_t inf_from,
                       int threads)
{
    const conv_t c = {
        .table = table, .width = width, .sig = sig, .scale = scale,
        .wsig = wsig, .wscale = wscale, .bias = bias, .out = out,
        .channels = channels, .h = h, .w = w, .groups = groups, .cout_g = cout_g,
        .kernel = kernel, .stride = stride, .padding = padding, .oh = oh, .ow = ow,
        .k_chunk = k_chunk < 1 ? 1 : k_chunk, .flags = flags,
        .flush_bits = flush_bits, .inf_from = inf_from,
    };
    return parallel_for(conv_pairs, &c, n * groups, threads);
}
