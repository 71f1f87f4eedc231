/*
 * Bit-exact DAISM value-table GEMM: out[r, j] = sum_t V0[ma, mb] * alpha * beta.
 *
 * The native twin of repro.core.kernels.FloatTableKernel.  Operands are
 * the packed planes exactly as PackedTensor stores them: uint32
 * significand indices and float32 signed power-of-two scales, ``ma`` /
 * ``alpha`` shaped (m, k) and ``mb`` / ``beta`` shaped (k, n), all
 * C-contiguous.  ``table`` is the (width, width) float32 value table V0,
 * indexed [ma, mb] in every orientation.
 *
 * Bit contract (shared with float_table): every product is formed with
 * the same IEEE float32 multiplies in the same order, passes the same
 * flush/overflow bit masks, and the terms of each pinned K-chunk are
 * summed sequentially into a float32 partial, with chunk partials added
 * to the output in chunk order.  Only whole output rows are divided
 * between threads, so the thread count never changes a bit.  Build
 * without -ffast-math and with -ffp-contract=off: a fused multiply-add
 * or a reassociated sum would break byte parity.
 *
 * Threads are plain pthreads created and joined inside each call (no
 * pool, no OpenMP runtime), so a process that forks after a call hands
 * its child no half-initialised thread state.
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
    int64_t r0, r1;
    int spawned, status;
} task_t;

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

/* Wide outputs: a block of rows, each term row vectorised across columns. */
static inline __attribute__((always_inline)) int
rows_wide(const task_t *t, const int exact, const int flush, const int overflow)
{
    const int64_t k = t->k, n = t->n, width = t->width;
    float *partial = malloc(sizeof(float) * ROW_BLOCK * (size_t)n);
    if (partial == NULL)
        return 1;
    for (int64_t b0 = t->r0; b0 < t->r1; b0 += ROW_BLOCK) {
        const int64_t rows = (t->r1 - b0 < ROW_BLOCK) ? t->r1 - b0 : ROW_BLOCK;
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

/* Narrow outputs (depthwise convolutions): one scalar sum per element. */
static inline __attribute__((always_inline)) int
rows_narrow(const task_t *t, const int exact, const int flush, const int overflow)
{
    const int64_t k = t->k, n = t->n, width = t->width;
    for (int64_t r = t->r0; r < t->r1; ++r) {
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
static int run_rows(const task_t *t)
{
    const int exact = (t->flags & F32_EXACT) != 0;
    const int flush = (t->flags & NEEDS_FLUSH) != 0;
    const int overflow = (t->flags & NEEDS_OVERFLOW) != 0;
    if (t->n < NARROW_N)
        return t->flags == F32_EXACT ? rows_narrow(t, 1, 0, 0)
                                     : rows_narrow(t, exact, flush, overflow);
    return t->flags == F32_EXACT ? rows_wide(t, 1, 0, 0)
                                 : rows_wide(t, exact, flush, overflow);
}

static void *worker(void *arg)
{
    task_t *t = arg;
    t->status = run_rows(t);
    return NULL;
}

/*
 * Returns 0 on success, nonzero if a row buffer could not be allocated.
 * ``threads`` is an upper bound: each thread gets at least one row.
 */
int repro_gather_gemm(const float *table, int64_t width,
                      const uint32_t *ma, const float *alpha,
                      const uint32_t *mb, const float *beta,
                      float *out, int64_t m, int64_t k, int64_t n,
                      int64_t k_chunk, int flags,
                      uint32_t flush_bits, uint32_t inf_from, int threads)
{
    if (m <= 0 || n <= 0)
        return 0;
    if (threads > m)
        threads = (int)m;
    if (threads < 1)
        threads = 1;
    task_t *tasks = calloc((size_t)threads, sizeof(task_t));
    pthread_t *ids = calloc((size_t)threads, sizeof(pthread_t));
    if (tasks == NULL || ids == NULL) {
        free(tasks);
        free(ids);
        return 1;
    }
    const task_t base = {
        .table = table, .width = width, .ma = ma, .alpha = alpha, .mb = mb,
        .beta = beta, .out = out, .k = k, .n = n,
        .k_chunk = k_chunk < 1 ? 1 : k_chunk, .flags = flags,
        .flush_bits = flush_bits, .inf_from = inf_from,
    };
    for (int i = 0; i < threads; ++i) {
        tasks[i] = base;
        tasks[i].r0 = m * i / threads;
        tasks[i].r1 = m * (i + 1) / threads;
    }
    int status = 0;
    /* Threads 1.. run the later row ranges; the calling thread runs range 0.
     * A thread that cannot be created has its range run here instead. */
    for (int i = 1; i < threads; ++i) {
        tasks[i].spawned = pthread_create(&ids[i], NULL, worker, &tasks[i]) == 0;
        if (!tasks[i].spawned)
            tasks[i].status = run_rows(&tasks[i]);
    }
    tasks[0].status = run_rows(&tasks[0]);
    for (int i = 0; i < threads; ++i) {
        if (tasks[i].spawned)
            pthread_join(ids[i], NULL);
        status |= tasks[i].status;
    }
    free(ids);
    free(tasks);
    return status;
}
