/* The exact-order float32 matrix product behind tensor_core.matmul.
 *
 * out[r, j] starts at +0.0f and adds the float32 products a[r, i] * b[i, j]
 * one at a time, in increasing i. Every output row is computed on its own,
 * so a caller may split the rows into ranges and run them in parallel.
 * Built without -ffast-math and with -ffp-contract=off: each multiply and
 * each add is rounded to float32 on its own, with no fused multiply-add.
 *
 * The product is register-blocked (Goto and van de Geijn, "Anatomy of
 * High-Performance Matrix Multiplication", ACM TOMS 2008): a tile of up to
 * TILE_ROWS rows by two vectors of columns keeps its sums in registers for
 * the whole pass over i. Columns past the last whole tile go one vector,
 * then four floats, then one float at a time; rows past the last whole
 * tile go one at a time. Each output element still sees the same multiply
 * and add in the same order, so every tiling gives the same bits.
 *
 * There are three variants of the kernel, each exported under its own
 * name: qd_matmul_rows_base on 16-byte vectors, which every target has,
 * and, where GCC compiles for x86, qd_matmul_rows_avx2 and
 * qd_matmul_rows_avx512 on 32- and 64-byte vectors, each compiled for its
 * instruction set by a target pragma. qd_matmul_variant names the widest
 * one this CPU runs, read with __builtin_cpu_supports, so the object is
 * built without -march and stays portable across x86-64 hosts. Where the
 * compiler or the platform has no per-function targets (Clang, which
 * ignores the GCC pragmas, or another architecture) only the base variant
 * is compiled. None of the instruction sets changes a rounding: AVX2 and
 * AVX-512F add and multiply in float32 exactly as SSE2 does, and no
 * multiply is fused into an add. So every variant gives the same bits;
 * only where NaN operands meet may a NaN result carry another payload.
 */
#include <stddef.h>
#include <string.h>

#define TILE_ROWS 4

/* NAME(a, b, out, k, n, R, C): out[r, j] for r < R and j < C vectors of V,
 * from the rows of a and the columns of b that these pointers start at.
 * R and C are constants at every call, so the loops over them unroll and
 * the R x C vectors of sums stay in registers for the whole pass over i. */
#define DEFINE_TILE(NAME, V)                                                          \
    static inline __attribute__((always_inline)) void NAME(                           \
        const float *restrict a, const float *restrict b, float *restrict out,        \
        ptrdiff_t k, ptrdiff_t n, int R, int C)                                       \
    {                                                                                 \
        const ptrdiff_t lanes = sizeof(V) / sizeof(float);                            \
        V sum[TILE_ROWS][2], bi[2];                                                   \
        for (int r = 0; r < R; r++)                                                   \
            for (int c = 0; c < C; c++)                                               \
                sum[r][c] = (V){0};                                                   \
        for (ptrdiff_t i = 0; i < k; i++) {                                           \
            for (int c = 0; c < C; c++)                                               \
                memcpy(&bi[c], b + i * n + c * lanes, sizeof(V));                     \
            for (int r = 0; r < R; r++)                                               \
                for (int c = 0; c < C; c++)                                           \
                    sum[r][c] += a[r * k + i] * bi[c];                                \
        }                                                                             \
        for (int r = 0; r < R; r++)                                                   \
            for (int c = 0; c < C; c++)                                               \
                memcpy(out + r * n + c * lanes, &sum[r][c], sizeof(V));               \
    }

/* NAME(a, b, out, rows, k, n): the exported kernel on vectors V, tiled by
 * TILE with narrower columns left to tile4 and the scalar tail. */
#define DEFINE_ROWS(NAME, TILE, V)                                                    \
    static inline __attribute__((always_inline)) void NAME##_block(                   \
        const float *restrict a, const float *restrict b, float *restrict out,        \
        ptrdiff_t k, ptrdiff_t n, int R)                                              \
    {                                                                                 \
        const ptrdiff_t lanes = sizeof(V) / sizeof(float);                            \
        ptrdiff_t j = 0;                                                              \
        for (; j + 2 * lanes <= n; j += 2 * lanes)                                    \
            TILE(a, b + j, out + j, k, n, R, 2);                                      \
        if (j + lanes <= n) {                                                         \
            TILE(a, b + j, out + j, k, n, R, 1);                                      \
            j += lanes;                                                               \
        }                                                                             \
        for (; j + 4 <= n; j += 4)                                                    \
            tile4(a, b + j, out + j, k, n, R, 1);                                     \
        for (; j < n; j++)                                                            \
            column(a, b + j, out + j, k, n, R);                                       \
    }                                                                                 \
    void NAME(const float *restrict a, const float *restrict b, float *restrict out,  \
              ptrdiff_t rows, ptrdiff_t k, ptrdiff_t n)                               \
    {                                                                                 \
        ptrdiff_t r = 0;                                                              \
        for (; r + TILE_ROWS <= rows; r += TILE_ROWS)                                 \
            NAME##_block(a + r * k, b, out + r * n, k, n, TILE_ROWS);                 \
        for (; r < rows; r++)                                                         \
            NAME##_block(a + r * k, b, out + r * n, k, n, 1);                         \
    }

typedef float v4 __attribute__((vector_size(16)));
DEFINE_TILE(tile4, v4)

/* out[r, 0] for r < R, from the column of b that b points at. */
static inline __attribute__((always_inline)) void column(
    const float *restrict a, const float *restrict b, float *restrict out,
    ptrdiff_t k, ptrdiff_t n, int R)
{
    for (int r = 0; r < R; r++) {
        float sum = 0.0f;
        for (ptrdiff_t i = 0; i < k; i++)
            sum += a[r * k + i] * b[i * n];
        out[r * n] = sum;
    }
}

DEFINE_ROWS(qd_matmul_rows_base, tile4, v4)

#if defined(__GNUC__) && !defined(__clang__) && (defined(__x86_64__) || defined(__i386__))
#define QD_X86_VARIANTS 1

#pragma GCC push_options
#pragma GCC target("avx2")
typedef float v8 __attribute__((vector_size(32)));
DEFINE_TILE(tile8, v8)
DEFINE_ROWS(qd_matmul_rows_avx2, tile8, v8)
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
typedef float v16 __attribute__((vector_size(64)));
DEFINE_TILE(tile16, v16)
DEFINE_ROWS(qd_matmul_rows_avx512, tile16, v16)
#pragma GCC pop_options
#endif

/* The name of the widest variant this CPU runs: qd_matmul_rows_<name>. */
const char *qd_matmul_variant(void)
{
#ifdef QD_X86_VARIANTS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "base";
}
