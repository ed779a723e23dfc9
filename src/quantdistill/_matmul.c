/* The compiled arithmetic behind tensor_core.matmul, the quantizer and the
 * verify request: the exact-order float32 matrix product with a forward
 * linear's epilogue, the fake-quantization law, and row L2 normalization
 * and row dot products in numpy's float64 order, built as one CPython
 * extension module.
 *
 * out[r, j] starts at +0.0f and adds the float32 products a[r, i] * b[i, j]
 * one at a time, in increasing i. Every output row is computed on its own,
 * so the rows may be split into ranges run in parallel.
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
 * Fake-quantization snaps a float32 value x to the code grid of a scale s
 * and zero-point z in float64, in quantizer.quantize's then
 * quantizer.dequantize's order: divide by s (a true divide, never a
 * multiply by 1 / s), subtract z, round half to even, clip to the b-bit
 * codes, add z, multiply by s, round to float32. The law that derives s
 * and z from a slice's float32 range is quantizer.params_from_range's, and
 * this file is its one home: the quantizer calls it for given endpoints
 * and for each row of a weight, whose minimum and maximum it finds first.
 * Each of these steps is one IEEE operation, so the bits equal numpy's.
 * Rounding uses nearbyint (the C library's, which the interpreter links,
 * where no instruction does it), which, like numpy's rint, follows the
 * current rounding mode: the bits assume the default round-to-nearest
 * mode.
 * A whole tensor (an activation site's) is fake-quantized under one scale
 * and zero-point; a weight's rows are fake-quantized under their own only
 * in the call that derives them.
 *
 * A row's float64 sum (of its squares, or of its products with another
 * row) takes the order of numpy's np.add.reduce along a contiguous row:
 * the terms are exact (float32 factors have 24-bit significands), and
 * they are added onto +0.0 pairwise. A block of up to PAIRWISE_BLOCK terms
 * keeps 8 interleaved partial sums, combined as
 * ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then adds its tail in order
 * (a block under 8 terms adds them all in order); a longer row is split in
 * halves, the first rounded down to a multiple of 8, each summed so. A row
 * is normalized by dividing each element by the square root of its sum of
 * squares, in float64, rounded once to float32; a zero norm is flagged.
 *
 * A forward linear's epilogue (the bias, the finite check and, for an
 * inference forward, the relu and the activation site's fake-quant, and
 * for its last linear the rows' normalization) runs on each block of
 * EPILOGUE_ROWS output rows as soon as the thread that computed them is
 * done, while they are still in cache.
 *
 * There are three variants of every kernel, each exported under its own
 * name: qd_<kernel>_base on 16-byte vectors, which every target has, and,
 * where GCC compiles for x86, qd_<kernel>_avx2 and qd_<kernel>_avx512 on
 * 32- and 64-byte vectors, each compiled for its instruction set by a
 * target pragma (the kernels are qd_matmul_rows, qd_fake_quant,
 * qd_epilogue, qd_derive_params, qd_normalize and qd_row_dots; each
 * variant has its own copy of the pairwise sum). qd_matmul_variant names
 * the widest one this CPU runs, read with __builtin_cpu_supports, so the
 * object is built without -march and stays portable across x86-64 hosts.
 * Where the compiler or the platform has no per-function targets (Clang,
 * which ignores the GCC pragmas, or another architecture) only the base
 * variants are compiled. None of the instruction sets changes a rounding:
 * AVX2 and AVX-512F add, multiply, divide, take square roots, convert and
 * round exactly as SSE2 and libm do, and no multiply is fused into an add.
 * So every variant gives the same bits; only where NaN operands meet may a
 * NaN result carry another payload.
 *
 * Python reaches the kernels through the module's functions, product,
 * fake_quant, params_from_range, derive_params, normalize and row_dots
 * (each described where it is defined), which take their operands through
 * the buffer protocol, check every one before a byte is read or written,
 * and run the variant picked when the module was initialised, without the
 * GIL. product splits
 * the rows into ranges: the first runs on the calling thread and each
 * other one on a thread it starts, except that once a thread cannot be
 * started, the ranges left run on the calling thread too. Each range runs
 * the epilogue on its own rows and keeps its own fault flags; the flags
 * are OR-ed once every range is done. The module's variant attribute
 * names the variant.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
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

/* What the law returns: the slices' parameters are written, a slice's
 * endpoint is not finite, or a constant slice lies beyond MAX_CONSTANT. */
enum { LAW_OK, LAW_NON_FINITE, LAW_TOO_LARGE };
static const char *const LAW_ERRORS[] = {
    NULL, "non-finite range endpoints", "constant range too large for an integer zero-point",
};
/* A constant slice takes a zero-point next to -round(value); beyond this
 * magnitude it no longer fits the int64 zero-point. */
#define MAX_CONSTANT 0x1p62

/* out[j] = x[j] fake-quantized under scale s and zero-point z with b-bit
 * codes, for j < n; out may be x, since each element is read before it is
 * written. The inner loop is one expression per element, which each
 * variant vectorizes for its own vector width. */
static inline __attribute__((always_inline)) void fake_quant_span(
    const float *x, float *out, ptrdiff_t n, double s, double z, int bits)
{
    const double code_min = -(double)(1LL << (bits - 1));
    const double code_max = (double)((1LL << (bits - 1)) - 1);
    for (ptrdiff_t j = 0; j < n; j++) {
        double t = nearbyint((double)x[j] / s - z);
        t = t < code_min ? code_min : t;
        t = t > code_max ? code_max : t;
        out[j] = (float)((t + z) * s);
    }
}

/* Terms a pairwise block sums with its 8 partial sums; longer rows split. */
#define PAIRWISE_BLOCK 128

/* The pairwise sum of the float64 products a[j] * b[j], j < n <=
 * PAIRWISE_BLOCK, in numpy's order for one block (without the +0.0 it
 * starts from). The 8 partial sums are independent, so each variant
 * vectorizes them without reordering an add. */
static inline __attribute__((always_inline)) double pairwise_block(
    const float *a, const float *b, ptrdiff_t n)
{
    double sum = 0.0;
    ptrdiff_t j = 0;
    if (n >= 8) {
        double r[8];
        for (int l = 0; l < 8; l++)
            r[l] = (double)a[l] * b[l];
        for (j = 8; j + 8 <= n; j += 8)
            for (int l = 0; l < 8; l++)
                r[l] += (double)a[j + l] * b[j + l];
        sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; j < n; j++)
        sum += (double)a[j] * b[j];
    return sum;
}

/* params_from_range's law for m slices of b-bit codes with float32
 * endpoints lo[i] <= hi[i]: the scale is (hi - lo) / (2**b - 1) rounded to
 * float32, and the zero-point round(lo * (2**b - 1) / (hi - lo) + 2**(b-1)).
 * A constant slice (hi == lo) keeps scale 1 and takes the zero-point next
 * to -round(lo) that leaves the constant's own code inside the codes with a
 * margin of one code, to absorb rounding of half-fractions. Every endpoint
 * is checked before any slice is derived. */
static inline __attribute__((always_inline)) int law(
    const float *restrict lo, const float *restrict hi, ptrdiff_t m, int bits,
    float *restrict scale, int64_t *restrict zero_point)
{
    const int64_t code_min = -(1LL << (bits - 1)), code_max = (1LL << (bits - 1)) - 1;
    const double levels = (double)(code_max - code_min);
    for (ptrdiff_t i = 0; i < m; i++)
        if (!isfinite(lo[i]) || !isfinite(hi[i]))
            return LAW_NON_FINITE;
    for (ptrdiff_t i = 0; i < m; i++) {
        const double l = lo[i], h = hi[i];
        if (h == l) {
            const double anchor = nearbyint(l);
            if (fabs(anchor) > MAX_CONSTANT)
                return LAW_TOO_LARGE;
            const int64_t a = (int64_t)anchor;
            int64_t z = -a;
            z = z < a - code_max + 1 ? a - code_max + 1 : z;
            z = z > a - code_min - 1 ? a - code_min - 1 : z;
            scale[i] = 1.0f;
            zero_point[i] = z;
        } else {
            scale[i] = (float)((h - l) / levels);
            zero_point[i] = (int64_t)nearbyint(l * levels / (h - l) - (double)code_min);
        }
    }
    return LAW_OK;
}

/* The stages an epilogue runs after the bias add and the finite check, and
 * the faults it reports. */
enum { STAGE_RELU = 1, STAGE_NORMALIZE = 2 };
enum { FAULT_NON_FINITE = 1, FAULT_ZERO_NORM = 2 };
static const char ZERO_NORM[] = "cannot normalize a zero-norm row";

/* qd_normalize_<V>(x, out, rows, n): each row of the rows x n matrix x
 * divided by its norm into out, which may be x; returns whether a row has
 * zero norm. qd_row_dots_<V>(a, b, out, rows, n): out[r] = the dot product
 * of rows r of a and b. Both sum in numpy's pairwise order, by a recursive
 * sum of each variant's own, inlined where a row fits one block. */
#define DEFINE_NORM(V)                                                                  \
    static double pairwise_##V(const float *a, const float *b, ptrdiff_t n)             \
    {                                                                                   \
        if (n <= PAIRWISE_BLOCK)                                                        \
            return pairwise_block(a, b, n);                                             \
        const ptrdiff_t half = n / 2 - n / 2 % 8;                                       \
        return pairwise_##V(a, b, half) + pairwise_##V(a + half, b + half, n - half);   \
    }                                                                                   \
    static inline __attribute__((always_inline)) double row_dot_##V(                    \
        const float *a, const float *b, ptrdiff_t n)                                    \
    {                                                                                   \
        return 0.0 + (n <= PAIRWISE_BLOCK ? pairwise_block(a, b, n)                     \
                                          : pairwise_##V(a, b, n));                     \
    }                                                                                   \
    static inline __attribute__((always_inline)) int normalize_##V(                     \
        const float *x, float *out, ptrdiff_t rows, ptrdiff_t n)                        \
    {                                                                                   \
        int zero = 0;                                                                   \
        for (ptrdiff_t r = 0; r < rows; r++) {                                          \
            const float *row = x + r * n;                                               \
            const double norm = sqrt(row_dot_##V(row, row, n));                         \
            zero |= norm == 0.0;                                                        \
            for (ptrdiff_t j = 0; j < n; j++)                                           \
                out[r * n + j] = (float)((double)row[j] / norm);                        \
        }                                                                               \
        return zero;                                                                    \
    }                                                                                   \
    int qd_normalize_##V(const float *x, float *out, ptrdiff_t rows, ptrdiff_t n)       \
    {                                                                                   \
        return normalize_##V(x, out, rows, n);                                          \
    }                                                                                   \
    void qd_row_dots_##V(const float *restrict a, const float *restrict b,              \
                         double *restrict out, ptrdiff_t rows, ptrdiff_t n)             \
    {                                                                                   \
        for (ptrdiff_t r = 0; r < rows; r++)                                            \
            out[r] = row_dot_##V(a + r * n, b + r * n, n);                              \
    }

/* qd_fake_quant_<V>(x, out, n, s, z, bits): fake_quant_span on vectors V.
 * qd_epilogue_<V>(out, rows, n, bias, stages, bits, s, z): a forward
 * linear's output stage, in place on rows x n sums: bias[j] added to
 * column j (one float32 add), then, with STAGE_RELU, max(x, 0) as numpy's
 * maximum gives it (a NaN kept, +0.0 for either zero), then, unless bits
 * is 0, fake_quant_span under s and z, then, with STAGE_NORMALIZE, each
 * row normalized. Returns FAULT_NON_FINITE if a sum plus its bias is not
 * finite, OR-ed with FAULT_ZERO_NORM if a normalized row has zero norm.
 * The sign of a zero out of the relu could not reach an output anyway: the
 * next product's sums start at +0.0, and the fake-quant's + z gives +0.
 * qd_derive_params_<V>(w, out, rows, n, bits, scale, zero_point, lo, hi):
 * each row's minimum and maximum into lo and hi (a NaN propagates; of equal
 * extrema, signed zeros included, the last is kept, as numpy's scalar loop
 * keeps it), the law's parameters of every row, and, unless out is NULL,
 * every row fake-quantized under its own. Returns the law's LAW_* value. */
#define DEFINE_QUANT(V)                                                                 \
    void qd_fake_quant_##V(const float *restrict x, float *restrict out, ptrdiff_t n,   \
                           double s, double z, int bits)                                \
    {                                                                                   \
        fake_quant_span(x, out, n, s, z, bits);                                         \
    }                                                                                   \
    int qd_epilogue_##V(float *restrict out, ptrdiff_t rows, ptrdiff_t n,               \
                        const float *restrict bias, int stages, int bits, double s,     \
                        double z)                                                       \
    {                                                                                   \
        const int relu = stages & STAGE_RELU;                                           \
        int faults = 0;                                                                 \
        for (ptrdiff_t r = 0; r < rows; r++) {                                          \
            float *row = out + r * n;                                                   \
            for (ptrdiff_t j = 0; j < n; j++) {                                         \
                const float v = row[j] + bias[j];                                       \
                faults |= !isfinite(v); /* FAULT_NON_FINITE */                          \
                row[j] = relu && v <= 0.0f ? 0.0f : v;                                  \
            }                                                                           \
        }                                                                               \
        if (bits > 0)                                                                   \
            fake_quant_span(out, out, rows * n, s, z, bits);                            \
        if ((stages & STAGE_NORMALIZE) && normalize_##V(out, out, rows, n))             \
            faults |= FAULT_ZERO_NORM;                                                  \
        return faults;                                                                  \
    }                                                                                   \
    int qd_derive_params_##V(const float *restrict w, float *restrict out,              \
                             ptrdiff_t rows, ptrdiff_t n, int bits,                     \
                             float *restrict scale, int64_t *restrict zero_point,       \
                             float *restrict lo, float *restrict hi)                    \
    {                                                                                   \
        for (ptrdiff_t r = 0; r < rows; r++) {                                          \
            const float *row = w + r * n;                                               \
            float min = row[0], max = row[0];                                           \
            for (ptrdiff_t j = 1; j < n; j++) {                                         \
                const float v = row[j];                                                 \
                min = v <= min || v != v ? v : min;                                     \
                max = v >= max || v != v ? v : max;                                     \
            }                                                                           \
            lo[r] = min;                                                                \
            hi[r] = max;                                                                \
        }                                                                               \
        const int status = law(lo, hi, rows, bits, scale, zero_point);                  \
        if (status == LAW_OK && out != NULL)                                            \
            for (ptrdiff_t r = 0; r < rows; r++)                                        \
                fake_quant_span(w + r * n, out + r * n, n, scale[r],                    \
                                (double)zero_point[r], bits);                           \
        return status;                                                                  \
    }

DEFINE_NORM(base)
DEFINE_QUANT(base)

#if defined(__GNUC__) && !defined(__clang__) && (defined(__x86_64__) || defined(__i386__))
#define QD_X86_VARIANTS 1

#pragma GCC push_options
#pragma GCC target("avx2")
typedef float v8 __attribute__((vector_size(32)));
DEFINE_TILE(tile8, v8)
DEFINE_ROWS(qd_matmul_rows_avx2, tile8, v8)
DEFINE_NORM(avx2)
DEFINE_QUANT(avx2)
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
typedef float v16 __attribute__((vector_size(64)));
DEFINE_TILE(tile16, v16)
DEFINE_ROWS(qd_matmul_rows_avx512, tile16, v16)
DEFINE_NORM(avx512)
DEFINE_QUANT(avx512)
#pragma GCC pop_options
#endif

/* The name of the widest variant this CPU runs: qd_<kernel>_<name>. */
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

typedef void (*rows_fn)(const float *restrict, const float *restrict, float *restrict,
                        ptrdiff_t, ptrdiff_t, ptrdiff_t);
typedef void (*fake_quant_fn)(const float *restrict, float *restrict, ptrdiff_t, double, double,
                              int);
typedef int (*epilogue_fn)(float *restrict, ptrdiff_t, ptrdiff_t, const float *restrict, int,
                           int, double, double);
typedef int (*derive_fn)(const float *restrict, float *restrict, ptrdiff_t, ptrdiff_t, int,
                         float *restrict, int64_t *restrict, float *restrict, float *restrict);
typedef int (*normalize_fn)(const float *, float *, ptrdiff_t, ptrdiff_t);
typedef void (*row_dots_fn)(const float *restrict, const float *restrict, double *restrict,
                            ptrdiff_t, ptrdiff_t);

/* The kernels of one variant. */
struct variant {
    rows_fn product;
    fake_quant_fn fake_quant;
    epilogue_fn epilogue;
    derive_fn derive_params;
    normalize_fn normalize;
    row_dots_fn row_dots;
};
#define VARIANT(V)                                                                    \
    ((struct variant){qd_matmul_rows_##V, qd_fake_quant_##V, qd_epilogue_##V,         \
                      qd_derive_params_##V, qd_normalize_##V, qd_row_dots_##V})

/* The variant qd_matmul_variant names, set once at module init. */
static struct variant widest;

/* What an array operand must be: a C-contiguous array of float32 ('f'),
 * float64 ('d') or int64 ('q') items, with ndim dimensions, or any number
 * where ndim is -1. */
struct kind {
    const char *what;
    char type;
    int ndim;
};
static const struct kind MATRIX = {"2-D float32 matrix", 'f', 2};
static const struct kind FLOATS = {"float32 array", 'f', -1};
static const struct kind ROWS = {"1-D float32 array", 'f', 1};
static const struct kind INT_ROWS = {"1-D int64 array", 'q', 1};
static const struct kind DOUBLE_ROWS = {"1-D float64 array", 'd', 1};

/* An entry's array operand: its argument, name, kind and buffer flags
 * (PyBUF_WRITABLE for an output). */
struct operand {
    int arg;
    const char *name;
    const struct kind *kind;
    int flags;
};

static void release(Py_buffer *view, int n)
{
    while (n > 0)
        PyBuffer_Release(&view[--n]);
}

/* Fills view[i] with the buffer of each of the n operands, or sets an
 * exception and returns -1, holding none, unless every one is of its kind
 * (and writable where its flags ask). */
static int take(PyObject *const *args, const struct operand *op, int n, Py_buffer *view)
{
    for (int i = 0; i < n; i++) {
        if (PyObject_GetBuffer(args[op[i].arg], &view[i],
                               op[i].flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
            release(view, i);
            return -1;
        }
        const char *format = view[i].format ? view[i].format : "B";
        const char type = op[i].kind->type;
        const int typed = type == 'q'
            ? view[i].itemsize == 8 && (strcmp(format, "q") == 0 || strcmp(format, "l") == 0)
            : format[0] == type && format[1] == '\0';
        if (!typed || (op[i].kind->ndim >= 0 && view[i].ndim != op[i].kind->ndim)) {
            PyErr_Format(PyExc_ValueError, "%s must be a %s, got %d-D of format '%s'",
                         op[i].name, op[i].kind->what, view[i].ndim, format);
            release(view, i + 1);
            return -1;
        }
    }
    return 0;
}

/* True, or false with an exception set, unless view[first..n) each hold
 * rows entries. */
static int rows_match(const Py_buffer *view, const struct operand *op, int first, int n,
                      Py_ssize_t rows)
{
    for (int i = first; i < n; i++)
        if (view[i].shape[0] != rows) {
            PyErr_Format(PyExc_ValueError, "%s has %zd entries for %zd rows", op[i].name,
                         view[i].shape[0], rows);
            return 0;
        }
    return 1;
}

/* True, or false with an exception set, unless view[i] has view[0]'s
 * shape. */
static int same_shape(const Py_buffer *view, const struct operand *op, int i)
{
    int same = view[i].ndim == view[0].ndim;
    for (int d = 0; same && d < view[0].ndim; d++)
        same = view[i].shape[d] == view[0].shape[d];
    if (!same)
        PyErr_Format(PyExc_ValueError, "%s does not have the shape of %s", op[i].name,
                     op[0].name);
    return same;
}

/* The code width in args[at], 1 to 32 bits, or -1 with an exception set,
 * also unless the entry was given want arguments. */
static int entry_bits(const char *usage, Py_ssize_t want, Py_ssize_t nargs,
                      PyObject *const *args, int at)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", usage, want, nargs);
        return -1;
    }
    const long bits = PyLong_AsLong(args[at]);
    if (bits == -1 && PyErr_Occurred())
        return -1;
    if (bits < 1 || bits > 32) {
        PyErr_Format(PyExc_ValueError, "bits must be from 1 to 32, got %ld", bits);
        return -1;
    }
    return (int)bits;
}

static PyObject *law_result(int status)
{
    return status == LAW_OK ? Py_NewRef(Py_None) : PyUnicode_FromString(LAW_ERRORS[status]);
}

/* A forward linear's output stage, as qd_epilogue_<V> takes it. */
struct epilogue {
    const float *bias;
    int stages, bits;
    double scale, zero_point;
};

/* Rows of sums a range finishes before it runs the epilogue on them, while
 * they are still in cache: 32 rows of 64 columns are 8 KiB. A multiple of
 * TILE_ROWS, so only a range's last block has rows past a whole tile. */
#define EPILOGUE_ROWS 32

/* One row range of a product, its epilogue (or NULL), the FAULT_* flags
 * the epilogue raised, and the thread that runs it. */
struct range {
    const float *a, *b;
    float *out;
    ptrdiff_t rows, k, n;
    const struct epilogue *epilogue;
    int faults;
    pthread_t thread;
};

static void *run(void *arg)
{
    struct range *r = arg;
    const struct epilogue *e = r->epilogue;
    const ptrdiff_t block = e != NULL ? EPILOGUE_ROWS : r->rows;
    for (ptrdiff_t start = 0; start < r->rows; start += block) {
        const ptrdiff_t rows = r->rows - start < block ? r->rows - start : block;
        float *out = r->out + start * r->n;
        widest.product(r->a + start * r->k, r->b, out, rows, r->k, r->n);
        if (e != NULL)
            r->faults |= widest.epilogue(out, rows, r->n, e->bias, e->stages, e->bits,
                                         e->scale, e->zero_point);
    }
    return NULL;
}

/* product(a, b, out, parts[, bias, stages[, bits, scale, zero_point]]):
 * out = a @ b over parts row ranges, every operand checked before a byte is
 * read or written. With bias, each range runs the epilogue on each block of
 * its rows, with the STAGE_* flags in stages (True and False are 1 and 0),
 * fake-quantizing when given bits, and the call returns whether a sum plus
 * its bias is not finite; if none is, a normalized row of zero norm raises
 * ZeroDivisionError. */
static PyObject *product(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "a", &MATRIX, PyBUF_SIMPLE}, {1, "b", &MATRIX, PyBUF_SIMPLE},
        {2, "out", &MATRIX, PyBUF_WRITABLE}, {4, "bias", &ROWS, PyBUF_SIMPLE},
    };
    Py_buffer view[4];
    PyObject *result = NULL;
    struct epilogue e = {NULL, 0, 0, 0.0, 0.0};
    if (nargs != 4 && nargs != 6 && nargs != 9)
        return PyErr_Format(PyExc_TypeError,
                            "product(a, b, out, parts) takes 4 arguments, or 6 or 9 with an "
                            "epilogue, got %zd", nargs);
    Py_ssize_t parts = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (parts < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError,
                                                      "parts must be at least 1, got %zd", parts);
    if (nargs > 4) {
        const long stages = PyLong_AsLong(args[5]);
        if (stages == -1 && PyErr_Occurred())
            return NULL;
        if (stages < 0 || stages > (STAGE_RELU | STAGE_NORMALIZE))
            return PyErr_Format(PyExc_ValueError, "stages must be from 0 to %d, got %ld",
                                STAGE_RELU | STAGE_NORMALIZE, stages);
        e.stages = (int)stages;
    }
    if (nargs == 9
        && ((e.bits = entry_bits("product", 9, nargs, args, 6)) < 0
            || ((e.scale = PyFloat_AsDouble(args[7])) == -1.0 && PyErr_Occurred())
            || ((e.zero_point = PyFloat_AsDouble(args[8])) == -1.0 && PyErr_Occurred())))
        return NULL;
    const int operands = nargs > 4 ? 4 : 3;
    if (take(args, op, operands, view) < 0)
        return NULL;
    const Py_buffer *a = &view[0], *b = &view[1], *out = &view[2];
    Py_ssize_t m = a->shape[0], k = a->shape[1], n = b->shape[1];
    struct range *ranges = NULL;
    if (b->shape[0] != k)
        PyErr_Format(PyExc_ValueError, "b has %zd rows, a has %zd columns", b->shape[0], k);
    else if (out->shape[0] != m)
        PyErr_Format(PyExc_ValueError, "out has %zd rows, a has %zd", out->shape[0], m);
    else if (out->shape[1] != n)
        PyErr_Format(PyExc_ValueError, "out has %zd columns, b has %zd", out->shape[1], n);
    else if (operands == 4 && view[3].shape[0] != n)
        PyErr_Format(PyExc_ValueError, "bias has %zd entries, b has %zd columns",
                     view[3].shape[0], n);
    else if (parts > (m > 1 ? m : 1))
        PyErr_Format(PyExc_ValueError, "%zd parts of %zd rows leave one empty", parts, m);
    else if ((ranges = PyMem_New(struct range, parts)) == NULL)
        PyErr_NoMemory();
    else {
        /* Range p ends at row m * (p + 1) / parts, computed without
         * forming m * (p + 1), which could overflow. */
        if (operands == 4)
            e.bias = view[3].buf;
        for (Py_ssize_t p = 0, start = 0, stop; p < parts; p++, start = stop) {
            stop = m / parts * (p + 1) + m % parts * (p + 1) / parts;
            ranges[p] = (struct range){(const float *)a->buf + start * k, b->buf,
                                       (float *)out->buf + start * n, stop - start, k, n,
                                       operands == 4 ? &e : NULL, 0};
        }
        Py_BEGIN_ALLOW_THREADS
        Py_ssize_t started = 1;
        while (started < parts
               && pthread_create(&ranges[started].thread, NULL, run, &ranges[started]) == 0)
            started++;
        run(&ranges[0]);
        for (Py_ssize_t p = started; p < parts; p++)
            run(&ranges[p]);
        for (Py_ssize_t p = 1; p < started; p++)
            pthread_join(ranges[p].thread, NULL);
        Py_END_ALLOW_THREADS
        int faults = 0;
        for (Py_ssize_t p = 0; p < parts; p++)
            faults |= ranges[p].faults;
        PyMem_Free(ranges);
        if (operands == 3)
            result = Py_NewRef(Py_None);
        else if (faults == FAULT_ZERO_NORM)
            PyErr_SetString(PyExc_ZeroDivisionError, ZERO_NORM);
        else
            result = PyBool_FromLong(faults & FAULT_NON_FINITE);
    }
    release(view, operands);
    return result;
}

/* fake_quant(x, out, bits, scale, zero_point): out = x fake-quantized, the
 * whole of x under one scale and zero-point (Python numbers). */
static PyObject *fake_quant(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "x", &FLOATS, PyBUF_SIMPLE}, {1, "out", &FLOATS, PyBUF_WRITABLE},
    };
    Py_buffer view[2];
    PyObject *result = NULL;
    double s, z;
    const int bits = entry_bits("fake_quant(x, out, bits, scale, zero_point)", 5, nargs, args, 2);
    if (bits < 0 || ((s = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred())
        || ((z = PyFloat_AsDouble(args[4])) == -1.0 && PyErr_Occurred())
        || take(args, op, 2, view) < 0)
        return NULL;
    if (same_shape(view, op, 1)) {
        Py_BEGIN_ALLOW_THREADS
        widest.fake_quant(view[0].buf, view[1].buf, view[0].len / (Py_ssize_t)sizeof(float),
                          s, z, bits);
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }
    release(view, 2);
    return result;
}

/* params_from_range(lo, hi, bits, scale, zero_point): the law's scale and
 * zero-point of every slice of float32 endpoints lo and hi. Returns None,
 * or the reason the law refuses them. */
static PyObject *params_from_range(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "lo", &ROWS, PyBUF_SIMPLE}, {1, "hi", &ROWS, PyBUF_SIMPLE},
        {3, "scale", &ROWS, PyBUF_WRITABLE}, {4, "zero_point", &INT_ROWS, PyBUF_WRITABLE},
    };
    Py_buffer view[4];
    PyObject *result = NULL;
    const int bits = entry_bits("params_from_range(lo, hi, bits, scale, zero_point)", 5, nargs,
                                args, 2);
    if (bits < 0 || take(args, op, 4, view) < 0)
        return NULL;
    if (rows_match(view, op, 1, 4, view[0].shape[0]))
        result = law_result(law(view[0].buf, view[1].buf, view[0].shape[0], bits, view[2].buf,
                                view[3].buf));
    release(view, 4);
    return result;
}

/* derive_params(w, bits, out, scale, zero_point, lo, hi): the range of
 * every row of w into lo and hi, its scale and zero-point under the law,
 * and, unless out is None, w fake-quantized under them into out. Returns
 * None, or the reason the law refuses a row's range. */
static PyObject *derive_params(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "w", &MATRIX, PyBUF_SIMPLE}, {3, "scale", &ROWS, PyBUF_WRITABLE},
        {4, "zero_point", &INT_ROWS, PyBUF_WRITABLE}, {5, "lo", &ROWS, PyBUF_WRITABLE},
        {6, "hi", &ROWS, PyBUF_WRITABLE}, {2, "out", &MATRIX, PyBUF_WRITABLE},
    };
    Py_buffer view[6];
    PyObject *result = NULL;
    const int bits = entry_bits("derive_params(w, bits, out, scale, zero_point, lo, hi)", 7,
                                nargs, args, 1);
    const int n = bits >= 0 && args[2] == Py_None ? 5 : 6;
    if (bits < 0 || take(args, op, n, view) < 0)
        return NULL;
    const Py_ssize_t rows = view[0].shape[0], cols = view[0].shape[1];
    if (cols < 1)
        PyErr_SetString(PyExc_ValueError, "w has no columns");
    else if (rows_match(view, op, 1, 5, rows) && (n == 5 || same_shape(view, op, 5))) {
        int status;
        Py_BEGIN_ALLOW_THREADS
        status = widest.derive_params(view[0].buf, n == 6 ? view[5].buf : NULL, rows, cols, bits,
                                      view[1].buf, view[2].buf, view[3].buf, view[4].buf);
        Py_END_ALLOW_THREADS
        result = law_result(status);
    }
    release(view, n);
    return result;
}

/* normalize(x, out): each row of the float32 matrix x divided by its norm
 * into out, of x's shape. A row of zero norm raises ZeroDivisionError once
 * every row is written. */
static PyObject *normalize(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "x", &MATRIX, PyBUF_SIMPLE}, {1, "out", &MATRIX, PyBUF_WRITABLE},
    };
    Py_buffer view[2];
    PyObject *result = NULL;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "normalize(x, out) takes 2 arguments, got %zd",
                            nargs);
    if (take(args, op, 2, view) < 0)
        return NULL;
    if (same_shape(view, op, 1)) {
        int zero;
        Py_BEGIN_ALLOW_THREADS
        zero = widest.normalize(view[0].buf, view[1].buf, view[0].shape[0], view[0].shape[1]);
        Py_END_ALLOW_THREADS
        if (zero)
            PyErr_SetString(PyExc_ZeroDivisionError, ZERO_NORM);
        else
            result = Py_NewRef(Py_None);
    }
    release(view, 2);
    return result;
}

/* row_dots(a, b, out): out[r] = the float64 dot product of rows r of the
 * float32 matrices a and b, of one shape. */
static PyObject *row_dots(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const struct operand op[] = {
        {0, "a", &MATRIX, PyBUF_SIMPLE}, {1, "b", &MATRIX, PyBUF_SIMPLE},
        {2, "out", &DOUBLE_ROWS, PyBUF_WRITABLE},
    };
    Py_buffer view[3];
    PyObject *result = NULL;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "row_dots(a, b, out) takes 3 arguments, got %zd",
                            nargs);
    if (take(args, op, 3, view) < 0)
        return NULL;
    if (same_shape(view, op, 1) && rows_match(view, op, 2, 3, view[0].shape[0])) {
        Py_BEGIN_ALLOW_THREADS
        widest.row_dots(view[0].buf, view[1].buf, view[2].buf, view[0].shape[0],
                        view[0].shape[1]);
        Py_END_ALLOW_THREADS
        result = Py_NewRef(Py_None);
    }
    release(view, 3);
    return result;
}

static PyMethodDef methods[] = {
    {"product", (PyCFunction)(void (*)(void))product, METH_FASTCALL,
     "product(a, b, out, parts[, bias, stages[, bits, scale, zero_point]])\n--\n\n"
     "out = a @ b in the exact order, for C-contiguous 2-D float32 a (m x k),\n"
     "b (k x n) and writable out (m x n), over 1 <= parts <= max(1, m) row\n"
     "ranges: the first on the calling thread, each other one on a thread of its own.\n"
     "With a 1-D float32 bias of n entries, each range then runs the epilogue on\n"
     "each block of its rows: out += bias, then max(out, 0) if stages has 1, then,\n"
     "with bits, out fake-quantized under one scale and zero-point (numbers), then\n"
     "each row normalized if stages has 2; the call returns whether any sum plus\n"
     "its bias is not finite, and if none is, a zero-norm row raises\n"
     "ZeroDivisionError."},
    {"fake_quant", (PyCFunction)(void (*)(void))fake_quant, METH_FASTCALL,
     "fake_quant(x, out, bits, scale, zero_point)\n--\n\n"
     "out = x fake-quantized to bits-bit codes under one scale and zero-point\n"
     "(numbers), for C-contiguous float32 x and writable out of x's shape."},
    {"params_from_range", (PyCFunction)(void (*)(void))params_from_range, METH_FASTCALL,
     "params_from_range(lo, hi, bits, scale, zero_point)\n--\n\n"
     "Each slice's scale (float32) and zero-point (int64) from its float32\n"
     "endpoints lo <= hi, into writable 1-D arrays of lo's length. Returns\n"
     "None, or the reason the law refuses a slice."},
    {"derive_params", (PyCFunction)(void (*)(void))derive_params, METH_FASTCALL,
     "derive_params(w, bits, out, scale, zero_point, lo, hi)\n--\n\n"
     "Each row's minimum and maximum of the float32 matrix w into lo and hi,\n"
     "its scale and zero-point from them, and, unless out is None, w\n"
     "fake-quantized under them into out. Returns None, or the reason the\n"
     "law refuses a row's range."},
    {"normalize", (PyCFunction)(void (*)(void))normalize, METH_FASTCALL,
     "normalize(x, out)\n--\n\n"
     "Each row of the C-contiguous 2-D float32 x divided by its L2 norm into\n"
     "writable out of x's shape, in numpy's float64 order; a zero-norm row\n"
     "raises ZeroDivisionError."},
    {"row_dots", (PyCFunction)(void (*)(void))row_dots, METH_FASTCALL,
     "row_dots(a, b, out)\n--\n\n"
     "out[r] = the float64 dot product of rows r of the C-contiguous 2-D\n"
     "float32 a and b (one shape), in numpy's order, into writable 1-D\n"
     "float64 out of a's rows."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef matmul_module = {
    PyModuleDef_HEAD_INIT, "_matmul",
    "The exact-order float32 matmul, fake-quantization and row-norm kernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__matmul(void)
{
    const char *name = qd_matmul_variant();
    widest = VARIANT(base);
#ifdef QD_X86_VARIANTS
    if (strcmp(name, "avx512") == 0)
        widest = VARIANT(avx512);
    else if (strcmp(name, "avx2") == 0)
        widest = VARIANT(avx2);
#endif
    PyObject *module = PyModule_Create(&matmul_module);
    if (module != NULL && PyModule_AddStringConstant(module, "variant", name) < 0)
        Py_CLEAR(module);
    return module;
}
