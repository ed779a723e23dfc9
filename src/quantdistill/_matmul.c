/* The exact-order float32 matrix product behind tensor_core.matmul, built
 * as a CPython extension module.
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
 *
 * Python reaches the kernel through the module's one function,
 * product(a, b, out, parts), which takes its operands through the buffer
 * protocol, checks that every one is a C-contiguous 2-D float32 matrix
 * (out writable) of the product's shape, and runs the variant picked when
 * the module was initialised, without the GIL, over parts contiguous row
 * ranges: the first on the calling thread and each other one on a thread
 * it starts, except that once a thread cannot be started, the ranges left
 * run on the calling thread too. The module's variant attribute names the
 * variant.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
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

typedef void (*rows_fn)(const float *restrict, const float *restrict, float *restrict,
                        ptrdiff_t, ptrdiff_t, ptrdiff_t);

/* The variant qd_matmul_variant names, set once at module init. */
static rows_fn widest;

/* Fills view with obj's buffer, or sets an exception and returns -1 unless
 * obj exports a C-contiguous 2-D float32 matrix (and a writable one where
 * flags asks for PyBUF_WRITABLE). */
static int matrix(PyObject *obj, Py_buffer *view, int flags, const char *name)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    if (view->ndim != 2 || strcmp(format, "f") != 0) {
        PyErr_Format(PyExc_ValueError, "%s must be a 2-D float32 matrix, got %d-D of format '%s'",
                     name, view->ndim, format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* One row range of a product, and the thread that runs it. */
struct range {
    const float *a, *b;
    float *out;
    ptrdiff_t rows, k, n;
    pthread_t thread;
};

static void *run(void *arg)
{
    const struct range *r = arg;
    widest(r->a, r->b, r->out, r->rows, r->k, r->n);
    return NULL;
}

/* product(a, b, out, parts): out = a @ b over parts row ranges, every
 * operand checked before a byte is read or written. */
static PyObject *product(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer a, b, out;
    PyObject *result = NULL;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError,
                            "product(a, b, out, parts) takes 4 arguments, got %zd", nargs);
    Py_ssize_t parts = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (parts < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError,
                                                      "parts must be at least 1, got %zd", parts);
    if (matrix(args[0], &a, PyBUF_SIMPLE, "a") < 0)
        return NULL;
    if (matrix(args[1], &b, PyBUF_SIMPLE, "b") < 0)
        goto release_a;
    if (matrix(args[2], &out, PyBUF_WRITABLE, "out") < 0)
        goto release_b;
    Py_ssize_t m = a.shape[0], k = a.shape[1], n = b.shape[1];
    struct range *ranges = NULL;
    if (b.shape[0] != k)
        PyErr_Format(PyExc_ValueError, "b has %zd rows, a has %zd columns", b.shape[0], k);
    else if (out.shape[0] != m)
        PyErr_Format(PyExc_ValueError, "out has %zd rows, a has %zd", out.shape[0], m);
    else if (out.shape[1] != n)
        PyErr_Format(PyExc_ValueError, "out has %zd columns, b has %zd", out.shape[1], n);
    else if (parts > (m > 1 ? m : 1))
        PyErr_Format(PyExc_ValueError, "%zd parts of %zd rows leave one empty", parts, m);
    else if ((ranges = PyMem_New(struct range, parts)) == NULL)
        PyErr_NoMemory();
    else {
        /* Range p ends at row m * (p + 1) / parts, computed without
         * forming m * (p + 1), which could overflow. */
        for (Py_ssize_t p = 0, start = 0, stop; p < parts; p++, start = stop) {
            stop = m / parts * (p + 1) + m % parts * (p + 1) / parts;
            ranges[p] = (struct range){(const float *)a.buf + start * k, b.buf,
                                       (float *)out.buf + start * n, stop - start, k, n};
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
        PyMem_Free(ranges);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_b:
    PyBuffer_Release(&b);
release_a:
    PyBuffer_Release(&a);
    return result;
}

static PyMethodDef methods[] = {
    {"product", (PyCFunction)(void (*)(void))product, METH_FASTCALL,
     "product(a, b, out, parts)\n--\n\n"
     "out = a @ b in the exact order, for C-contiguous 2-D float32 a (m x k),\n"
     "b (k x n) and writable out (m x n), over 1 <= parts <= max(1, m) row\n"
     "ranges: the first on the calling thread, each other one on a thread of its own."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef matmul_module = {
    PyModuleDef_HEAD_INIT, "_matmul", "The exact-order float32 matmul kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__matmul(void)
{
    const char *name = qd_matmul_variant();
    widest = qd_matmul_rows_base;
#ifdef QD_X86_VARIANTS
    if (strcmp(name, "avx512") == 0)
        widest = qd_matmul_rows_avx512;
    else if (strcmp(name, "avx2") == 0)
        widest = qd_matmul_rows_avx2;
#endif
    PyObject *module = PyModule_Create(&matmul_module);
    if (module != NULL && PyModule_AddStringConstant(module, "variant", name) < 0)
        Py_CLEAR(module);
    return module;
}
