/* The exact-order float32 matrix product behind tensor_core.matmul, built
 * as a CPython extension module.
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
 *
 * Python reaches the kernel through the module's one function,
 * rows(a, b, out, start, stop), which takes its operands through the
 * buffer protocol, checks that every one is a C-contiguous 2-D float32
 * matrix (out writable) large enough for the row range, and runs the
 * variant picked when the module was initialised without the GIL. The
 * module's variant attribute names that variant.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* rows(a, b, out, start, stop): rows start:stop of out = a @ b, every
 * operand checked before a byte is read or written. */
static PyObject *rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer a, b, out;
    PyObject *result = NULL;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "rows(a, b, out, start, stop) takes 5 arguments, got %zd", nargs);
    Py_ssize_t start = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t stop = PyNumber_AsSsize_t(args[4], PyExc_OverflowError);
    if (stop == -1 && PyErr_Occurred())
        return NULL;
    if (start < 0)
        return PyErr_Format(PyExc_ValueError, "row range %zd:%zd starts below 0", start, stop);
    if (start > stop)
        return PyErr_Format(PyExc_ValueError, "row range %zd:%zd ends before it starts",
                            start, stop);
    if (matrix(args[0], &a, PyBUF_SIMPLE, "a") < 0)
        return NULL;
    if (matrix(args[1], &b, PyBUF_SIMPLE, "b") < 0)
        goto release_a;
    if (matrix(args[2], &out, PyBUF_WRITABLE, "out") < 0)
        goto release_b;
    Py_ssize_t k = a.shape[1], n = b.shape[1];
    if (a.shape[0] < stop)
        PyErr_Format(PyExc_ValueError, "a has %zd rows, too few for row range %zd:%zd",
                     a.shape[0], start, stop);
    else if (out.shape[0] < stop)
        PyErr_Format(PyExc_ValueError, "out has %zd rows, too few for row range %zd:%zd",
                     out.shape[0], start, stop);
    else if (b.shape[0] != k)
        PyErr_Format(PyExc_ValueError, "b has %zd rows, a has %zd columns", b.shape[0], k);
    else if (out.shape[1] != n)
        PyErr_Format(PyExc_ValueError, "out has %zd columns, b has %zd", out.shape[1], n);
    else {
        Py_BEGIN_ALLOW_THREADS
        widest((const float *)a.buf + start * k, b.buf, (float *)out.buf + start * n,
               stop - start, k, n);
        Py_END_ALLOW_THREADS
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
    {"rows", (PyCFunction)(void (*)(void))rows, METH_FASTCALL,
     "rows(a, b, out, start, stop)\n--\n\n"
     "Rows start:stop of out = a @ b in the exact order, for C-contiguous 2-D\n"
     "float32 a (m x k), b (k x n) and writable out (m x n)."},
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
