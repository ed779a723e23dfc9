/* The exact-order float32 matrix product behind tensor_core.matmul.
 *
 * out[r, j] starts at +0.0f and adds the float32 products a[r, i] * b[i, j]
 * one at a time, in increasing i. Every output row is computed on its own,
 * so a caller may split the rows into ranges and run them in parallel.
 * Built without -ffast-math and with -ffp-contract=off: each multiply and
 * each add is rounded to float32 on its own, with no fused multiply-add.
 *
 * A row is computed BLOCK columns at a time, with the block's sums held in
 * registers for the whole pass over i; the columns past the last whole
 * block are summed in the output row itself. Either way every element sees
 * the same operations in the same order.
 */
#include <stddef.h>

#define BLOCK 32

void qd_matmul_rows(const float *restrict a, const float *restrict b, float *restrict out,
                    ptrdiff_t rows, ptrdiff_t k, ptrdiff_t n)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const float *restrict ar = a + r * k;
        float *restrict o = out + r * n;
        ptrdiff_t j0 = 0;
        for (; j0 + BLOCK <= n; j0 += BLOCK) {
            float sum[BLOCK] = {0.0f};
            for (ptrdiff_t i = 0; i < k; i++)
                for (int j = 0; j < BLOCK; j++)
                    sum[j] += ar[i] * b[i * n + j0 + j];
            for (int j = 0; j < BLOCK; j++)
                o[j0 + j] = sum[j];
        }
        for (ptrdiff_t j = j0; j < n; j++)
            o[j] = 0.0f;
        for (ptrdiff_t i = 0; i < k && j0 < n; i++)
            for (ptrdiff_t j = j0; j < n; j++)
                o[j] += ar[i] * b[i * n + j];
    }
}
