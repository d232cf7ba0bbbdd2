#ifndef LOS_NN_OPS_H_
#define LOS_NN_OPS_H_

#include <functional>

#include "nn/tensor.h"

namespace los {
class ThreadPool;
}  // namespace los

namespace los::nn {

/// \brief C = alpha * op(A) * op(B) + beta * C.
///
/// `trans_a` / `trans_b` select whether A / B are used transposed. Large
/// problems run a cache-blocked, register-tiled kernel over packed panels
/// (both orientations of B are packed into contiguous strips) and may split
/// row tiles across the kernel thread pool; small problems use a plain
/// vectorized i-k-j loop. Threading only partitions disjoint rows of C, so
/// results are bit-identical for any thread count. Moreover every path
/// accumulates each output element in strictly increasing k order, so a
/// row's result is bit-identical regardless of which kernel or blocking the
/// problem shape selects — batched and single-row calls over the same data
/// agree exactly (the learned structures' batch/serve consistency depends
/// on this; see GemmTest.PerRowResultsAreShapeInvariant).
void Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          float alpha, float beta, Tensor* c);

/// The original single-threaded scalar GEMM kept as the correctness /
/// performance baseline for tests and `bench_micro_kernels`.
void GemmReference(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, float alpha, float beta, Tensor* c);

/// Enables/disables use of the thread pool by all nn kernels (default on).
/// Serial and threaded execution produce bit-identical results; the switch
/// exists for benchmarking and for callers that manage their own outer
/// parallelism. Safe to call concurrently with running kernels (the flag is
/// atomic), though kernels already in flight may finish under the old
/// setting.
void SetKernelThreading(bool enabled);
bool KernelThreadingEnabled();

/// Overrides the pool used by the nn kernels (nullptr restores
/// `ThreadPool::Global()`). Intended for tests that need a multi-worker pool
/// regardless of the host's core count. The pointer is stored atomically,
/// but the caller must keep the pool alive until every kernel that might
/// have observed it has returned.
void SetKernelThreadPool(ThreadPool* pool);

/// Splits [0, n) across the kernel pool; the threaded half of
/// KernelParallelFor.
void KernelPoolParallelFor(int64_t n, int64_t min_chunk,
                           const std::function<void(int64_t, int64_t)>& fn);

/// Runs `fn(begin, end)` over [0, n), splitting across the kernel pool when
/// threading is enabled and `n > min_chunk`; inline otherwise, calling `fn`
/// directly so small (single-query) kernels never allocate a closure. `fn`
/// must write disjoint state per index so that chunking cannot affect
/// results.
template <typename Fn>
void KernelParallelFor(int64_t n, int64_t min_chunk, const Fn& fn) {
  if (n <= 0) return;
  if (!KernelThreadingEnabled() || n <= min_chunk) {
    fn(int64_t{0}, n);
    return;
  }
  KernelPoolParallelFor(n, min_chunk, fn);
}

/// Adds row-vector `bias` (1 x d) to every row of `x` (n x d).
void AddRowBroadcast(const Tensor& bias, Tensor* x);

/// Accumulates the column sums of `x` (n x d) into `out` (1 x d):
/// out += sum_rows(x). Used for bias gradients. Large inputs reduce through
/// fixed 256-row partials merged in ascending chunk order; the chunk layout
/// depends only on the row count, so results are bit-identical for serial
/// execution and any worker count.
void SumRowsAccumulate(const Tensor& x, Tensor* out);

/// Fused Adam update for one parameter: in a single threaded pass computes
/// m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g^2, subtracts
/// alpha*m/(sqrt(v)+eps) from `value` and zeroes `grad`. `alpha` is the
/// bias-corrected learning rate (lr * sqrt(1-beta2^t) / (1-beta1^t)).
/// Elements are independent, so threading never changes results.
void AdamStepFused(float alpha, float beta1, float beta2, float eps,
                   Tensor* value, Tensor* grad, Tensor* m, Tensor* v);

/// The original scalar Adam loop, kept as the correctness / performance
/// baseline for tests and `bench_micro_kernels`.
void AdamStepReference(float alpha, float beta1, float beta2, float eps,
                       Tensor* value, Tensor* grad, Tensor* m, Tensor* v);

/// Elementwise sigmoid, writing into `x` in place.
void SigmoidInPlace(Tensor* x);

/// Elementwise tanh in place.
void TanhInPlace(Tensor* x);

/// Elementwise ReLU in place.
void ReluInPlace(Tensor* x);

/// Given activation *outputs* y and upstream grad dy, computes
/// dy *= sigma'(x) expressed through y (sigmoid: y(1-y); tanh: 1-y^2;
/// relu: 1[y>0]).
void SigmoidBackwardInPlace(const Tensor& y, Tensor* dy);
void TanhBackwardInPlace(const Tensor& y, Tensor* dy);
void ReluBackwardInPlace(const Tensor& y, Tensor* dy);

/// Elementwise product: out = a ⊙ b (shapes must match).
void Hadamard(const Tensor& a, const Tensor& b, Tensor* out);

/// out += a ⊙ b.
void HadamardAccumulate(const Tensor& a, const Tensor& b, Tensor* out);

}  // namespace los::nn

#endif  // LOS_NN_OPS_H_
