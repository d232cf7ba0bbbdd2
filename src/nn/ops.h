#ifndef LOS_NN_OPS_H_
#define LOS_NN_OPS_H_

#include "nn/tensor.h"

namespace los {
class ThreadPool;
}  // namespace los

namespace los::nn {

/// \brief C = alpha * op(A) * op(B) + beta * C.
///
/// `trans_a` / `trans_b` select whether A / B are used transposed. Every
/// shape runs one register-tile kernel template, instantiated per shape:
/// one row, a 1-wide output with the rows of C as the vector lanes, or
/// 8-row tiles, which large products split across the kernel thread pool.
/// Operands are read in place; a transposed B is packed k-major first, and
/// A is scaled by alpha into a copy when alpha != 1. Threading only
/// partitions disjoint rows of C, so results are bit-identical for any
/// thread count.
///
/// Every path computes each output element by one accumulation contract,
/// so a row's result is bit-identical whichever kernel or blocking the
/// problem shape selects, and batched and single-row calls over the same
/// data agree exactly (the learned structures' batch/serve consistency
/// depends on this):
///   - C is first scaled by beta; that value seeds the element;
///   - k is cut into blocks of 256 steps (the last may be shorter); within
///     a block the element keeps S partial sums, partial s accumulating
///     (alpha * a) * b over the steps k ≡ s (mod S) in increasing k, fused
///     exactly when the build has FMA. Partial 0 starts from the running
///     value, the others from zero;
///   - at the end of each block the partials are added by halves into the
///     running value: p[s] += p[s + h] for h = S/2, ..., 1;
///   - S depends on the output width n alone: 8 when n = 1 (a model's
///     1-wide head, one dot product), 2 otherwise. Independent chains per
///     element let a single row hide the FMA latency.
/// See GemmTest.EveryPathMatchesPartialSumContractBitExact and
/// GemmTest.PerRowResultsAreShapeInvariant.
void Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          float alpha, float beta, Tensor* c);

/// Supported activation functions for dense layers.
enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// \brief y = act(x · W + bias) for m rows: a dense layer's forward kernel.
///
/// `x` holds m rows of k floats, `w` is a row-major (k x n) matrix, `bias`
/// holds n floats and `y` receives m rows of n floats (it must not overlap
/// `x`). Each output accumulates under Gemm's contract from a +0 seed (what
/// Gemm loads from a zeroed C); the bias add and a ReLU then run on the
/// combined sum in registers before its store (sigmoid and tanh, libm
/// calls, run over the stored rows), with the per-element expressions of
/// AddRowBroadcast, `x > 0 ? x : 0` and the activation passes below. Every
/// row is therefore bit-identical to the matching row of a batched Gemm
/// followed by those passes — Dense::ForwardRows, and through it
/// SetModel::PredictOne, depend on this. The rows run on the tile kernel
/// Gemm uses; a 1-wide output is one dot product per row whose kHeadSums
/// partials are the lanes of one vector. Dense::Forward, training's
/// forward, is this call on a Tensor. Above Gemm's threading crossover
/// (2^25 multiply-adds and 32 columns) the row tiles split across the
/// kernel pool, and a sigmoid or tanh over at least 2^16 outputs splits
/// like SigmoidInPlace; rows are independent, so the bits do not depend on
/// the worker count. Allocates nothing; records no trace span.
void DenseRows(const float* x, int64_t m, const float* w, const float* bias,
               int64_t k, int64_t n, Activation act, float* y);

/// The original single-threaded scalar GEMM kept as the correctness /
/// performance baseline for tests and `bench_micro_kernels`.
void GemmReference(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, float alpha, float beta, Tensor* c);

/// Enables/disables the kernel thread pool (default on). Two kinds of
/// kernel use it, each only above a crossover measured on a 4-vCPU host
/// (DESIGN.md "Compute backend"): the row tiles of Gemm and DenseRows from
/// 2^25 multiply-adds and 32 columns, and the compute-bound elementwise
/// passes (AdamStepFused, sigmoid, tanh) from 2^16 floats. Every smaller
/// kernel, and every other kernel, runs on the caller's thread. Serial and
/// threaded execution produce bit-identical results; the switch exists for
/// benchmarking and for callers that manage their own outer parallelism.
/// Safe to call concurrently with running kernels (the flag is atomic),
/// though kernels already in flight may finish under the old setting.
void SetKernelThreading(bool enabled);

/// Overrides the pool used by the threaded kernels (nullptr restores
/// `ThreadPool::Global()`). Intended for tests that need a multi-worker pool
/// regardless of the host's core count. The pointer is stored atomically,
/// but the caller must keep the pool alive until every kernel that might
/// have observed it has returned.
void SetKernelThreadPool(ThreadPool* pool);

/// Adds row-vector `bias` (1 x d) to every row of `x` (n x d).
void AddRowBroadcast(const Tensor& bias, Tensor* x);

/// Accumulates the column sums of `x` (n x d) into `out` (1 x d):
/// out += sum_rows(x). Used for bias gradients. Inputs above 256 rows
/// reduce through fixed 256-row partials merged in ascending chunk order;
/// trained weights, and so every `Save()` byte, depend on that order.
void SumRowsAccumulate(const Tensor& x, Tensor* out);

/// out[j] = the sum of column j of the `rows` rows of `d` floats at `x`,
/// accumulated from +0 in row order (for rows = 0, +0). Sum pooling.
void ColumnSums(const float* x, int64_t rows, int64_t d, float* out);

/// Fused Adam update for one parameter: in a single pass computes
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

/// Elementwise sigmoid, writing into `x` in place. DenseRows' epilogue runs
/// the same per-element expression, so a layer and a tensor pass agree bit
/// for bit; likewise for tanh.
void SigmoidInPlace(Tensor* x);

/// Elementwise tanh in place.
void TanhInPlace(Tensor* x);

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
