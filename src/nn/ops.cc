#include "nn/ops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"
#include "common/trace.h"

namespace los::nn {

namespace {

// ---------------------------------------------------------------------------
// GEMM tile kernel.
//
// Every product runs one register-tile template,
// Tile<R, W, S, kStrided, kFused>: R rows x W lanes of C held in registers
// over all of k. Each k step broadcasts one value per tile row and
// multiplies it into W lanes read from one row of the other operand. Gemm's
// dispatcher picks the instance from the shape (see the table in DESIGN.md
// "Compute backend"):
//   - n = 1: the single-row tile on the transposed problem, so the rows of
//     C become the lanes and op(B) is broadcast; untransposed A is read
//     down its columns (kStrided);
//   - m = 1: one row of up to kRowLanes lanes;
//   - otherwise kTileRows x kTileLanes tiles, split across the kernel pool
//     for large products.
// op(A) is read in place (from a copy scaled by alpha when alpha != 1),
// op(B) in place too (from a k-major copy when transposed). DenseRows runs
// the one-row and kFusedRows x kRowLanes tiles with kFused set (seeded
// from +0, the bias and a ReLU applied before the last store) and its
// 1-wide heads as HeadDot.
// ---------------------------------------------------------------------------

// The accumulation contract every product keeps (see Gemm in ops.h). k is
// cut into blocks of kKc steps; within a block each output element keeps S
// partial sums, partial s taking the steps k ≡ s (mod S) in increasing k.
// Partial 0 starts from the element's running value (beta * C before the
// first block), the others from zero, and the block ends by adding them by
// halves into the running value. S is kHeadSums for a 1-wide output (a
// model's head: one dot product, so the most chains), kWideSums otherwise.
// A tile may run its partials interleaved or in several passes, since each
// partial is its own chain.
constexpr int64_t kKc = 256;
constexpr int64_t kHeadSums = 8;
constexpr int64_t kWideSums = 2;
static_assert(kKc % kHeadSums == 0 && kKc % kWideSums == 0,
              "every k block must start at partial 0");

/// The build's widest float vector, and how many vector registers a
/// tile's accumulators may take: half the register file.
#if defined(__AVX512F__)
constexpr int64_t kVecLanes = 16;
constexpr int64_t kAccRegs = 16;
#elif defined(__AVX__)
constexpr int64_t kVecLanes = 8;
constexpr int64_t kAccRegs = 8;
#else
constexpr int64_t kVecLanes = 4;
constexpr int64_t kAccRegs = 8;
#endif

/// A vector of L floats. (A member typedef: GCC drops vector_size from an
/// alias template, and from a class-scope alias of a dependent vector.)
template <int64_t L>
struct VecOf {
  typedef float type __attribute__((vector_size(L * sizeof(float))));
};

/// The lanes of a W-wide tile: vectors of up to kVecLanes floats, or single
/// floats below four lanes.
template <int64_t W>
using LanesOf = std::conditional_t<(W < 4), float,
                                   typename VecOf<std::min(W, kVecLanes)>::type>;
static_assert(sizeof(LanesOf<4 * kVecLanes>) == kVecLanes * sizeof(float));

/// Tile shapes: a one-row tile spans up to kRowLanes lanes, a multi-row
/// tile kTileRows x kTileLanes (with AVX-512 one partial's 8 x 32 tile is
/// 16 zmm, so a batch of 8 queries streams op(B) once). The partials whose
/// accumulators fit kAccRegs run interleaved, the others in further passes.
constexpr int64_t kRowLanes = 4 * kVecLanes;
constexpr int64_t kTileRows = 8;
constexpr int64_t kTileLanes = 2 * kVecLanes;

/// DenseRows' multi-row tiles: kRowLanes wide and as high as one partial's
/// accumulators fit kAccRegs (4 rows with AVX-512, 2 otherwise), so each k
/// step loads a weight row once for all of them. φ's few element rows ran
/// 10-15% faster than on Gemm's 8 x kTileLanes tiles (16 -> 64 at 3 rows
/// 96 -> 85 ns on an AVX-512 Xeon).
constexpr int64_t kFusedRows = kAccRegs / (kRowLanes / kVecLanes);

/// The two threaded kernels and their crossovers, measured in training on
/// a 4-vCPU host (EXPERIMENTS.md "Two threaded kernels"): below them a
/// 4-worker pool cost more than it saved. A product (Gemm's or a dense
/// layer's) of at least kGemmThreadedMacs multiply-adds and 32 columns
/// splits its rows across the kernel pool, kRowTilesPerChunk 8-row tiles
/// (128 rows) at a time. A compute-bound elementwise pass (Adam, sigmoid,
/// tanh) over at least kElementwiseThreadedFloats floats splits into chunks
/// of at least a quarter of that; the memory-bound passes never won and
/// always run on the caller's thread. Chunks write disjoint outputs, so
/// results never change.
constexpr int64_t kRowTilesPerChunk = 16;
constexpr int64_t kGemmThreadedMacs = int64_t{1} << 25;
constexpr int64_t kElementwiseThreadedFloats = int64_t{1} << 16;

// Atomics so the setters can race with in-flight kernels without UB; the
// kernels only need to see *some* consistent value, so relaxed ordering (a
// plain load on every relevant ISA) suffices.
std::atomic<bool> g_kernel_threading{true};
std::atomic<ThreadPool*> g_kernel_pool{nullptr};  // nullptr -> Global()

/// Runs `fn(begin, end)` over [0, n): split across the kernel pool in
/// chunks of at least `min_chunk` when `threaded` and kernel threading is
/// enabled, inline otherwise (calling `fn` directly, so small kernels never
/// allocate a closure). `fn` must write disjoint state per index, so that
/// chunking cannot affect results.
template <typename Fn>
void KernelParallelFor(bool threaded, int64_t n, int64_t min_chunk,
                       const Fn& fn) {
  if (!threaded || !g_kernel_threading.load(std::memory_order_relaxed)) {
    fn(int64_t{0}, n);
    return;
  }
  ThreadPool* pool = g_kernel_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) pool = ThreadPool::Global();
  pool->ParallelFor(
      static_cast<size_t>(n),
      [&fn](size_t begin, size_t end) {
        fn(static_cast<int64_t>(begin), static_cast<int64_t>(end));
      },
      static_cast<size_t>(min_chunk));
}

/// Splits a compute-bound elementwise pass over the kernel pool above its
/// crossover; chunk boundaries only partition disjoint output ranges, so
/// threading never changes results.
template <typename Fn>
void ElementwiseParallel(int64_t size, const Fn& fn) {
  KernelParallelFor(size >= kElementwiseThreadedFloats, size,
                    kElementwiseThreadedFloats / 4, fn);
}

/// One multiply-add step of the kernel on a float or a vector, lane by lane:
/// fused exactly when the build has FMA, a plain multiply-add otherwise.
/// Spelled out rather than left to -ffp-contract, which GCC applies to
/// vector loops but not reliably to a loop-carried scalar chain (the 1-wide
/// head).
template <typename T>
inline T MulAdd(T a, T b, T c) {
#ifdef __FMA__
  if constexpr (sizeof(T) == sizeof(float)) {
    return __builtin_fmaf(a, b, c);
#ifdef __AVX512F__
  } else if constexpr (sizeof(T) == 64) {
    return _mm512_fmadd_ps(a, b, c);
#endif
  } else if constexpr (sizeof(T) == 32) {
    return _mm256_fmadd_ps(a, b, c);
  } else {
    return _mm_fmadd_ps(a, b, c);
  }
#else
  return a * b + c;
#endif
}

/// Loads and stores of T (a float or a Vec) at unaligned addresses.
template <typename T>
inline T LoadAs(const float* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
inline void StoreAs(float* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Lanes p[0], p[stride], ... of a T: one gather with AVX-512.
template <typename T>
inline T LoadStrided(const float* p, int64_t stride) {
#ifdef __AVX512F__
  if constexpr (sizeof(T) == 64) {
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15);
    // The masked form: GCC 12 warns that the plain one reads an
    // uninitialized source.
    return _mm512_mask_i32gather_ps(
        _mm512_setzero_ps(), 0xFFFF,
        _mm512_mullo_epi32(lane, _mm512_set1_epi32(static_cast<int>(stride))),
        p, sizeof(float));
  }
#endif
  float lanes[sizeof(T) / sizeof(float)];
  for (size_t l = 0; l < sizeof(T) / sizeof(float); ++l) {
    lanes[l] = p[static_cast<int64_t>(l) * stride];
  }
  return LoadAs<T>(lanes);
}

/// Where a tile's operands live. Tile row i at k step kk broadcasts
/// x[i * x_row + kk * x_step]; lane j reads w[j * w_lane + kk * w_step],
/// where w_lane is 1 unless the tile reads its lanes strided. A fused
/// layer's lane j adds bias[j] before its last store, then applies `act`
/// if it is ReLU.
struct Operands {
  const float* x;
  int64_t x_row, x_step;
  const float* w;
  int64_t w_lane, w_step;
  const float* bias = nullptr;
  Activation act = Activation::kNone;

  /// The operands of the tile whose first row is i0 and first lane j0.
  Operands At(int64_t i0, int64_t j0) const {
    return {x + i0 * x_row, x_row, x_step, w + j0 * w_lane, w_lane, w_step,
            bias == nullptr ? nullptr : bias + j0, act};
  }
};

/// The activations' per-element expressions, shared by the Tensor passes
/// and DenseRows' epilogue so both round alike.
inline float Sigmoid(float d) { return 1.0f / (1.0f + std::exp(-d)); }
inline float Tanh(float d) { return std::tanh(d); }

/// A fused layer's epilogue in registers: stores sum + bias for the lanes
/// of `sum` (a float or a vector), through ReLU for a ReLU layer, with the
/// per-element expressions of AddRowBroadcast and a ReLU pass. Sigmoid and
/// tanh, scalar libm calls, run over the stored rows afterwards.
template <typename T>
[[gnu::always_inline]] inline void StoreBiased(float* c, T sum,
                                               const float* bias,
                                               Activation act) {
  sum = sum + LoadAs<T>(bias);
  // x > 0 ? x : 0 lane by lane: NaN and -0 become +0.
  if (act == Activation::kRelu) sum = sum > T{} ? sum : T{};
  StoreAs<T>(c, sum);
}

/// Partials per pass: the most (a power of two dividing S) whose tiles of
/// `regs` registers fit kAccRegs together, and at least one.
constexpr int64_t PartialsPerPass(int64_t regs, int64_t s) {
  while (s > 1 && s * regs > kAccRegs) s /= 2;
  return s;
}

/// One k step: acc[i][v] += xk[i * x_row] * lane group v of wk, where xk
/// and wk point at the step's operands.
template <bool kStrided, int64_t R, int64_t kV, typename T>
[[gnu::always_inline]] inline void Step(const Operands& o, const float* xk,
                                        const float* wk, T (&acc)[R][kV]) {
  constexpr int64_t kL = sizeof(T) / sizeof(float);
  T wv[kV];
#pragma GCC unroll 64
  for (int64_t v = 0; v < kV; ++v) {
    wv[v] = kStrided ? LoadStrided<T>(wk + v * kL * o.w_lane, o.w_lane)
                     : LoadAs<T>(wk + v * kL);
  }
#pragma GCC unroll 16
  for (int64_t i = 0; i < R; ++i) {
    // x - 0 is x exactly (-0 included) in every lane; a lane-by-lane fill
    // compiles to one insert per lane.
    const T xv = xk[i * o.x_row] - T{};
#pragma GCC unroll 64
    for (int64_t v = 0; v < kV; ++v) acc[i][v] = MulAdd(xv, wv[v], acc[i][v]);
  }
}

/// Adds each element's S partials p[0, S) by halves, p[s] += p[s + h] for
/// h = S/2, ..., 1 (for S = 8: ((p0 + p4) + (p2 + p6)) + ((p1 + p5) +
/// (p3 + p7))), and stores the sum into the tile of C; through a fused
/// layer's epilogue when `last` (the block that ends k).
template <bool kFused, int64_t S, int64_t R, int64_t kV, typename T>
[[gnu::always_inline]] inline void CombineStore(T (&p)[S][R][kV], float* c,
                                                int64_t ldc,
                                                const Operands& o,
                                                bool last) {
  constexpr int64_t kL = sizeof(T) / sizeof(float);
#pragma GCC unroll 16
  for (int64_t i = 0; i < R; ++i) {
#pragma GCC unroll 64
    for (int64_t v = 0; v < kV; ++v) {
#pragma GCC unroll 8
      for (int64_t h = S / 2; h >= 1; h /= 2) {
#pragma GCC unroll 8
        for (int64_t s = 0; s < h; ++s) p[s][i][v] += p[s + h][i][v];
      }
      if (kFused && last) {
        StoreBiased<T>(c + i * ldc + v * kL, p[0][i][v], o.bias + v * kL,
                       o.act);
      } else {
        StoreAs<T>(c + i * ldc + v * kL, p[0][i][v]);
      }
    }
  }
}

/// The tile kernel: C (R x W at c, row stride ldc) += x * w over all of k
/// under S partial sums, G of them per pass, interleaved. Fully unrolled
/// and forced inline, so the accumulators live in registers. A fused
/// layer's tile (kFused) instead writes x * w + bias, through ReLU for a
/// ReLU layer: partial 0 starts from +0 rather than from C, and the
/// epilogue runs before the last store. It runs one block even when k = 0,
/// so that C still gets the bias.
template <int64_t R, int64_t W, int64_t S, bool kStrided, bool kFused>
[[gnu::always_inline]] inline void Tile(const Operands& o, int64_t k, float* c,
                                        int64_t ldc) {
  using T = LanesOf<W>;
  constexpr int64_t kL = sizeof(T) / sizeof(float);
  constexpr int64_t kV = W / kL;
  constexpr int64_t G = PartialsPerPass(R * kV, S);
  T part[G < S ? S : 1][R][kV];
  for (int64_t k0 = 0; k0 < k || (kFused && k0 == 0); k0 += kKc) {
    const int64_t k1 = std::min(k, k0 + kKc);
    const bool seed_c = !kFused || k0 > 0;
    for (int64_t s0 = 0; s0 < S; s0 += G) {
      T acc[G][R][kV];
#pragma GCC unroll 8
      for (int64_t g = 0; g < G; ++g) {
#pragma GCC unroll 16
        for (int64_t i = 0; i < R; ++i) {
#pragma GCC unroll 64
          for (int64_t v = 0; v < kV; ++v) {
            acc[g][i][v] = s0 + g == 0 && seed_c
                               ? LoadAs<T>(c + i * ldc + v * kL)
                               : T{};
          }
        }
      }
      int64_t kk = k0 + s0;
      for (; kk + G <= k1; kk += S) {
        // The group's operands by pointer bumps: an index per partial
        // would take a register each.
        const float* xg = o.x + kk * o.x_step;
        const float* wg = o.w + kk * o.w_step;
#pragma GCC unroll 8
        for (int64_t g = 0; g < G; ++g) {
          Step<kStrided>(o, xg, wg, acc[g]);
          if (g + 1 < G) {
            xg += o.x_step;
            wg += o.w_step;
          }
        }
      }
#pragma GCC unroll 8
      for (int64_t g = 0; g < G; ++g) {  // the block ends inside a group
        if (kk + g < k1) {
          Step<kStrided>(o, o.x + (kk + g) * o.x_step,
                         o.w + (kk + g) * o.w_step, acc[g]);
        }
      }
      if constexpr (G == S) {
        CombineStore<kFused>(acc, c, ldc, o, k1 == k);
      } else {
        for (int64_t g = 0; g < G; ++g) {
          std::memcpy(part[s0 + g], acc[g], sizeof(acc[g]));
        }
      }
    }
    if constexpr (G < S) CombineStore<kFused>(part, c, ldc, o, k1 == k);
  }
}

/// Rows [0, m) of a W-lane strip in R-high tiles; the last rows recurse
/// down to their exact height, so every tile keeps constexpr shape.
template <int64_t R, int64_t W, int64_t S, bool kStrided, bool kFused>
[[gnu::always_inline]] inline void Rows(const Operands& o, int64_t m,
                                        int64_t k, float* c, int64_t ldc) {
  int64_t i0 = 0;
  for (; i0 + R <= m; i0 += R) {
    Tile<R, W, S, kStrided, kFused>(o.At(i0, 0), k, c + i0 * ldc, ldc);
  }
  if constexpr (R > 1) {
    if (i0 < m) {
      Rows<R - 1, W, S, kStrided, kFused>(o.At(i0, 0), m - i0, k,
                                          c + i0 * ldc, ldc);
    }
  }
}

/// Covers the last `rest` (< 2W) lanes with strips of width W, W/2, ..., 1:
/// calls strip.template operator()<V>(offset) for every power of two V set
/// in `rest`, widest first, with `offset` the width already covered, so
/// every strip runs at a constexpr width. Forced inline, like Rows: GCC
/// otherwise emits the one-row strips out of line, which doubled a small
/// single-row forward (BM_DenseForwardRow in:8/out:32, ~27 -> ~60 ns on an
/// AVX-512 Xeon).
template <int64_t W, class F>
[[gnu::always_inline]] inline void ForPow2Strips(int64_t rest, F&& strip,
                                                 int64_t offset = 0) {
  if (rest & W) {
    strip.template operator()<W>(offset);
    offset += W;
  }
  if constexpr (W > 1) ForPow2Strips<W / 2>(rest, strip, offset);
}

/// C (m x n at c, row stride ldc) += x * w: W-lane strips and then the
/// power-of-two tail strips, each strip's rows in R-high tiles.
template <int64_t R, int64_t W, int64_t S, bool kStrided = false,
          bool kFused = false>
void Cover(const Operands& o, int64_t m, int64_t n, int64_t k, float* c,
           int64_t ldc) {
  int64_t j0 = 0;
  for (; j0 + W <= n; j0 += W) {
    Rows<R, W, S, kStrided, kFused>(o.At(0, j0), m, k, c + j0, ldc);
  }
  ForPow2Strips<W / 2>(n - j0, [&]<int64_t V>(int64_t off) {
    Rows<R, V, S, kStrided, kFused>(o.At(0, j0 + off), m, k, c + j0 + off,
                                    ldc);
  });
}

/// A 1-wide layer's x · w over k steps from a +0 seed: one dot product
/// whose kHeadSums partials are the lanes of one vector (Tile's lane type,
/// so two 4-float halves without AVX). Lane s takes the steps k ≡ s
/// (mod kHeadSums); at the end of each kKc block the lanes are added by
/// halves, and the sum seeds lane 0 of the next block. The element-wise
/// arithmetic of Gemm's n = 1 path, which keeps the partials of many rows.
float HeadDot(const float* x, const float* w, int64_t k) {
  using T = LanesOf<kHeadSums>;
  constexpr int64_t kL = sizeof(T) / sizeof(float);
  constexpr int64_t kV = kHeadSums / kL;
  float sum = 0.0f;
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k, k0 + kKc);
    T acc[kV] = {};
    acc[0][0] = sum;  // in a register: a store and a wider load would stall
    int64_t kk = k0;
    for (; kk + kHeadSums <= k1; kk += kHeadSums) {
      for (int64_t v = 0; v < kV; ++v) {
        acc[v] = MulAdd(LoadAs<T>(x + kk + v * kL), LoadAs<T>(w + kk + v * kL),
                        acc[v]);
      }
    }
    if (kk < k1) {
      // The block's last k1 - kk steps go to partials 0, 1, ...; the other
      // lanes add +0 * +0, which leaves them unchanged: partials start
      // from +0, so none is ever -0.
      float xt[kHeadSums] = {}, wt[kHeadSums] = {};
      std::copy(x + kk, x + k1, xt);
      std::copy(w + kk, w + k1, wt);
      for (int64_t v = 0; v < kV; ++v) {
        acc[v] = MulAdd(LoadAs<T>(xt + v * kL), LoadAs<T>(wt + v * kL), acc[v]);
      }
    }
    float p[kHeadSums];
    for (int64_t v = 0; v < kV; ++v) StoreAs<T>(p + v * kL, acc[v]);
    for (int64_t h = kHeadSums / 2; h >= 1; h /= 2) {
      for (int64_t s = 0; s < h; ++s) p[s] += p[s + h];
    }
    sum = p[0];
  }
  return sum;
}

}  // namespace

void SetKernelThreading(bool enabled) {
  g_kernel_threading.store(enabled, std::memory_order_relaxed);
}

void SetKernelThreadPool(ThreadPool* pool) {
  g_kernel_pool.store(pool, std::memory_order_relaxed);
}

void Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          float alpha, float beta, Tensor* c) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t kb = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  assert(k == kb);
  (void)kb;
  assert(c->rows() == m && c->cols() == n);

  TRACE_SPAN_VAR(span, "nn", "nn.gemm");
  span.set_arg("mnk", static_cast<double>(m * n * k));

  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  float* cd = c->data();
  const float* ad = a.data();
  const float* bd = b.data();
  int64_t ldb = b.cols();
  // Packing scratch, reused across calls so steady-state training allocates
  // nothing here. Workers read it through the hoisted pointers.
  static thread_local AlignedVector<float> scaled_a, packed_b;
  if (alpha != 1.0f) {
    // alpha * a rounded once per element: the contract's (alpha * a) * b.
    scaled_a.resize(static_cast<size_t>(a.size()));
    for (int64_t e = 0; e < a.size(); ++e) scaled_a[e] = alpha * ad[e];
    ad = scaled_a.data();
  }
  if (n == 1) {
    // Rows become lanes: the single-row tile on the transposed problem,
    // broadcasting op(B), a contiguous k-vector in either orientation.
    // Untransposed A is read down its columns.
    if (trans_a) {
      Cover<1, kRowLanes, kHeadSums>({bd, 0, 1, ad, 1, a.cols()}, 1, m, k, cd,
                                     0);
    } else {
      assert(a.cols() <= INT32_MAX / kVecLanes);  // the gather's lane offsets
      Cover<1, kRowLanes, kHeadSums, true>({bd, 0, 1, ad, a.cols(), 1}, 1, m,
                                           k, cd, 0);
    }
    return;
  }
  if (trans_b) {
    // op(B)(kk, j) = B(j, kk), packed k-major so the lanes are contiguous.
    packed_b.resize(static_cast<size_t>(k * n));
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t kk = 0; kk < k; ++kk) packed_b[kk * n + j] = bd[j * ldb + kk];
    }
    bd = packed_b.data();
    ldb = n;
  }
  const Operands o{ad, trans_a ? 1 : a.cols(), trans_a ? a.cols() : 1, bd, 1,
                   ldb};
  if (m == 1) {
    Cover<1, kRowLanes, kWideSums>(o, 1, n, k, cd, 0);
    return;
  }
  const int64_t row_tiles = (m + kTileRows - 1) / kTileRows;
  KernelParallelFor(
      n >= 32 && m * n * k >= kGemmThreadedMacs, row_tiles, kRowTilesPerChunk,
      [&](int64_t t0, int64_t t1) {
        const int64_t i0 = t0 * kTileRows;
        const int64_t i1 = std::min(m, t1 * kTileRows);
        Cover<kTileRows, kTileLanes, kWideSums>(
            o.At(i0, 0), i1 - i0, n, k, cd + i0 * n, n);
      });
}

void GemmReference(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, float alpha, float beta, Tensor* c) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t kb = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  assert(k == kb);
  (void)kb;
  assert(c->rows() == m && c->cols() == n);

  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }

  float* cd = c->data();
  const float* ad = a.data();
  const float* bd = b.data();
  const int64_t a_cols = a.cols();
  const int64_t b_cols = b.cols();

  for (int64_t i = 0; i < m; ++i) {
    float* crow = cd + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av =
          alpha * (trans_a ? ad[kk * a_cols + i] : ad[i * a_cols + kk]);
      if (av == 0.0f) continue;
      if (!trans_b) {
        const float* brow = bd + kk * b_cols;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += av * bd[j * b_cols + kk];
      }
    }
  }
}

void DenseRows(const float* x, int64_t m, const float* w, const float* bias,
               int64_t k, int64_t n, Activation act, float* y) {
  const Operands o{x, k, 1, w, 1, n, bias, act};
  if (n == 1) {
    for (int64_t i = 0; i < m; ++i) {
      StoreBiased<float>(y + i, HeadDot(x + i * k, w, k), bias, act);
    }
  } else if (m == 1) {
    // Its own instance: reached through Rows' recursion, the one-row tile
    // ran ~8% slower (64 -> 64, 92 -> 99 ns on an AVX-512 Xeon).
    Cover<1, kRowLanes, kWideSums, false, true>(o, 1, n, k, y, n);
  } else {
    // Gemm's threading rule, over the same 128-row chunks: rows are
    // independent, so the split never changes a bit.
    const int64_t row_tiles = (m + kFusedRows - 1) / kFusedRows;
    KernelParallelFor(
        n >= 32 && m * n * k >= kGemmThreadedMacs, row_tiles,
        kRowTilesPerChunk * kTileRows / kFusedRows,
        [&](int64_t t0, int64_t t1) {
          const int64_t i0 = t0 * kFusedRows;
          const int64_t i1 = std::min(m, t1 * kFusedRows);
          Cover<kFusedRows, kRowLanes, kWideSums, false, true>(
              o.At(i0, 0), i1 - i0, n, k, y + i0 * n, n);
        });
  }
  if (act == Activation::kSigmoid) {
    ElementwiseParallel(m * n, [y](int64_t begin, int64_t end) {
      for (int64_t e = begin; e < end; ++e) y[e] = Sigmoid(y[e]);
    });
  } else if (act == Activation::kTanh) {
    ElementwiseParallel(m * n, [y](int64_t begin, int64_t end) {
      for (int64_t e = begin; e < end; ++e) y[e] = Tanh(y[e]);
    });
  }
}

void AddRowBroadcast(const Tensor& bias, Tensor* x) {
  assert(bias.rows() == 1 && bias.cols() == x->cols());
  const float* b = bias.data();
  const int64_t cols = x->cols();
  for (int64_t i = 0; i < x->rows(); ++i) {
    float* row = x->row(i);
    for (int64_t j = 0; j < cols; ++j) row[j] += b[j];
  }
}

namespace {

// Rows per partial in the chunked SumRowsAccumulate reduction. The chunk
// layout is a function of the row count alone, so the float accumulation
// order, and with it every bias gradient, is fixed by the shape.
constexpr int64_t kSumRowsChunkRows = 256;

/// Columns per register block of the row reductions below: 64 floats are
/// 4 zmm, 8 ymm or 16 xmm registers.
constexpr int64_t kReduceCols = 64;

/// W consecutive columns of a reduction, held in registers.
template <int64_t W>
struct ColumnBlock {
  using T = LanesOf<W>;
  static constexpr int64_t kL = sizeof(T) / sizeof(float);
  T lane[W / kL] = {};

  static ColumnBlock Load(const float* p) {
    ColumnBlock b;
#pragma GCC unroll 16
    for (int64_t v = 0; v < W / kL; ++v) b.lane[v] = LoadAs<T>(p + v * kL);
    return b;
  }
  void Store(float* p) const {
#pragma GCC unroll 16
    for (int64_t v = 0; v < W / kL; ++v) StoreAs<T>(p + v * kL, lane[v]);
  }
  /// Adds the row at p, lane by lane.
  void Add(const float* p) {
#pragma GCC unroll 16
    for (int64_t v = 0; v < W / kL; ++v) lane[v] += LoadAs<T>(p + v * kL);
  }
  void Add(const ColumnBlock& o) {
#pragma GCC unroll 16
    for (int64_t v = 0; v < W / kL; ++v) lane[v] += o.lane[v];
  }
};

/// Calls block.template operator()<W>(j0) for the column blocks of
/// [0, cols): kReduceCols-wide blocks, then the power-of-two tail strips.
template <class F>
[[gnu::always_inline]] inline void ForColumnBlocks(int64_t cols, F&& block) {
  int64_t j0 = 0;
  for (; j0 + kReduceCols <= cols; j0 += kReduceCols) {
    block.template operator()<kReduceCols>(j0);
  }
  ForPow2Strips<kReduceCols / 2>(cols - j0, [&]<int64_t V>(int64_t off) {
    block.template operator()<V>(j0 + off);
  });
}

}  // namespace

void SumRowsAccumulate(const Tensor& x, Tensor* out) {
  assert(out->rows() == 1 && out->cols() == x.cols());
  TRACE_SPAN_VAR(span, "nn", "nn.sum_rows");
  span.set_arg("rows", static_cast<double>(x.rows()));
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  const float* xd = x.data();
  float* o = out->data();
  ForColumnBlocks(cols, [&]<int64_t W>(int64_t j0) {
    auto sum = ColumnBlock<W>::Load(o + j0);
    if (rows <= kSumRowsChunkRows) {
      for (int64_t i = 0; i < rows; ++i) sum.Add(xd + i * cols + j0);
    } else {
      // Each chunk of kSumRowsChunkRows rows accumulates into a zeroed
      // partial (rows in ascending order), which is then added into `out`,
      // chunks in ascending order.
      for (int64_t c0 = 0; c0 < rows; c0 += kSumRowsChunkRows) {
        ColumnBlock<W> part;
        const int64_t c1 = std::min(rows, c0 + kSumRowsChunkRows);
        for (int64_t i = c0; i < c1; ++i) part.Add(xd + i * cols + j0);
        sum.Add(part);
      }
    }
    sum.Store(o + j0);
  });
}

void ColumnSums(const float* x, int64_t rows, int64_t d, float* out) {
  ForColumnBlocks(d, [&]<int64_t W>(int64_t j0) {
    ColumnBlock<W> sum;
    for (int64_t i = 0; i < rows; ++i) sum.Add(x + i * d + j0);
    sum.Store(out + j0);
  });
}

void SigmoidInPlace(Tensor* x) {
  float* d = x->data();
  ElementwiseParallel(x->size(), [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = Sigmoid(d[i]);
  });
}

void TanhInPlace(Tensor* x) {
  float* d = x->data();
  ElementwiseParallel(x->size(), [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = Tanh(d[i]);
  });
}

void SigmoidBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  for (int64_t i = 0; i < y.size(); ++i) d[i] *= yd[i] * (1.0f - yd[i]);
}

void TanhBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  for (int64_t i = 0; i < y.size(); ++i) d[i] *= 1.0f - yd[i] * yd[i];
}

void ReluBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  for (int64_t i = 0; i < y.size(); ++i) {
    if (yd[i] <= 0.0f) d[i] = 0.0f;
  }
}

void Hadamard(const Tensor& a, const Tensor& b, Tensor* out) {
  assert(a.SameShape(b) && a.SameShape(*out));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  for (int64_t i = 0; i < a.size(); ++i) od[i] = ad[i] * bd[i];
}

void HadamardAccumulate(const Tensor& a, const Tensor& b, Tensor* out) {
  assert(a.SameShape(b) && a.SameShape(*out));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  for (int64_t i = 0; i < a.size(); ++i) od[i] += ad[i] * bd[i];
}

void AdamStepFused(float alpha, float beta1, float beta2, float eps,
                   Tensor* value, Tensor* grad, Tensor* m, Tensor* v) {
  assert(value->SameShape(*grad) && value->SameShape(*m) &&
         value->SameShape(*v));
  TRACE_SPAN_VAR(span, "nn", "nn.adam_step");
  span.set_arg("params", static_cast<double>(value->size()));
  float* __restrict wd = value->data();
  float* __restrict gd = grad->data();
  float* __restrict md = m->data();
  float* __restrict vd = v->data();
  const float omb1 = 1.0f - beta1;
  const float omb2 = 1.0f - beta2;
  // One fused pass: moment decay, second-moment decay, weight update and
  // grad clear, with no per-element branches so the loop vectorizes. Every
  // element is independent, so chunking across workers cannot change any
  // result.
  ElementwiseParallel(value->size(), [=](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float g = gd[i];
      const float mi = beta1 * md[i] + omb1 * g;
      const float vi = beta2 * vd[i] + omb2 * g * g;
      md[i] = mi;
      vd[i] = vi;
      wd[i] -= alpha * mi / (std::sqrt(vi) + eps);
      gd[i] = 0.0f;
    }
  });
}

void AdamStepReference(float alpha, float beta1, float beta2, float eps,
                       Tensor* value, Tensor* grad, Tensor* m, Tensor* v) {
  assert(value->SameShape(*grad) && value->SameShape(*m) &&
         value->SameShape(*v));
  float* wd = value->data();
  float* gd = grad->data();
  float* md = m->data();
  float* vd = v->data();
  const int64_t n = value->size();
  for (int64_t i = 0; i < n; ++i) {
    const float g = gd[i];
    md[i] = beta1 * md[i] + (1.0f - beta1) * g;
    vd[i] = beta2 * vd[i] + (1.0f - beta2) * g * g;
    wd[i] -= alpha * md[i] / (std::sqrt(vd[i]) + eps);
    gd[i] = 0.0f;
  }
}

}  // namespace los::nn
