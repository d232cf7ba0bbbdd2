#include "nn/ops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"
#include "common/trace.h"

namespace los::nn {

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM configuration.
//
// The kernel follows the classic three-level blocking scheme (BLIS/GotoBLAS):
//   - kKc x kNc panels of op(B) are packed once and reused by every row tile;
//   - kMr x kKc strips of op(A) are packed per row tile with alpha folded in;
//   - a kMr x kNr register tile accumulates over the packed panels with a
//     branch-free FMA loop the compiler can vectorize.
// kMr*kNr floats must fit the register file (6x32 floats = 12 zmm); the
// kKc*kNr B strip stays L1-resident during a micro-kernel call and the full
// kKc*kNc panel targets L2.
// ---------------------------------------------------------------------------
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 32;
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 1024;

// The blocked path needs enough output rows to amortize packing B (cost
// ~k*n) and at least one full kNr strip of useful columns (a 1-wide output
// head would compute kNr-1 padded lanes for nothing). Everything else runs
// GemmNarrow's unpacked register tiles (or the single-row kernel for one row
// with untransposed B); the row cutoff is two narrow tiles — measured
// per-row throughput at the boundary (two unpacked 8-row tiles vs packed
// panels) favors the narrow kernel until then.
constexpr int64_t kBlockedMinRows = 17;
constexpr int64_t kBlockedMinWork = 32 * 32 * 32;

// Minimum row tiles per chunk when threading a GEMM, and minimum
// multiply-adds before threads are used at all. The cutoff admits the
// training-batch GEMMs (a few thousand element rows x 32-64 features);
// kRowTilesPerChunk keeps per-chunk work large enough to amortize dispatch.
constexpr int64_t kRowTilesPerChunk = 16;
constexpr int64_t kThreadedCutoff = 128 * 128 * 64;

// Atomics so the setters can race with in-flight kernels without UB; the
// kernels only need to see *some* consistent value, so relaxed ordering (a
// plain load on every relevant ISA) suffices.
std::atomic<bool> g_kernel_threading{true};
std::atomic<ThreadPool*> g_kernel_pool{nullptr};  // nullptr -> Global()

ThreadPool* KernelPool() {
  ThreadPool* pool = g_kernel_pool.load(std::memory_order_relaxed);
  return pool != nullptr ? pool : ThreadPool::Global();
}

/// op(A)(i, kk) for the packing routines.
inline float AAt(const float* ad, int64_t a_cols, bool trans_a, int64_t i,
                 int64_t kk) {
  return trans_a ? ad[kk * a_cols + i] : ad[i * a_cols + kk];
}

/// Packs a kc x nr slice of op(B) (rows [pc, pc+kc), cols [jc, jc+nr)) into
/// `bp` in p-major order: bp[p*kNr + j]. Columns beyond `nr` are zero-padded
/// so the micro-kernel never needs a column tail case.
void PackB(const float* bd, int64_t b_cols, bool trans_b, int64_t pc,
           int64_t kc, int64_t jc, int64_t nr, float* bp) {
  if (!trans_b) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = bd + (pc + p) * b_cols + jc;
      float* dst = bp + p * kNr;
      std::memcpy(dst, src, static_cast<size_t>(nr) * sizeof(float));
      for (int64_t j = nr; j < kNr; ++j) dst[j] = 0.0f;
    }
  } else {
    // op(B)(kk, j) = B(j, kk): each logical column j is a contiguous row of
    // the stored B, so pack column-by-column.
    for (int64_t j = 0; j < nr; ++j) {
      const float* src = bd + (jc + j) * b_cols + pc;
      for (int64_t p = 0; p < kc; ++p) bp[p * kNr + j] = src[p];
    }
    for (int64_t j = nr; j < kNr; ++j) {
      for (int64_t p = 0; p < kc; ++p) bp[p * kNr + j] = 0.0f;
    }
  }
}

/// Packs a mr x kc strip of alpha*op(A) (rows [i0, i0+mr), depth
/// [pc, pc+kc)) into `ap` in p-major order: ap[p*kMr + i], zero-padding rows
/// beyond `mr`.
void PackA(const float* ad, int64_t a_cols, bool trans_a, float alpha,
           int64_t i0, int64_t mr, int64_t pc, int64_t kc, float* ap) {
  for (int64_t p = 0; p < kc; ++p) {
    float* dst = ap + p * kMr;
    for (int64_t i = 0; i < mr; ++i) {
      dst[i] = alpha * AAt(ad, a_cols, trans_a, i0 + i, pc + p);
    }
    for (int64_t i = mr; i < kMr; ++i) dst[i] = 0.0f;
  }
}

/// One multiply-add step of every kernel: fused exactly when the build has
/// FMA, a plain multiply-add otherwise. Spelled out rather than left to
/// -ffp-contract, which GCC applies to vector loops but not reliably to a
/// loop-carried scalar chain (the 1-wide head).
inline float MulAdd(float a, float b, float c) {
#ifdef __FMA__
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

// ---------------------------------------------------------------------------
// The accumulation contract every path keeps (see Gemm in ops.h). k is cut
// into blocks of kKc steps; within a block each output element keeps S
// partial sums, partial s taking the steps k ≡ s (mod S) in increasing k.
// Partial 0 starts from the element's running value (beta * C before the
// first block), the others from zero, and at the end of the block
// CombineSums adds them in one fixed tree into the running value. S depends
// on the output width n alone (SumsFor). A path may compute the partials
// interleaved (for independent FMA chains) or one after another (to keep
// its register tile), since each partial is its own chain.
// ---------------------------------------------------------------------------

/// S for a 1-wide output (a model's head): one dot product, so the most
/// chains. Wider outputs already run a chain per column and take two.
constexpr int64_t kHeadSums = 8;
constexpr int64_t kWideSums = 2;
static_assert(kKc % kHeadSums == 0 && kKc % kWideSums == 0,
              "every k block must start at partial 0");

/// The contract's combining tree over one element's partials p[0, S):
/// halves added elementwise, p[s] += p[s + h] for h = S/2, ..., 1; for
/// S = 8 that is ((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7)). T is
/// float, or a vector of floats combining one element per lane.
template <int64_t S, typename T>
inline T CombineSums(T* p) {
  for (int64_t h = S / 2; h >= 1; h /= 2) {
    for (int64_t s = 0; s < h; ++s) p[s] += p[s + h];
  }
  return p[0];
}

/// The same tree for kLen elements at once, partial s of element e at
/// part[s * kLen + e]; the results land in part[0, kLen).
template <int64_t S, int64_t kLen>
inline void CombinePartials(float* part) {
  for (int64_t h = S / 2; h >= 1; h /= 2) {
    for (int64_t s = 0; s < h; ++s) {
      for (int64_t e = 0; e < kLen; ++e) {
        part[s * kLen + e] += part[(s + h) * kLen + e];
      }
    }
  }
}

/// One k step of the blocked kernel: acc[kMr][kNr] += acol (x) brow.
inline void MicroStep(const float* __restrict acol,
                      const float* __restrict brow, float* __restrict acc) {
  for (int64_t i = 0; i < kMr; ++i) {
    const float av = acol[i];
    float* __restrict arow = acc + i * kNr;
    for (int64_t j = 0; j < kNr; ++j) arow[j] = MulAdd(av, brow[j], arow[j]);
  }
}

/// acc[kMr][kNr] += packed_a * packed_b over `kc` depth steps under the
/// contract: outputs here are at least kNr wide, so its two partials, the
/// even steps accumulating into `acc` (seeded by the caller) and the odd
/// ones into a zeroed tile, added into `acc` at the end. With constexpr
/// tile sizes the compiler keeps both tiles in vector registers (24 zmm).
inline void MicroKernel(int64_t kc, const float* __restrict ap,
                        const float* __restrict bp, float* __restrict acc) {
  static_assert(kWideSums == 2, "the blocked kernel keeps two tiles");
  constexpr int64_t kTile = kMr * kNr;
  float odd[kTile];
  for (int64_t e = 0; e < kTile; ++e) odd[e] = 0.0f;
  int64_t p = 0;
  for (; p + 2 <= kc; p += 2) {
    MicroStep(ap + p * kMr, bp + p * kNr, acc);
    MicroStep(ap + (p + 1) * kMr, bp + (p + 1) * kNr, odd);
  }
  if (p < kc) MicroStep(ap + p * kMr, bp + p * kNr, acc);
  for (int64_t e = 0; e < kTile; ++e) acc[e] += odd[e];
}

/// The build's widest float vector, for the single-row kernel's
/// accumulators.
#if defined(__AVX512F__)
constexpr int64_t kVecLanes = 16;
#elif defined(__AVX__)
constexpr int64_t kVecLanes = 8;
#else
constexpr int64_t kVecLanes = 4;
#endif
using VecF = float __attribute__((vector_size(kVecLanes * sizeof(float))));

/// MulAdd on whole vectors, lane by lane the same operation as the scalar
/// one: fused exactly when the build has FMA.
inline VecF MulAdd(VecF a, VecF b, VecF c) {
#if defined(__AVX512F__)
  return _mm512_fmadd_ps(a, b, c);
#elif defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return a * b + c;
#endif
}

/// Loads, stores and broadcasts of T (float or VecF) at unaligned
/// addresses.
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
/// `v` in every lane (v - 0 is v exactly, -0 included; a lane-by-lane
/// fill compiles to one insert per lane).
template <typename T>
inline T Broadcast(float v) {
  return v - T{};
}

/// Widest column strip of the single-row kernel: its kWideSums x 64
/// accumulators are 8 zmm registers; without AVX-512, 16 columns keep them
/// within 8 vector registers.
#ifdef __AVX512F__
constexpr int64_t kRowStrip = 64;
#else
constexpr int64_t kRowStrip = 16;
#endif

/// y[0, kCount * lanes of T) += alpha * op(x) * w over one k block (k <=
/// kKc) with S partials interleaved: k step kk feeds partial kk mod S, so a
/// strip runs S times as many independent FMA chains as it has
/// accumulators per partial. Partial 0 starts from y, and y receives the
/// combined sum. With kUnitAlpha (alpha == 1, every single-row forward)
/// the exact product 1 * x is not computed: a multiply per k step less on
/// the FMA ports.
template <bool kUnitAlpha, int64_t S, typename T, int64_t kCount>
void RowStripOf(const float* x, int64_t x_stride, float alpha, const float* w,
                int64_t ldw, int64_t k, float* y) {
  constexpr int64_t kLanes = sizeof(T) / sizeof(float);
  // Fully unrolled, so the accumulators live in registers from the start
  // (a rolled zeroing loop becomes a memset of a stack copy).
  T acc[S][kCount];
#pragma GCC unroll 64
  for (int64_t v = 0; v < kCount; ++v) {
    acc[0][v] = LoadAs<T>(y + v * kLanes);
#pragma GCC unroll 8
    for (int64_t s = 1; s < S; ++s) acc[s][v] = T{};
  }
  int64_t kk = 0;
  for (; kk + S <= k; kk += S) {
#pragma GCC unroll 8
    for (int64_t s = 0; s < S; ++s) {
      const float xv = x[(kk + s) * x_stride];
      const T av = Broadcast<T>(kUnitAlpha ? xv : alpha * xv);
      const float* wrow = w + (kk + s) * ldw;
#pragma GCC unroll 8
      for (int64_t v = 0; v < kCount; ++v) {
        acc[s][v] = MulAdd(av, LoadAs<T>(wrow + v * kLanes), acc[s][v]);
      }
    }
  }
  for (int64_t s = 0; kk < k; ++kk, ++s) {  // the last k mod S steps
    const float xv = x[kk * x_stride];
    const T av = Broadcast<T>(kUnitAlpha ? xv : alpha * xv);
    const float* wrow = w + kk * ldw;
#pragma GCC unroll 8
    for (int64_t v = 0; v < kCount; ++v) {
      acc[s][v] = MulAdd(av, LoadAs<T>(wrow + v * kLanes), acc[s][v]);
    }
  }
#pragma GCC unroll 64
  for (int64_t v = 0; v < kCount; ++v) {
    T p[S];
#pragma GCC unroll 8
    for (int64_t s = 0; s < S; ++s) p[s] = acc[s][v];
    StoreAs<T>(y + v * kLanes, CombineSums<S>(p));
  }
}

/// A W-wide strip in whole vectors when W allows, else in floats.
template <bool kUnitAlpha, int64_t W, int64_t S>
void RowStrip(const float* x, int64_t x_stride, float alpha, const float* w,
              int64_t ldw, int64_t k, float* y) {
  if constexpr (W % kVecLanes == 0) {
    RowStripOf<kUnitAlpha, S, VecF, W / kVecLanes>(x, x_stride, alpha, w, ldw,
                                                   k, y);
  } else {
    RowStripOf<kUnitAlpha, S, float, W>(x, x_stride, alpha, w, ldw, k, y);
  }
}

/// Covers the last `rest` (< 2W) columns or rows with strips of width W,
/// W/2, ..., 1: calls strip.template operator()<S>(offset) for every power
/// of two S set in `rest`, widest first, with `offset` the width already
/// covered, so every strip kernel runs at a constexpr width (a 1-wide head
/// is a dot product). Forced inline: GCC otherwise emits the row kernel's
/// instance out of line, which doubled a small single-row forward
/// (BM_DenseForwardRow in:8/out:32, ~27 -> ~60 ns on an AVX-512 Xeon).
template <int64_t W, class F>
[[gnu::always_inline]] inline void ForPow2Strips(int64_t rest, F&& strip,
                                                 int64_t offset = 0) {
  if (rest & W) {
    strip.template operator()<W>(offset);
    offset += W;
  }
  if constexpr (W > 1) ForPow2Strips<W / 2>(rest, strip, offset);
}

/// The single-row kernel: y (n) += alpha * op(x) (k, element stride
/// `x_stride`) * w (k x n, row stride `ldw`). Gemm's m = 1 untransposed-B
/// case and GemmRow (Dense::ForwardRow) both run it. Strips run one k block
/// at a time; each seeds partial 0 from y and writes the block's sum back,
/// which chains the blocks as the contract does.
template <bool kUnitAlpha>
void RowKernel(const float* x, int64_t x_stride, float alpha, const float* w,
               int64_t ldw, int64_t k, int64_t n, float* y) {
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const float* xb = x + k0 * x_stride;
    const float* wb = w + k0 * ldw;
    const int64_t kb = std::min(kKc, k - k0);
    if (n == 1) {
      RowStrip<kUnitAlpha, 1, kHeadSums>(xb, x_stride, alpha, wb, ldw, kb, y);
      continue;
    }
    int64_t j0 = 0;
    for (; j0 + kRowStrip <= n; j0 += kRowStrip) {
      RowStrip<kUnitAlpha, kRowStrip, kWideSums>(xb, x_stride, alpha, wb + j0,
                                                 ldw, kb, y + j0);
    }
    ForPow2Strips<kRowStrip / 2>(n - j0, [&]<int64_t W>(int64_t off) {
      RowStrip<kUnitAlpha, W, kWideSums>(xb, x_stride, alpha, wb + j0 + off,
                                         ldw, kb, y + j0 + off);
    });
  }
}

// ---------------------------------------------------------------------------
// Narrow GEMM: every product the blocked kernel does not take except the
// single row with untransposed B — micro-batches (m < kBlockedMinRows),
// outputs narrower than one kNr strip (training's n = 8/16 input gradients
// and 1-wide heads), and tiny problems. Nothing is packed for op(A); op(B)
// is packed k-major one kNr-column strip at a time when it is transposed,
// so every tile reads a contiguous row of op(B) per k step. A 1-wide output
// runs the column kernel instead, with rows as the vector lanes.
// ---------------------------------------------------------------------------

/// Row-tile height of the narrow kernel. With AVX-512 (32 vector registers)
/// an 8 x kNr accumulator still fits the register file, so a batch of 8
/// queries runs as a SINGLE tile — one streaming pass over
/// op(B), which is the whole game for weight matrices too large for cache.
constexpr int64_t kNarrowRows = 8;

/// Rows per strip of the n = 1 column kernel: 64 lanes are four zmm (eight
/// ymm) accumulators, enough independent FMA chains to cover FMA latency.
constexpr int64_t kColStrip = 64;

/// One k step of a narrow tile: acc[kRows][W] += alpha * op(A) rows
/// [i0, i0 + kRows) at step kk (x) brow.
template <bool kUnitAlpha, int64_t kRows, int64_t W>
inline void NarrowStep(const float* ad, int64_t a_cols, bool trans_a,
                       float alpha, const float* __restrict brow, int64_t i0,
                       int64_t kk, float* __restrict acc) {
  for (int64_t i = 0; i < kRows; ++i) {
    const float a = AAt(ad, a_cols, trans_a, i0 + i, kk);
    const float av = kUnitAlpha ? a : alpha * a;
    float* __restrict arow = acc + i * W;
    // Without this GCC fully unrolls a <= 16-wide j loop first and then
    // vectorizes across the tile's rows, leaving the accumulator in memory
    // (~10x slower). Kept rolled, the j loop becomes whole vectors.
#pragma GCC unroll 1
    for (int64_t j = 0; j < W; ++j) arow[j] = MulAdd(av, brow[j], arow[j]);
  }
}

/// Writes a kRows x W tile to c (row stride ldc).
template <int64_t kRows, int64_t W>
inline void StoreTile(const float* tile, float* c, int64_t ldc) {
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t j = 0; j < W; ++j) c[i * ldc + j] = tile[i * W + j];
  }
}

/// C rows [0, kRows) x columns [0, W) += alpha * op(A) rows [i0, i0+kRows)
/// * b, where `b` is W columns of op(B) stored k-major with row stride ldb
/// and `c` points at the tile's top-left element (row stride ldc), under
/// the contract's kWideSums partials (n > 1 here). Partials whose tiles fit
/// 16 zmm together are interleaved; a larger tile (8 x kNr) runs them one
/// after another, so it keeps its register budget
/// (GemmTest.EveryPathMatchesPartialSumContractBitExact).
template <bool kUnitAlpha, int64_t kRows, int64_t W>
void NarrowTile(const float* ad, int64_t a_cols, bool trans_a, float alpha,
                const float* b, int64_t ldb, int64_t i0, int64_t k, float* c,
                int64_t ldc) {
  constexpr int64_t kLen = kRows * W;
  constexpr int64_t kGroup = kLen * kWideSums <= 256 ? kWideSums : 1;
  float part[kGroup < kWideSums ? kWideSums * kLen : 1];
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k, k0 + kKc);
    for (int64_t s0 = 0; s0 < kWideSums; s0 += kGroup) {
      float acc[kGroup * kLen];
      for (int64_t g = 0; g < kGroup; ++g) {
        for (int64_t i = 0; i < kRows; ++i) {
          for (int64_t j = 0; j < W; ++j) {
            acc[g * kLen + i * W + j] = s0 + g == 0 ? c[i * ldc + j] : 0.0f;
          }
        }
      }
      int64_t kk = k0 + s0;
      for (; kk + kGroup <= k1; kk += kWideSums) {
        if constexpr (W == kNr) {
          // A full strip of an unpacked B walks row-stride jumps down k;
          // the prefetch hides their L3 latency for weight matrices beyond
          // L2.
          const float* ahead = b + (kk + 8 * kWideSums) * ldb;
          __builtin_prefetch(ahead, 0, 0);
          __builtin_prefetch(ahead + 16, 0, 0);
        }
#pragma GCC unroll 2
        for (int64_t g = 0; g < kGroup; ++g) {
          NarrowStep<kUnitAlpha, kRows, W>(ad, a_cols, trans_a, alpha,
                                           b + (kk + g) * ldb, i0, kk + g,
                                           acc + g * kLen);
        }
      }
      for (int64_t g = 0; kk + g < k1; ++g) {  // a block's odd last step
        NarrowStep<kUnitAlpha, kRows, W>(ad, a_cols, trans_a, alpha,
                                         b + (kk + g) * ldb, i0, kk + g,
                                         acc + g * kLen);
      }
      if constexpr (kGroup == kWideSums) {
        CombinePartials<kWideSums, kLen>(acc);
        StoreTile<kRows, W>(acc, c, ldc);
      } else {
        std::memcpy(part + s0 * kLen, acc, sizeof(acc));
      }
    }
    if constexpr (kGroup < kWideSums) {
      CombinePartials<kWideSums, kLen>(part);
      StoreTile<kRows, W>(part, c, ldc);
    }
  }
}

/// The last tile of a strip, `rows` < kRows high: recurses down to its
/// height so it too keeps a constexpr, register-resident accumulator.
template <bool kUnitAlpha, int64_t kRows, int64_t W>
void NarrowEdgeTile(int64_t rows, const float* ad, int64_t a_cols,
                    bool trans_a, float alpha, const float* b, int64_t ldb,
                    int64_t i0, int64_t k, float* c, int64_t ldc) {
  if constexpr (kRows > 1) {
    if (rows < kRows) {
      NarrowEdgeTile<kUnitAlpha, kRows - 1, W>(rows, ad, a_cols, trans_a,
                                               alpha, b, ldb, i0, k, c, ldc);
      return;
    }
  }
  NarrowTile<kUnitAlpha, kRows, W>(ad, a_cols, trans_a, alpha, b, ldb, i0, k,
                                   c, ldc);
}

/// One W-wide column strip over all m rows, in kNarrowRows-high tiles.
template <bool kUnitAlpha, int64_t W>
void NarrowStrip(const float* ad, int64_t a_cols, bool trans_a, float alpha,
                 const float* b, int64_t ldb, int64_t m, int64_t k, float* c,
                 int64_t ldc) {
  int64_t i0 = 0;
  for (; i0 + kNarrowRows <= m; i0 += kNarrowRows) {
    NarrowTile<kUnitAlpha, kNarrowRows, W>(ad, a_cols, trans_a, alpha, b, ldb,
                                           i0, k, c + i0 * ldc, ldc);
  }
  if (i0 < m) {
    NarrowEdgeTile<kUnitAlpha, kNarrowRows - 1, W>(
        m - i0, ad, a_cols, trans_a, alpha, b, ldb, i0, k, c + i0 * ldc, ldc);
  }
}

/// The n = 1 column kernel: c[r] += alpha * op(A)(r, :) · b for R rows of
/// op(A) starting at row i0, with `b` contiguous. Rows are the vector lanes,
/// so each k step is R / 16 independent FMAs rather than one serial
/// dot-product chain per row; the contract's kHeadSums partials run one
/// after another, as in NarrowTile. Untransposed A is read down its columns
/// (a strided load per lane).
template <bool kUnitAlpha, int64_t R, bool kTransA>
void ColStrip(const float* ad, int64_t a_cols, float alpha, const float* b,
              int64_t i0, int64_t k, float* c) {
  float part[kHeadSums * R];
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k, k0 + kKc);
    for (int64_t s = 0; s < kHeadSums; ++s) {
      float acc[R];
      for (int64_t r = 0; r < R; ++r) acc[r] = s == 0 ? c[r] : 0.0f;
      for (int64_t kk = k0 + s; kk < k1; kk += kHeadSums) {
        const float bv = b[kk];
        for (int64_t r = 0; r < R; ++r) {
          const float a = kTransA ? ad[kk * a_cols + i0 + r]
                                  : ad[(i0 + r) * a_cols + kk];
          acc[r] = MulAdd(kUnitAlpha ? a : alpha * a, bv, acc[r]);
        }
      }
      std::memcpy(part + s * R, acc, sizeof(acc));
    }
    CombinePartials<kHeadSums, R>(part);
    for (int64_t r = 0; r < R; ++r) c[r] = part[r];
  }
}

/// All m rows of the n = 1 column kernel.
template <bool kUnitAlpha, bool kTransA>
void ColKernel(const float* ad, int64_t a_cols, float alpha, const float* b,
               int64_t m, int64_t k, float* c) {
  int64_t i0 = 0;
  for (; i0 + kColStrip <= m; i0 += kColStrip) {
    ColStrip<kUnitAlpha, kColStrip, kTransA>(ad, a_cols, alpha, b, i0, k,
                                             c + i0);
  }
  ForPow2Strips<kColStrip / 2>(m - i0, [&]<int64_t R>(int64_t off) {
    ColStrip<kUnitAlpha, R, kTransA>(ad, a_cols, alpha, b, i0 + off, k,
                                     c + i0 + off);
  });
}

/// C (m x n) += alpha * op(A) * op(B) for every shape the blocked kernel
/// and the single-row kernel do not take. Single-threaded. With kUnitAlpha
/// (alpha == 1, all of training) the kernels skip the exact product 1 * a,
/// a multiply per FMA less on the FMA ports.
template <bool kUnitAlpha>
void GemmNarrow(const float* ad, int64_t a_cols, bool trans_a,
                const float* bd, int64_t b_cols, bool trans_b, float alpha,
                int64_t m, int64_t n, int64_t k, float* cd) {
  // One packed strip of a transposed op(B), at most k x kNr floats; reused
  // across calls so steady-state training allocates nothing here.
  static thread_local AlignedVector<float> packed;
  if (n == 1) {
    // op(B) is a contiguous k-vector in either orientation (B is k x 1 or
    // 1 x k).
    if (trans_a) {
      ColKernel<kUnitAlpha, true>(ad, a_cols, alpha, bd, m, k, cd);
    } else {
      ColKernel<kUnitAlpha, false>(ad, a_cols, alpha, bd, m, k, cd);
    }
    return;
  }
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const int64_t w = std::min(kNr, n - j0);
    const float* b = bd + j0;
    int64_t ldb = b_cols;
    if (trans_b) {
      // op(B)(kk, j) = B(j, kk): column j of the strip is a contiguous row
      // of the stored B.
      packed.resize(static_cast<size_t>(k * w));
      float* p = packed.data();
      for (int64_t j = 0; j < w; ++j) {
        const float* src = bd + (j0 + j) * b_cols;
        for (int64_t kk = 0; kk < k; ++kk) p[kk * w + j] = src[kk];
      }
      b = p;
      ldb = w;
    }
    if (w == kNr) {
      NarrowStrip<kUnitAlpha, kNr>(ad, a_cols, trans_a, alpha, b, ldb, m, k,
                                   cd + j0, n);
    } else {
      ForPow2Strips<kNr / 2>(w, [&]<int64_t W>(int64_t off) {
        NarrowStrip<kUnitAlpha, W>(ad, a_cols, trans_a, alpha, b + off, ldb,
                                   m, k, cd + j0 + off, n);
      });
    }
  }
}

/// One parallel chunk of the blocked kernel: row tiles [tile_begin,
/// tile_end) against the already-packed `bp` panel, which is one k block of
/// the contract. Each chunk writes a disjoint set of C rows, so chunking
/// never changes results.
///
/// Partial 0 of the register tile is seeded from C and the block's combined
/// sum written back, so per element the panels chain exactly as the
/// contract's k blocks do on every other path: a row's result is
/// bit-identical whichever kernel and whatever blocking handles it. The
/// learned structures rely on this: batched and single-query forwards must
/// agree exactly (see LearnedBloomFilter's no-false-negative guarantee).
void RowTileRange(const float* ad, int64_t a_cols, bool trans_a, float alpha,
                  int64_t m, int64_t n, const float* bp, int64_t pc,
                  int64_t kc, int64_t jc, int64_t nc, float* cd,
                  int64_t tile_begin, int64_t tile_end) {
  alignas(64) float ap[kKc * kMr];
  alignas(64) float acc[kMr * kNr];
  for (int64_t t = tile_begin; t < tile_end; ++t) {
    const int64_t i0 = t * kMr;
    const int64_t mr = std::min(kMr, m - i0);
    PackA(ad, a_cols, trans_a, alpha, i0, mr, pc, kc, ap);
    for (int64_t js = 0; js < nc; js += kNr) {
      const int64_t nr = std::min(kNr, nc - js);
      for (int64_t i = 0; i < mr; ++i) {
        const float* crow = cd + (i0 + i) * n + jc + js;
        float* arow = acc + i * kNr;
        for (int64_t j = 0; j < nr; ++j) arow[j] = crow[j];
        for (int64_t j = nr; j < kNr; ++j) arow[j] = 0.0f;
      }
      if (mr < kMr) {
        std::memset(acc + mr * kNr, 0,
                    static_cast<size_t>((kMr - mr) * kNr) * sizeof(float));
      }
      MicroKernel(kc, ap, bp + js * kKc, acc);
      for (int64_t i = 0; i < mr; ++i) {
        float* crow = cd + (i0 + i) * n + jc + js;
        const float* arow = acc + i * kNr;
        for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
      }
    }
  }
}

}  // namespace

void SetKernelThreading(bool enabled) {
  g_kernel_threading.store(enabled, std::memory_order_relaxed);
}

bool KernelThreadingEnabled() {
  return g_kernel_threading.load(std::memory_order_relaxed);
}

void SetKernelThreadPool(ThreadPool* pool) {
  g_kernel_pool.store(pool, std::memory_order_relaxed);
}

void KernelPoolParallelFor(int64_t n, int64_t min_chunk,
                           const std::function<void(int64_t, int64_t)>& fn) {
  KernelPool()->ParallelFor(
      static_cast<size_t>(n),
      [&fn](size_t begin, size_t end) {
        fn(static_cast<int64_t>(begin), static_cast<int64_t>(end));
      },
      static_cast<size_t>(min_chunk));
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
  const int64_t a_cols = a.cols();
  const int64_t b_cols = b.cols();

  const int64_t work = m * n * k;
  if (m < kBlockedMinRows || n < kNr || work < kBlockedMinWork) {
    if (!trans_b && m == 1) {
      const int64_t x_stride = trans_a ? a_cols : 1;
      if (alpha == 1.0f) {
        RowKernel<true>(ad, x_stride, alpha, bd, b_cols, k, n, cd);
      } else {
        RowKernel<false>(ad, x_stride, alpha, bd, b_cols, k, n, cd);
      }
    } else {
      if (alpha == 1.0f) {
        GemmNarrow<true>(ad, a_cols, trans_a, bd, b_cols, trans_b, alpha, m, n,
                         k, cd);
      } else {
        GemmNarrow<false>(ad, a_cols, trans_a, bd, b_cols, trans_b, alpha, m,
                          n, k, cd);
      }
    }
    return;
  }

  const int64_t row_tiles = (m + kMr - 1) / kMr;
  const bool threaded = KernelThreadingEnabled() && work >= kThreadedCutoff &&
                        row_tiles > kRowTilesPerChunk;
  // Packing scratch, reused across calls so mid-size GEMMs (one panel) pay
  // no allocation. Strips are laid out at a fixed kKc depth stride, so the
  // buffer is sized by the (kNr-rounded) panel width alone. Only the calling
  // thread packs; workers read it.
  static thread_local AlignedVector<float> bp;
  const int64_t nc_max = std::min(kNc, ((n + kNr - 1) / kNr) * kNr);
  bp.resize(static_cast<size_t>(nc_max * kKc));
  // Hoist the pointer: worker threads must read THIS thread's packed panel,
  // not their own (empty) thread-local scratch.
  float* const bpd = bp.data();
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      // Pack the whole B panel in kNr-column strips; strip s lives at
      // bp[s * kNr * kKc], columns zero-padded to kNr so the micro-kernel
      // has no column tail case.
      for (int64_t js = 0; js < nc; js += kNr) {
        float* strip = bpd + js * kKc;
        PackB(bd, b_cols, trans_b, pc, kc, jc + js, std::min(kNr, nc - js),
              strip);
      }
      auto run = [&](int64_t tile_begin, int64_t tile_end) {
        RowTileRange(ad, a_cols, trans_a, alpha, m, n, bpd, pc, kc, jc,
                     nc, cd, tile_begin, tile_end);
      };
      if (threaded) {
        KernelParallelFor(row_tiles, kRowTilesPerChunk, run);
      } else {
        run(0, row_tiles);
      }
    }
  }
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

void GemmRow(const float* x, const float* w, int64_t k, int64_t n, float* y) {
  TRACE_SPAN_VAR(span, "nn", "nn.gemm");
  span.set_arg("mnk", static_cast<double>(n * k));
  RowKernel<true>(x, 1, 1.0f, w, n, k, n, y);
}

void AddRowBroadcast(const Tensor& bias, Tensor* x) {
  assert(bias.rows() == 1 && bias.cols() == x->cols());
  const float* b = bias.data();
  const int64_t cols = x->cols();
  KernelParallelFor(x->rows(), 4096, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      float* row = x->row(i);
      for (int64_t j = 0; j < cols; ++j) row[j] += b[j];
    }
  });
}

namespace {

// Rows per partial in the chunked SumRowsAccumulate reduction. The chunk
// layout is a function of the row count alone — never of the worker count
// or the threading flag — so the float accumulation order, and therefore
// the result, is bit-identical for serial and any-width threaded runs.
constexpr int64_t kSumRowsChunkRows = 256;

}  // namespace

void SumRowsAccumulate(const Tensor& x, Tensor* out) {
  assert(out->rows() == 1 && out->cols() == x.cols());
  TRACE_SPAN_VAR(span, "nn", "nn.sum_rows");
  span.set_arg("rows", static_cast<double>(x.rows()));
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  float* o = out->data();
  if (rows <= kSumRowsChunkRows) {
    for (int64_t i = 0; i < rows; ++i) {
      const float* row = x.row(i);
      for (int64_t j = 0; j < cols; ++j) o[j] += row[j];
    }
    return;
  }
  // Cross-row reduction with fixed-shape chunking: each fixed chunk of
  // kSumRowsChunkRows rows accumulates into its own zeroed partial (rows in
  // ascending order), and the partials are merged into `out` in ascending
  // chunk order. Workers only ever own whole chunks, so how chunks are
  // distributed cannot change any accumulation order.
  const int64_t num_chunks = (rows + kSumRowsChunkRows - 1) / kSumRowsChunkRows;
  static thread_local std::vector<float> partials;
  partials.assign(static_cast<size_t>(num_chunks * cols), 0.0f);
  float* const pd = partials.data();
  KernelParallelFor(num_chunks, 1, [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      const int64_t row_end = std::min(rows, (c + 1) * kSumRowsChunkRows);
      float* part = pd + c * cols;
      for (int64_t i = c * kSumRowsChunkRows; i < row_end; ++i) {
        const float* row = x.row(i);
        for (int64_t j = 0; j < cols; ++j) part[j] += row[j];
      }
    }
  });
  for (int64_t c = 0; c < num_chunks; ++c) {
    const float* part = pd + c * cols;
    for (int64_t j = 0; j < cols; ++j) o[j] += part[j];
  }
}

namespace {

/// Splits a flat elementwise op over the kernel pool; chunk boundaries only
/// partition disjoint output ranges, so threading never changes results.
template <typename Fn>
void ElementwiseParallel(int64_t size, const Fn& fn) {
  KernelParallelFor(size, 1 << 15, fn);
}

}  // namespace

void SigmoidInPlace(float* d, int64_t n) {
  ElementwiseParallel(n, [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      d[i] = 1.0f / (1.0f + std::exp(-d[i]));
    }
  });
}

void TanhInPlace(float* d, int64_t n) {
  ElementwiseParallel(n, [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = std::tanh(d[i]);
  });
}

void ReluInPlace(float* d, int64_t n) {
  ElementwiseParallel(n, [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  });
}

void SigmoidInPlace(Tensor* x) { SigmoidInPlace(x->data(), x->size()); }

void TanhInPlace(Tensor* x) { TanhInPlace(x->data(), x->size()); }

void ReluInPlace(Tensor* x) { ReluInPlace(x->data(), x->size()); }

void SigmoidBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  ElementwiseParallel(y.size(), [yd, d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] *= yd[i] * (1.0f - yd[i]);
  });
}

void TanhBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  ElementwiseParallel(y.size(), [yd, d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] *= 1.0f - yd[i] * yd[i];
  });
}

void ReluBackwardInPlace(const Tensor& y, Tensor* dy) {
  assert(y.SameShape(*dy));
  const float* yd = y.data();
  float* d = dy->data();
  ElementwiseParallel(y.size(), [yd, d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (yd[i] <= 0.0f) d[i] = 0.0f;
    }
  });
}

void Hadamard(const Tensor& a, const Tensor& b, Tensor* out) {
  assert(a.SameShape(b) && a.SameShape(*out));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  ElementwiseParallel(a.size(), [ad, bd, od](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) od[i] = ad[i] * bd[i];
  });
}

void HadamardAccumulate(const Tensor& a, const Tensor& b, Tensor* out) {
  assert(a.SameShape(b) && a.SameShape(*out));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  ElementwiseParallel(a.size(), [ad, bd, od](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) od[i] += ad[i] * bd[i];
  });
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
