#include "nn/ops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

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
// head would compute kNr-1 padded lanes for nothing). Below the row cutoff
// GemmSmall handles the problem with the unpacked register-tile kernel (or
// the plain i-k-j loop for one row); the cutoff tracks the tiled path's row
// cap — measured per-row throughput at the boundary (two unpacked 8-row
// tiles vs packed panels) favors the tiled kernel until ~2 full tiles.
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

/// acc[kMr][kNr] += packed_a * packed_b over `kc` depth steps. Fully
/// branch-free; with constexpr tile sizes the compiler keeps `acc` in vector
/// registers and emits contiguous FMAs.
inline void MicroKernel(int64_t kc, const float* __restrict ap,
                        const float* __restrict bp, float* __restrict acc) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* __restrict brow = bp + p * kNr;
    const float* __restrict acol = ap + p * kMr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = acol[i];
      float* __restrict arow = acc + i * kNr;
      for (int64_t j = 0; j < kNr; ++j) arow[j] += av * brow[j];
    }
  }
}

/// Tile height for the unpacked register-tile path in GemmSmall. Taller
/// than the blocked kernel's kMr on purpose: with AVX-512 (32 vector regs)
/// an 8 x kNr accumulator still fits the register file, and a serving
/// micro-batch of 8 queries then runs as a SINGLE tile — one streaming pass
/// over op(B), which is the whole game for weight matrices too large for
/// cache.
constexpr int64_t kSmallTileRows = 8;

/// Row cap for the unpacked register-tile path in GemmSmall. Past this the
/// blocked kernel's packed panels win: each extra kSmallTileRows row tile
/// re-streams op(B) from memory, so by ~2 tiles the packing cost (~one
/// extra pass over B) has paid for itself.
constexpr int64_t kSmallTiledMaxRows = 16;

/// Register-tile micro-kernel over UNPACKED operands for micro-batch row
/// counts (2..kSmallTiledMaxRows). Same kMr x kNr accumulator shape as the
/// blocked kernel — so the same near-peak FMA throughput — but reads B
/// in-place: a kNr-column strip of B is walked down k with a software
/// prefetch hiding the L3 latency of the row-stride jumps. This skips the
/// packing pass entirely, which dominates blocked-kernel time at small m
/// (packing costs ~k*n regardless of row count).
///
/// Determinism: the accumulator is seeded from C and each element then
/// accumulates in strictly increasing k order — the exact order GemmSmall's
/// scalar loop and the blocked kernel use — so results are bit-identical
/// whichever path the dispatch picks (batch/serve consistency relies on
/// this; see GemmTest.PerRowResultsAreShapeInvariant).
template <int kRows>
void SmallTileRows(const float* ad, int64_t a_cols, bool trans_a,
                   const float* bd, int64_t b_cols, float alpha, int64_t i0,
                   int64_t n, int64_t k, float* cd) {
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const int64_t nr = std::min(kNr, n - j0);
    float acc[kRows * kNr];
    for (int64_t i = 0; i < kRows; ++i) {
      for (int64_t j = 0; j < nr; ++j) {
        acc[i * kNr + j] = cd[(i0 + i) * n + j0 + j];
      }
    }
    const float* bs = bd + j0;
    if (nr == kNr) {
      // Constexpr trip counts keep `acc` in vector registers.
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict brow = bs + kk * b_cols;
        __builtin_prefetch(brow + 8 * b_cols, 0, 0);
        __builtin_prefetch(brow + 8 * b_cols + 16, 0, 0);
        for (int64_t i = 0; i < kRows; ++i) {
          const float av = alpha * AAt(ad, a_cols, trans_a, i0 + i, kk);
          float* __restrict arow = acc + i * kNr;
          for (int64_t j = 0; j < kNr; ++j) arow[j] += av * brow[j];
        }
      }
    } else {
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict brow = bs + kk * b_cols;
        for (int64_t i = 0; i < kRows; ++i) {
          const float av = alpha * AAt(ad, a_cols, trans_a, i0 + i, kk);
          float* __restrict arow = acc + i * kNr;
          for (int64_t j = 0; j < nr; ++j) arow[j] += av * brow[j];
        }
      }
    }
    for (int64_t i = 0; i < kRows; ++i) {
      for (int64_t j = 0; j < nr; ++j) {
        cd[(i0 + i) * n + j0 + j] = acc[i * kNr + j];
      }
    }
  }
}

void GemmSmallTiled(const float* ad, int64_t a_cols, bool trans_a,
                    const float* bd, int64_t b_cols, float alpha, int64_t m,
                    int64_t n, int64_t k, float* cd) {
  for (int64_t i0 = 0; i0 < m; i0 += kSmallTileRows) {
    // Dispatch on the tile's row count so even edge tiles run with
    // constexpr loop bounds and a register-resident accumulator.
    switch (std::min(kSmallTileRows, m - i0)) {
      case 1:
        SmallTileRows<1>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 2:
        SmallTileRows<2>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 3:
        SmallTileRows<3>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 4:
        SmallTileRows<4>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 5:
        SmallTileRows<5>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 6:
        SmallTileRows<6>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      case 7:
        SmallTileRows<7>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
      default:
        SmallTileRows<8>(ad, a_cols, trans_a, bd, b_cols, alpha, i0, n, k, cd);
        break;
    }
  }
}

/// Simple i-k-j kernel for problems too small to amortize packing. Unlike
/// the original seed kernel there is no data-dependent `av == 0` branch, so
/// the inner loop always vectorizes to contiguous FMAs. Micro-batch shapes
/// (2..kSmallTiledMaxRows rows, untransposed B) divert to GemmSmallTiled,
/// which produces bit-identical results (same increasing-k accumulation
/// order) at several times the throughput — i-k-j re-streams all of B from
/// L3 once per output row, which made wide-model micro-batches (the serving
/// layer's bread and butter) pay m times the memory traffic of a single
/// query.
void GemmSmall(const float* ad, int64_t a_cols, bool trans_a, const float* bd,
               int64_t b_cols, bool trans_b, float alpha, int64_t m, int64_t n,
               int64_t k, float* cd) {
  if (!trans_b && m > 1 && m <= kSmallTiledMaxRows) {
    GemmSmallTiled(ad, a_cols, trans_a, bd, b_cols, alpha, m, n, k, cd);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    float* crow = cd + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = alpha * AAt(ad, a_cols, trans_a, i, kk);
      if (!trans_b) {
        const float* brow = bd + kk * b_cols;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += av * bd[j * b_cols + kk];
      }
    }
  }
}

/// One parallel chunk of the blocked kernel: row tiles [tile_begin,
/// tile_end) against the already-packed `bp` panel. Each chunk writes a
/// disjoint set of C rows, so chunking never changes results.
///
/// The register tile is seeded from C and written back (rather than zeroed
/// and added): per element the additions then happen in strictly increasing
/// k order across kKc panels — the exact order GemmSmall uses — so a row's
/// result is bit-identical whichever kernel and whatever blocking handles
/// it. The learned structures rely on this: batched and single-query
/// forwards must agree exactly (see LearnedBloomFilter's no-false-negative
/// guarantee).
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
    GemmSmall(ad, a_cols, trans_a, bd, b_cols, trans_b, alpha, m, n, k, cd);
    return;
  }

  const int64_t row_tiles = (m + kMr - 1) / kMr;
  const bool threaded = KernelThreadingEnabled() && work >= kThreadedCutoff &&
                        row_tiles > kRowTilesPerChunk;
  // Packing scratch, reused across calls so mid-size GEMMs (one panel) pay
  // no allocation. Strips are laid out at a fixed kKc depth stride, so the
  // buffer is sized by the (kNr-rounded) panel width alone. Only the calling
  // thread packs; workers read it.
  static thread_local std::vector<float> bp;
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

void SigmoidInPlace(Tensor* x) {
  float* d = x->data();
  ElementwiseParallel(x->size(), [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      d[i] = 1.0f / (1.0f + std::exp(-d[i]));
    }
  });
}

void TanhInPlace(Tensor* x) {
  float* d = x->data();
  ElementwiseParallel(x->size(), [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = std::tanh(d[i]);
  });
}

void ReluInPlace(Tensor* x) {
  float* d = x->data();
  ElementwiseParallel(x->size(), [d](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  });
}

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
