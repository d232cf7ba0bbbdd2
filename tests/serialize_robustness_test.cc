// Checkpoint crash-safety and corrupted-load robustness:
//   - BinaryReader::FromFile must fail cleanly (no giant alloc, no crash) on
//     unseekable files, directories, and missing paths.
//   - BinaryWriter::WriteToFile must replace checkpoints atomically: a crash
//     or failure mid-write can never truncate an existing good file.
//   - LocalErrorBounds::Load must reject corrupted fields with DataLoss
//     instead of accepting garbage that poisons scan windows.
//   - IndexAux::Load and CardinalityAux::Load must reject positions past
//     the collection, non-canonical subsets and non-count values with
//     DataLoss.
//   - Tensor::Load must reject negative or overflowing dimensions with
//     DataLoss.
//   - DeepSetsModel::Load must reject a header that disagrees with the
//     stored tensors, and ElementCompressor::Load a compressor Create
//     cannot make, with DataLoss.
//   - Top-level structure checkpoints (estimator / bloom / index) must
//     survive truncation and bit-flips with a clean error Status.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/hybrid.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/model_factory.h"
#include "deepsets/compression.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"
#include "sets/set_hash.h"
#include "nn/tensor.h"
#include "sets/generators.h"
#include "sets/set_collection.h"
#include "sets/set_io.h"

namespace los {
namespace {

/// Unique path under the test's temp dir.
std::string TmpPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + name;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  auto r = BinaryReader::FromFile(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  auto v = r->ReadVector<uint8_t>();
  return v.ok() ? *v : std::vector<uint8_t>{};
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(FromFileTest, MissingFileIsIoError) {
  auto r = BinaryReader::FromFile(TmpPath("does_not_exist"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(FromFileTest, ZeroByteFileLoadsEmpty) {
  std::string path = TmpPath("empty");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->AtEnd());
  // Every typed read on the empty buffer errors instead of crashing.
  EXPECT_FALSE(r->ReadU64().ok());
  std::remove(path.c_str());
}

TEST(FromFileTest, DirectoryIsCleanError) {
  std::string path = TmpPath("dir");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  auto r = BinaryReader::FromFile(path);
  EXPECT_FALSE(r.ok());
  ::rmdir(path.c_str());
}

// Regression: ftell returns -1 on a FIFO; the unchecked result used to cast
// to SIZE_MAX and drive a ~2^64-byte vector allocation.
TEST(FromFileTest, UnseekableFifoIsIoError) {
  std::string path = TmpPath("fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // Keep one O_RDWR handle open so fopen(path, "rb") does not block.
  int fd = ::open(path.c_str(), O_RDWR | O_NONBLOCK);
  ASSERT_GE(fd, 0);
  auto r = BinaryReader::FromFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(ReadSetsFileTest, UnseekableFifoIsIoError) {
  std::string path = TmpPath("fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  int fd = ::open(path.c_str(), O_RDWR | O_NONBLOCK);
  ASSERT_GE(fd, 0);
  auto r = sets::ReadSetsFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(WriteToFileTest, RoundTripsIncludingEmptyBuffer) {
  std::string path = TmpPath("model");
  BinaryWriter w;
  w.WriteVector(std::vector<uint8_t>{1, 2, 3});
  ASSERT_TRUE(w.WriteToFile(path).ok());
  EXPECT_EQ(FileBytes(path), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(FileExists(path + ".tmp"));

  BinaryWriter empty;
  ASSERT_TRUE(empty.WriteToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->AtEnd());
  std::remove(path.c_str());
}

// Regression: WriteToFile used to fopen(path, "wb"), truncating the good
// checkpoint before the new bytes landed. The hard link pins the original
// inode: an in-place write would corrupt it through the witness, while the
// atomic rename points `path` at a fresh inode and leaves the witness alone.
TEST(WriteToFileTest, ReplaceNeverTruncatesExistingCheckpoint) {
  std::string path = TmpPath("model");
  std::string witness = TmpPath("witness");
  BinaryWriter v1;
  v1.WriteVector(std::vector<uint8_t>{1, 1, 1, 1});
  ASSERT_TRUE(v1.WriteToFile(path).ok());
  ASSERT_EQ(::link(path.c_str(), witness.c_str()), 0);

  BinaryWriter v2;
  v2.WriteVector(std::vector<uint8_t>{2, 2});
  ASSERT_TRUE(v2.WriteToFile(path).ok());

  EXPECT_EQ(FileBytes(path), (std::vector<uint8_t>{2, 2}));
  EXPECT_EQ(FileBytes(witness), (std::vector<uint8_t>{1, 1, 1, 1}));
  std::remove(path.c_str());
  std::remove(witness.c_str());
}

// A writer that died mid-write leaves a partial `.tmp` behind; the live
// checkpoint must be unaffected and a later successful write cleans up.
TEST(WriteToFileTest, StaleTempFromCrashedWriterIsHarmless) {
  std::string path = TmpPath("model");
  BinaryWriter good;
  good.WriteVector(std::vector<uint8_t>{7, 7, 7});
  ASSERT_TRUE(good.WriteToFile(path).ok());

  std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("partial garbage", f);
  std::fclose(f);

  EXPECT_EQ(FileBytes(path), (std::vector<uint8_t>{7, 7, 7}));

  BinaryWriter next;
  next.WriteVector(std::vector<uint8_t>{8});
  ASSERT_TRUE(next.WriteToFile(path).ok());
  EXPECT_EQ(FileBytes(path), (std::vector<uint8_t>{8}));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// Rename failure (target is a non-empty directory) must report IoError and
// remove the temp file instead of leaking it.
TEST(WriteToFileTest, RenameFailureCleansUpTemp) {
  std::string path = TmpPath("dir");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  std::string inner = path + "/keep";
  std::FILE* f = std::fopen(inner.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  BinaryWriter w;
  w.WriteU32(5);
  Status st = w.WriteToFile(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(inner.c_str());
  ::rmdir(path.c_str());
}

// ---------- LocalErrorBounds validation ----------

std::vector<uint8_t> BoundsBytes(double min_val, double range_length,
                                 const std::vector<double>& errors) {
  BinaryWriter w;
  w.WriteF64(min_val);
  w.WriteF64(range_length);
  w.WriteVector(errors);
  return w.bytes();
}

Status LoadBounds(std::vector<uint8_t> bytes) {
  BinaryReader r(std::move(bytes));
  return core::LocalErrorBounds::Load(&r).status();
}

TEST(LocalErrorBoundsTest, ValidBufferRoundTrips) {
  EXPECT_TRUE(LoadBounds(BoundsBytes(0.0, 100.0, {1.0, 2.5, 0.0})).ok());
  // Default-constructed object's serialized form stays loadable.
  core::LocalErrorBounds b;
  BinaryWriter w;
  b.Save(&w);
  EXPECT_TRUE(LoadBounds(w.bytes()).ok());
}

// Regression: corrupted headers used to load successfully; RangeOf then
// divides by range_length_, producing garbage scan windows at serving time.
TEST(LocalErrorBoundsTest, CorruptedBuffersAreDataLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, 0.0, {1.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, -50.0, {1.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, 0.5, {1.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(nan, 100.0, {1.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, inf, {1.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, 100.0, {1.0, -2.0})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, 100.0, {nan})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBounds(BoundsBytes(0.0, 100.0, {inf})).code(),
            StatusCode::kDataLoss);
}

// ---------- Auxiliary tables ----------

std::vector<uint8_t> IndexAuxBytes(
    const std::vector<std::pair<uint64_t, uint64_t>>& entries) {
  BinaryWriter w;
  w.WriteU64(100);  // fanout word
  w.WriteU64(entries.size());
  for (const auto& [key, position] : entries) {
    w.WriteU64(key);
    w.WriteU64(position);
  }
  return w.bytes();
}

Status LoadIndexAux(std::vector<uint8_t> bytes, size_t num_positions) {
  BinaryReader r(std::move(bytes));
  return core::IndexAux::Load(&r, num_positions).status();
}

// Regression: any aux position loaded, and the first query whose set hash
// matched a position past the collection read its offsets out of bounds.
TEST(IndexAuxTest, CorruptedBuffersAreDataLoss) {
  EXPECT_TRUE(LoadIndexAux(IndexAuxBytes({{5, 0}, {9, 9}}), 10).ok());
  EXPECT_TRUE(LoadIndexAux(IndexAuxBytes({}), 0).ok());
  EXPECT_EQ(LoadIndexAux(IndexAuxBytes({{5, 0}, {9, 10}}), 10).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadIndexAux(IndexAuxBytes({{5, 0}}), 0).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(
      LoadIndexAux(IndexAuxBytes({{5, uint64_t{1} << 32}}), 10).code(),
      StatusCode::kDataLoss);
  EXPECT_EQ(LoadIndexAux(IndexAuxBytes({{5, ~uint64_t{0}}}), 10).code(),
            StatusCode::kDataLoss);
}

struct CardAuxEntry {
  std::vector<sets::ElementId> subset;
  double count;
};

std::vector<uint8_t> CardAuxBytes(const std::vector<CardAuxEntry>& entries) {
  BinaryWriter w;
  w.WriteU64(entries.size());
  for (const CardAuxEntry& e : entries) {
    w.WriteVector(e.subset);
    w.WriteF64(e.count);
  }
  return w.bytes();
}

Status LoadCardAux(std::vector<uint8_t> bytes) {
  BinaryReader r(std::move(bytes));
  return core::CardinalityAux::Load(&r).status();
}

// A subset whose elements are unsorted or repeated could never match a
// canonical query, and a count that is not a count would be served as an
// exact answer.
TEST(CardinalityAuxTest, CorruptedBuffersAreDataLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(LoadCardAux(CardAuxBytes({{{1, 2}, 3}, {{7}, 0}, {{}, 4}})).ok());
  EXPECT_TRUE(LoadCardAux(CardAuxBytes({{{1}, 4294967295.0}})).ok());
  EXPECT_EQ(LoadCardAux(CardAuxBytes({{{2, 1}, 3}})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadCardAux(CardAuxBytes({{{1, 1}, 3}})).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadCardAux(CardAuxBytes({{{1, 2}, 3}, {{1, 2}, 4}})).code(),
            StatusCode::kDataLoss);
  for (double bad : {nan, inf, -inf, -1.0, 2.5, 4294967296.0}) {
    EXPECT_EQ(LoadCardAux(CardAuxBytes({{{1, 2}, bad}})).code(),
              StatusCode::kDataLoss)
        << bad;
  }
}

// ---------- SetCollection ----------

// Regression: Load checked only the first and last offset, so a decreasing
// interior offset loaded and made set(i) an out-of-bounds span.
TEST(SetCollectionLoadTest, DecreasingInteriorOffsetIsRejected) {
  auto load = [](const std::vector<uint64_t>& offsets) {
    BinaryWriter w;
    w.WriteVector(std::vector<sets::ElementId>{1, 2, 3, 4});
    w.WriteVector(offsets);
    w.WriteU32(5);
    BinaryReader r(w.bytes());
    return sets::SetCollection::Load(&r).status();
  };
  EXPECT_TRUE(load({0, 1, 3, 4}).ok());
  EXPECT_EQ(load({0, 3, 1, 4}).code(), StatusCode::kInternal);
}

// ---------- Tensor ----------

Status LoadTensor(int64_t rows, int64_t cols, std::vector<float> data) {
  BinaryWriter w;
  w.WriteI64(rows);
  w.WriteI64(cols);
  w.WriteVector(data);
  BinaryReader r(w.bytes());
  return nn::Tensor::Load(&r).status();
}

// Regression: Load compared the payload length against rows * cols in
// signed 64 bits, which overflows (undefined behaviour) on corrupted dims.
TEST(TensorLoadTest, CorruptedDimensionsAreDataLoss) {
  EXPECT_TRUE(LoadTensor(2, 3, std::vector<float>(6)).ok());
  EXPECT_TRUE(LoadTensor(0, 5, {}).ok());
  const int64_t huge = int64_t{1} << 40;
  EXPECT_EQ(LoadTensor(huge, huge, std::vector<float>(4)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadTensor(-2, -3, std::vector<float>(6)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadTensor(2, -3, {}).code(), StatusCode::kDataLoss);
  EXPECT_EQ(LoadTensor(0, 5, std::vector<float>(1)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadTensor(2, 3, std::vector<float>(5)).code(),
            StatusCode::kDataLoss);
}

// ---------- Model checkpoints ----------

/// Save() of a vocab-100 LSM or CLSM (ns = 2).
std::vector<uint8_t> ModelBytes(bool compressed) {
  core::ModelOptions mo;
  mo.compressed = compressed;
  mo.embed_dim = 4;
  mo.phi_hidden = {8};
  mo.rho_hidden = {8};
  auto model = core::MakeSetModel(mo, 100);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  BinaryWriter w;
  (*model)->Save(&w);
  return w.bytes();
}

StatusCode LoadModel(std::vector<uint8_t> bytes) {
  BinaryReader r(std::move(bytes));
  return deepsets::DeepSetsModel::Load(&r).status().code();
}

/// `bytes` with the 8 bytes at `offset` replaced by `value`.
std::vector<uint8_t> Patched(std::vector<uint8_t> bytes, size_t offset,
                             uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

// Regression: an LSM saved with vocab 100 and its header patched to 300
// loaded, and PredictOne({250, 299}) then read past its 100-row table.
TEST(CheckpointCorruptionTest, ModelVocabNotMatchingEmbeddingsIsDataLoss) {
  for (bool compressed : {false, true}) {
    const std::vector<uint8_t> bytes = ModelBytes(compressed);
    BinaryWriter tag;
    tag.WriteString(compressed ? "CLSM" : "LSM");
    const size_t vocab_at = tag.bytes().size();  // the first config field
    int64_t vocab = 0;
    std::memcpy(&vocab, bytes.data() + vocab_at, sizeof(vocab));
    ASSERT_EQ(vocab, 100);
    EXPECT_EQ(LoadModel(bytes), StatusCode::kOk);
    for (uint64_t patched : {300, 50}) {
      EXPECT_EQ(LoadModel(Patched(bytes, vocab_at, patched)),
                StatusCode::kDataLoss)
          << (compressed ? "CLSM" : "LSM") << " vocab " << patched;
    }
  }
}

// Regression: a Set Transformer saved with vocab 100 and its header patched
// to 300 loaded, and PredictOne({250, 299}) then read past its 100-row
// embedding table. Any stored tensor whose shape the header's config does
// not build (here: the vocab, or the feed-forward width) is DataLoss.
TEST(CheckpointCorruptionTest,
     SetTransformerVocabNotMatchingEmbeddingsIsDataLoss) {
  deepsets::SetTransformerConfig cfg;
  cfg.vocab = 100;
  cfg.embed_dim = 4;
  cfg.att_dim = 8;
  cfg.ff_hidden = 16;
  cfg.rho_hidden = {8};
  auto model = deepsets::SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  (*model)->Save(&w);
  const std::vector<uint8_t> bytes = w.bytes();
  auto load = [](std::vector<uint8_t> b) {
    BinaryReader r(std::move(b));
    return deepsets::SetTransformerModel::Load(&r).status().code();
  };
  EXPECT_EQ(load(bytes), StatusCode::kOk);
  BinaryWriter tag;
  tag.WriteString("SetTransformer");
  // The header: vocab, embed_dim, att_dim, num_heads, ff_hidden (i64 each).
  const size_t vocab_at = tag.bytes().size();
  const size_t ff_at = vocab_at + 4 * sizeof(int64_t);
  int64_t stored = 0;
  std::memcpy(&stored, bytes.data() + vocab_at, sizeof(stored));
  ASSERT_EQ(stored, 100);
  std::memcpy(&stored, bytes.data() + ff_at, sizeof(stored));
  ASSERT_EQ(stored, 16);
  for (uint64_t vocab : {300, 50}) {
    EXPECT_EQ(load(Patched(bytes, vocab_at, vocab)), StatusCode::kDataLoss)
        << "vocab " << vocab;
  }
  EXPECT_EQ(load(Patched(bytes, ff_at, 8)), StatusCode::kDataLoss);
}

// Regression: a CLSM whose compressor divisor was 0 died of SIGFPE inside
// Load, where SlotVocab divides by it.
TEST(CheckpointCorruptionTest, ClsmCompressorCreateCannotMakeIsDataLoss) {
  const std::vector<uint8_t> bytes = ModelBytes(/*compressed=*/true);
  BinaryWriter comp;
  deepsets::ElementCompressor::Create(99, 2)->Save(&comp);
  const auto at = std::search(bytes.begin(), bytes.end(),
                              comp.bytes().begin(), comp.bytes().end());
  ASSERT_NE(at, bytes.end());
  // The compressor writes max_value (u64), ns (u32), then the divisor.
  const size_t divisor_at = static_cast<size_t>(at - bytes.begin()) + 12;
  for (uint64_t divisor : {0, 1}) {
    EXPECT_EQ(LoadModel(Patched(bytes, divisor_at, divisor)),
              StatusCode::kDataLoss)
        << "divisor " << divisor;
  }

  auto load = [](uint64_t max_value, uint32_t ns, uint64_t divisor) {
    BinaryWriter w;
    w.WriteU64(max_value);
    w.WriteU32(ns);
    w.WriteU64(divisor);
    BinaryReader r(w.bytes());
    return deepsets::ElementCompressor::Load(&r).status().code();
  };
  EXPECT_EQ(load(99, 2, 10), StatusCode::kOk);
  EXPECT_EQ(load(99, 1, 100), StatusCode::kOk);
  EXPECT_EQ(load(99, 0, 10), StatusCode::kDataLoss);
  EXPECT_EQ(load(99, 65, 10), StatusCode::kDataLoss);
  EXPECT_EQ(load(99, 2, 0), StatusCode::kDataLoss);
  EXPECT_EQ(load(99, 2, 1), StatusCode::kDataLoss);
  EXPECT_EQ(load(99, 1, 99), StatusCode::kDataLoss);
  EXPECT_EQ(load(~uint64_t{0}, 1, 0), StatusCode::kDataLoss);
}

// A CLSM allocates only its slot tables, so its vocab may exceed the 2^24
// rows an LSM's one table is capped at; such a model must load again.
TEST(CheckpointCorruptionTest, ClsmVocabAboveLsmCapRoundTrips) {
  constexpr int64_t kVocab = int64_t{1} << 25;
  core::ModelOptions mo;
  mo.compressed = true;
  mo.ns = 2;
  mo.embed_dim = 2;
  mo.phi_hidden = {4};
  mo.rho_hidden = {4};
  auto model = core::MakeSetModel(mo, kVocab);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  BinaryWriter w;
  (*model)->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = deepsets::DeepSetsModel::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->vocab(), kVocab);
  BinaryWriter again;
  (*loaded)->Save(&again);
  EXPECT_EQ(again.bytes(), w.bytes());
  const std::vector<sets::ElementId> last = {
      static_cast<sets::ElementId>(kVocab - 1)};
  EXPECT_EQ((*loaded)->PredictOne(last), (*model)->PredictOne(last));
}

// An outer model kind that disagrees with the payload's own tag.
TEST(CheckpointCorruptionTest, ModelKindMismatchIsDataLoss) {
  for (bool compressed : {false, true}) {
    BinaryWriter w;
    w.WriteString(compressed ? "LSM" : "CLSM");
    const std::vector<uint8_t> payload = ModelBytes(compressed);
    std::vector<uint8_t> bytes = w.bytes();
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    BinaryReader r(std::move(bytes));
    EXPECT_EQ(core::LoadSetModel(&r).status().code(), StatusCode::kDataLoss)
        << "outer " << (compressed ? "LSM" : "CLSM");
  }
}

// ---------- Top-level checkpoint corruption ----------

sets::SetCollection SmallCollection() {
  sets::RwConfig cfg;
  cfg.num_sets = 200;
  cfg.num_unique = 50;
  return GenerateRw(cfg);
}

template <typename Opts>
Opts TinyModel() {
  Opts opts;
  opts.model.embed_dim = 4;
  opts.model.phi_hidden = {8};
  opts.model.rho_hidden = {8};
  opts.train.epochs = 1;
  opts.max_subset_size = 2;
  return opts;
}

/// Asserts every truncation of `bytes` fails `load` cleanly and the full
/// payload succeeds.
template <typename LoadFn>
void CheckTruncations(const std::vector<uint8_t>& bytes, LoadFn load,
                      const char* what) {
  size_t step = std::max<size_t>(1, bytes.size() / 64);
  for (size_t cut = 0; cut < bytes.size(); cut += step) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<int64_t>(cut));
    BinaryReader r(std::move(truncated));
    EXPECT_FALSE(load(&r).ok())
        << what << " truncated at " << cut << " unexpectedly loaded";
  }
  BinaryReader full(bytes);
  EXPECT_TRUE(load(&full).ok()) << what << " full payload failed to load";
}

TEST(CheckpointCorruptionTest, CardinalityEstimatorTruncations) {
  auto collection = SmallCollection();
  auto est = core::LearnedCardinalityEstimator::Build(
      collection, TinyModel<core::CardinalityOptions>());
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  BinaryWriter w;
  est->Save(&w);
  CheckTruncations(
      w.bytes(),
      [](BinaryReader* r) {
        return core::LearnedCardinalityEstimator::Load(r).status();
      },
      "estimator");
}

TEST(CheckpointCorruptionTest, BloomFilterTruncations) {
  auto collection = SmallCollection();
  core::BloomOptions opts = TinyModel<core::BloomOptions>();
  opts.train.loss = core::LossKind::kBce;
  auto lbf = core::LearnedBloomFilter::Build(collection, opts);
  ASSERT_TRUE(lbf.ok()) << lbf.status().ToString();
  BinaryWriter w;
  lbf->Save(&w);
  CheckTruncations(
      w.bytes(),
      [](BinaryReader* r) {
        return core::LearnedBloomFilter::Load(r).status();
      },
      "bloom");
}

TEST(CheckpointCorruptionTest, SetIndexTruncations) {
  auto collection = SmallCollection();
  auto index = core::LearnedSetIndex::Build(collection,
                                            TinyModel<core::IndexOptions>());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  BinaryWriter w;
  index->Save(&w);
  const sets::SetCollection& c = collection;
  CheckTruncations(
      w.bytes(),
      [&c](BinaryReader* r) {
        return core::LearnedSetIndex::Load(r, c).status();
      },
      "index");
}

// An index checkpoint whose aux names a position past the collection it
// is loaded against is DataLoss; the last valid position loads and answers.
TEST(CheckpointCorruptionTest, SetIndexAuxPositionPastCollectionIsDataLoss) {
  auto collection = SmallCollection();
  auto index = core::LearnedSetIndex::Build(collection,
                                            TinyModel<core::IndexOptions>());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const sets::SetView q = collection.set(collection.size() - 1);
  auto checkpoint = [&](uint64_t aux_position) {
    BinaryWriter w;
    core::SaveSetModel(*index->model(), &w);
    index->scaler().Save(&w);
    index->error_bounds().Save(&w);
    std::vector<uint8_t> bytes = w.bytes();
    const std::vector<uint8_t> aux =
        IndexAuxBytes({{sets::HashSetSorted(q), aux_position}});
    bytes.insert(bytes.end(), aux.begin(), aux.end());
    BinaryWriter tail;
    tail.WriteU64(1);  // num_outliers
    tail.WriteU32(0);  // fallback_full_scan
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
    return bytes;
  };
  const sets::SetCollection& c = collection;
  BinaryReader bad(checkpoint(c.size()));
  EXPECT_EQ(core::LearnedSetIndex::Load(&bad, c).status().code(),
            StatusCode::kDataLoss);
  BinaryReader good(checkpoint(c.size() - 1));
  auto loaded = core::LearnedSetIndex::Load(&good, c);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::LearnedSetIndex::LookupStats stats;
  const int64_t pos = loaded->Lookup(q, &stats);
  EXPECT_EQ(pos, c.FindFirstSuperset(q, 0, c.size()));
}

}  // namespace
}  // namespace los
