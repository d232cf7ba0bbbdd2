// Checkpoint crash-safety and corrupted-load robustness:
//   - BinaryReader::FromFile must fail cleanly (no giant alloc, no crash) on
//     unseekable files, directories, and missing paths.
//   - BinaryWriter::WriteToFile must replace checkpoints atomically: a crash
//     or failure mid-write can never truncate an existing good file.
//   - LocalErrorBounds::Load must reject corrupted fields with DataLoss
//     instead of accepting garbage that poisons scan windows.
//   - Top-level structure checkpoints (estimator / bloom / index) must
//     survive truncation and bit-flips with a clean error Status.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/hybrid.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
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

}  // namespace
}  // namespace los
