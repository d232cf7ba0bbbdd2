// Robustness tests: deserialization must reject arbitrary truncations and
// bit-flips of valid payloads with an error Status — never crash or loop.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/bloom_filter.h"
#include "baselines/bplus_tree.h"
#include "common/random.h"
#include "core/hybrid.h"
#include "core/model_factory.h"
#include "core/scaling.h"
#include "deepsets/compression.h"
#include "deepsets/set_transformer.h"
#include "sets/dictionary.h"
#include "sets/set_collection.h"

namespace los {
namespace {

/// Serialized form of a representative object of each persistent type.
std::vector<std::pair<std::string, std::vector<uint8_t>>> Corpus() {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> corpus;
  {
    core::ModelOptions mo;
    mo.embed_dim = 2;
    mo.phi_hidden = {3};
    mo.rho_hidden = {3};
    auto model = core::MakeSetModel(mo, 10);
    BinaryWriter w;
    core::SaveSetModel(**model, &w);
    corpus.emplace_back("lsm", w.bytes());
  }
  {
    core::ModelOptions mo;
    mo.compressed = true;
    mo.embed_dim = 2;
    auto model = core::MakeSetModel(mo, 100);
    BinaryWriter w;
    core::SaveSetModel(**model, &w);
    corpus.emplace_back("clsm", w.bytes());
  }
  {
    deepsets::SetTransformerConfig cfg;
    cfg.vocab = 20;
    cfg.embed_dim = 2;
    cfg.att_dim = 4;
    cfg.ff_hidden = 4;
    cfg.rho_hidden = {3};
    auto model = deepsets::SetTransformerModel::Create(cfg);
    BinaryWriter w;
    core::SaveSetModel(**model, &w);
    corpus.emplace_back("set_transformer", w.bytes());
  }
  {
    baselines::BloomFilter bf(100, 0.01);
    bf.InsertHash(42);
    BinaryWriter w;
    bf.Save(&w);
    corpus.emplace_back("bloom", w.bytes());
  }
  {
    baselines::BPlusTree t(8);
    for (uint64_t i = 0; i < 50; ++i) t.Insert(i * 3 % 17, i);
    BinaryWriter w;
    t.Save(&w);
    corpus.emplace_back("bplustree", w.bytes());
  }
  {
    std::vector<std::pair<uint64_t, uint32_t>> entries;
    for (uint32_t i = 0; i < 50; ++i) entries.emplace_back(i * 3 % 17, i);
    core::IndexAux aux = core::IndexAux::Build(std::move(entries));
    aux.Assign(4, 60);
    aux.Assign(99, 61);
    BinaryWriter w;
    aux.Save(&w);
    corpus.emplace_back("index_aux", w.bytes());
  }
  {
    std::vector<sets::ElementId> a{1, 2}, b{3}, c{2, 5, 9};
    auto aux = core::CardinalityAux::Build(
        {{sets::SetView(a), 4}, {sets::SetView(b), 7}, {sets::SetView(c), 1}});
    BinaryWriter w;
    aux->Save(&w);
    corpus.emplace_back("card_aux", w.bytes());
  }
  {
    sets::SetCollection c;
    c.Add({1, 2});
    c.Add({3});
    BinaryWriter w;
    c.Save(&w);
    corpus.emplace_back("collection", w.bytes());
  }
  {
    sets::Dictionary d;
    d.GetOrAdd("alpha");
    d.GetOrAdd("beta");
    BinaryWriter w;
    d.Save(&w);
    corpus.emplace_back("dictionary", w.bytes());
  }
  {
    core::LocalErrorBounds b =
        core::LocalErrorBounds::Build({1, 2, 300}, {2, 2, 280}, 10);
    BinaryWriter w;
    b.Save(&w);
    corpus.emplace_back("bounds", w.bytes());
  }
  {
    auto comp = deepsets::ElementCompressor::Create(1000, 2);
    BinaryWriter w;
    comp->Save(&w);
    corpus.emplace_back("compressor", w.bytes());
  }
  return corpus;
}

/// The collection size the index_aux entry is loaded against: its positions
/// are below 62, so bit flips in a position's low bits may load or fail.
constexpr size_t kIndexAuxPositions = 64;

/// Tries to deserialize `bytes` as whatever type `name` denotes; returns
/// false on a clean error, true on success. Crashing fails the test. A
/// model that loads also answers its highest covered element, alone and in
/// a batch, so a table shorter than the model's vocab reads past its end
/// (which ASan reports).
bool TryLoad(const std::string& name, std::vector<uint8_t> bytes) {
  BinaryReader r(std::move(bytes));
  if (name == "lsm" || name == "clsm" || name == "set_transformer") {
    auto model = core::LoadSetModel(&r);
    if (!model.ok()) return false;
    const std::vector<sets::ElementId> last{
        static_cast<sets::ElementId>((*model)->vocab() - 1)};
    const std::vector<sets::ElementId> pair{0, last[0]};
    (*model)->PredictOne(last);
    (*model)->PredictBatch({sets::SetView(last), sets::SetView(pair)});
    return true;
  }
  if (name == "bloom") return baselines::BloomFilter::Load(&r).ok();
  if (name == "bplustree") return baselines::BPlusTree::Load(&r).ok();
  if (name == "index_aux") {
    return core::IndexAux::Load(&r, kIndexAuxPositions).ok();
  }
  if (name == "card_aux") return core::CardinalityAux::Load(&r).ok();
  if (name == "collection") return sets::SetCollection::Load(&r).ok();
  if (name == "dictionary") return sets::Dictionary::Load(&r).ok();
  if (name == "bounds") return core::LocalErrorBounds::Load(&r).ok();
  if (name == "compressor") {
    return deepsets::ElementCompressor::Load(&r).ok();
  }
  ADD_FAILURE() << "unknown corpus entry " << name;
  return false;
}

TEST(DeserializeFuzz, EveryTruncationFailsCleanly) {
  for (const auto& [name, bytes] : Corpus()) {
    // Truncations at a spread of cut points (all points for small payloads).
    size_t step = std::max<size_t>(1, bytes.size() / 64);
    for (size_t cut = 0; cut < bytes.size(); cut += step) {
      std::vector<uint8_t> truncated(bytes.begin(),
                                     bytes.begin() + static_cast<int64_t>(cut));
      EXPECT_FALSE(TryLoad(name, std::move(truncated)))
          << name << " truncated at " << cut << " unexpectedly loaded";
    }
    // The full payload must load.
    EXPECT_TRUE(TryLoad(name, bytes)) << name;
  }
}

TEST(DeserializeFuzz, RandomBitFlipsNeverCrash) {
  Rng rng(99);
  for (const auto& [name, bytes] : Corpus()) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<uint8_t> mutated = bytes;
      // Flip 1-4 random bits.
      int flips = 1 + static_cast<int>(rng.Uniform(4));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(mutated.size());
        mutated[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      // Outcome may be success (flip hit a float payload) or a clean error;
      // the requirement is no crash/UB.
      TryLoad(name, std::move(mutated));
    }
  }
  SUCCEED();
}

TEST(DeserializeFuzz, EmptyAndGarbageInputs) {
  for (const auto& [name, bytes] : Corpus()) {
    EXPECT_FALSE(TryLoad(name, {}));
    std::vector<uint8_t> garbage(64);
    Rng rng(5);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    TryLoad(name, garbage);  // must not crash; result irrelevant
    (void)bytes;
  }
}

}  // namespace
}  // namespace los
