// Stateless inference: SetModel's Predict* entry points are const and
// lock-free — every call runs on the calling thread's workspace, and the
// trainer's Forward/Backward keep a workspace of their own. For each model
// family (LSM with sum and max pooling, CLSM, Set Transformer) this checks:
//   - threads mixing PredictOne / PredictBatch / PredictBatchCsr on one
//     shared model get the serial answers bit for bit (CI also runs this
//     binary under TSan, which flags any shared mutable state);
//   - Predict* calls, on the training thread and on another one, between a
//     training Forward and its Backward leave that Forward's output and the
//     gradients bit-identical;
//   - after warm-up a single-query forward allocates nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"

namespace {
// Heap allocations made by the current thread (see operator new below).
thread_local size_t t_allocations = 0;
}  // namespace

// GCC flags free() on memory from operator new, not knowing both are
// replaced here as one malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace los::deepsets {
namespace {

constexpr int kThreads = 6;
constexpr int kRepsPerThread = 3;
constexpr uint32_t kVocab = 500;

enum class Family { kLsmSum, kLsmMax, kClsm, kSetTransformer };

std::string FamilyName(const testing::TestParamInfo<Family>& info) {
  switch (info.param) {
    case Family::kLsmSum: return "LsmSum";
    case Family::kLsmMax: return "LsmMax";
    case Family::kClsm: return "Clsm";
    case Family::kSetTransformer: return "SetTransformer";
  }
  return "?";
}

std::unique_ptr<SetModel> MakeModel(Family f) {
  DeepSetsConfig base;
  base.vocab = kVocab;
  base.embed_dim = 8;
  base.phi_hidden = {32};
  base.rho_hidden = {32};
  switch (f) {
    case Family::kLsmSum:
      return std::move(DeepSetsModel::Create(base)).value();
    case Family::kLsmMax:
      base.pooling = nn::Pooling::kMax;
      return std::move(DeepSetsModel::Create(base)).value();
    case Family::kClsm:
      base.compressed = true;
      base.ns = 2;
      return std::move(DeepSetsModel::Create(base)).value();
    case Family::kSetTransformer: {
      SetTransformerConfig cfg;
      cfg.vocab = kVocab;
      cfg.embed_dim = 4;
      cfg.att_dim = 8;
      cfg.num_heads = 2;
      cfg.rho_hidden = {16};
      return std::move(SetTransformerModel::Create(cfg)).value();
    }
  }
  return nullptr;
}

std::vector<std::vector<sets::ElementId>> RandomSets(size_t count,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<sets::ElementId>> out(count);
  for (auto& s : out) {
    s.resize(1 + rng.Uniform(8));
    for (auto& e : s) e = static_cast<sets::ElementId>(rng.Uniform(kVocab));
    sets::Canonicalize(&s);
  }
  return out;
}

std::vector<sets::SetView> Views(
    const std::vector<std::vector<sets::ElementId>>& raw) {
  std::vector<sets::SetView> views;
  views.reserve(raw.size());
  for (const auto& s : raw) views.emplace_back(s.data(), s.size());
  return views;
}

void Flatten(const std::vector<sets::SetView>& views,
             std::vector<sets::ElementId>* ids, std::vector<int64_t>* offsets) {
  ids->clear();
  offsets->assign(1, 0);
  for (const auto& v : views) {
    ids->insert(ids->end(), v.begin(), v.end());
    offsets->push_back(static_cast<int64_t>(ids->size()));
  }
}

std::vector<float> Gradients(SetModel* model) {
  std::vector<nn::Parameter*> params;
  model->CollectParameters(&params);
  std::vector<float> out;
  for (const nn::Parameter* p : params) {
    out.insert(out.end(), p->grad.data(), p->grad.data() + p->grad.size());
  }
  return out;
}

void ZeroGradients(SetModel* model) {
  std::vector<nn::Parameter*> params;
  model->CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
}

class StatelessInferenceTest : public testing::TestWithParam<Family> {};

TEST_P(StatelessInferenceTest, ConcurrentMixedPredictMatchesSerial) {
  std::unique_ptr<SetModel> model = MakeModel(GetParam());
  const auto raw = RandomSets(150, 31);
  const std::vector<sets::SetView> views = Views(raw);
  std::vector<double> serial;
  for (const auto& v : views) serial.push_back(model->PredictOne(v));

  // PredictBatch over the sets repeated 14 times (2100 > the 2048-set
  // sub-batch bound, so one call flushes twice); PredictBatchCsr over the
  // flattened sets in one forward.
  std::vector<sets::SetView> repeated;
  for (int r = 0; r < 14; ++r) {
    repeated.insert(repeated.end(), views.begin(), views.end());
  }
  std::vector<sets::ElementId> ids;
  std::vector<int64_t> offsets;
  Flatten(views, &ids, &offsets);

  // gtest assertions are not thread-safe, so workers only count.
  const SetModel& shared = *model;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        std::vector<double> got;
        switch ((t + rep) % 3) {
          case 0:
            for (const auto& v : views) got.push_back(shared.PredictOne(v));
            break;
          case 1:
            shared.PredictBatch(repeated.data(), repeated.size(), &got);
            break;
          default:
            shared.PredictBatchCsr(ids, offsets, &got);
            break;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i] != serial[i % serial.size()]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0) << model->name();
}

TEST_P(StatelessInferenceTest, PredictBetweenForwardAndBackwardKeepsGradients) {
  const auto batch_raw = RandomSets(40, 5);
  std::vector<sets::ElementId> ids;
  std::vector<int64_t> offsets;
  Flatten(Views(batch_raw), &ids, &offsets);
  nn::Tensor dout(static_cast<int64_t>(batch_raw.size()), 1);
  for (int64_t i = 0; i < dout.rows(); ++i) {
    dout(i, 0) = 0.01f * static_cast<float>(i % 7) - 0.03f;
  }

  // Reference: a plain Forward/Backward.
  std::unique_ptr<SetModel> reference = MakeModel(GetParam());
  ZeroGradients(reference.get());
  const nn::Tensor expected_out = reference->Forward(ids, offsets);
  reference->Backward(dout);
  const std::vector<float> expected_grads = Gradients(reference.get());

  // Same weights; differently shaped predictions interleaved, on this
  // thread and on another, before Backward.
  std::unique_ptr<SetModel> model = MakeModel(GetParam());
  ZeroGradients(model.get());
  const nn::Tensor& out = model->Forward(ids, offsets);
  const auto other_raw = RandomSets(300, 77);
  const std::vector<sets::SetView> other = Views(other_raw);
  std::vector<sets::ElementId> other_ids;
  std::vector<int64_t> other_offsets;
  Flatten(other, &other_ids, &other_offsets);
  std::vector<double> sink;
  std::thread reader([&] {
    std::vector<double> local;
    model->PredictBatch(other.data(), other.size(), &local);
    for (const auto& v : other) local.push_back(model->PredictOne(v));
  });
  model->PredictOne(other[0]);
  model->PredictBatch(other.data(), other.size(), &sink);
  model->PredictBatchCsr(other_ids, other_offsets, &sink);
  reader.join();

  ASSERT_TRUE(out.SameShape(expected_out));
  for (int64_t i = 0; i < out.rows(); ++i) {
    EXPECT_EQ(out(i, 0), expected_out(i, 0)) << "row " << i;
  }
  model->Backward(dout);
  EXPECT_EQ(Gradients(model.get()), expected_grads) << model->name();
}

TEST_P(StatelessInferenceTest, SingleQueryForwardAllocatesNothingAfterWarmUp) {
  std::unique_ptr<SetModel> model = MakeModel(GetParam());
  const auto raw = RandomSets(64, 9);
  const std::vector<sets::SetView> views = Views(raw);
  double warm = 0.0;
  for (const auto& v : views) warm += model->PredictOne(v);

  const size_t before = t_allocations;
  double again = 0.0;
  for (const auto& v : views) again += model->PredictOne(v);
  EXPECT_EQ(t_allocations - before, 0u) << model->name();
  EXPECT_EQ(again, warm);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, StatelessInferenceTest,
                         testing::Values(Family::kLsmSum, Family::kLsmMax,
                                         Family::kClsm,
                                         Family::kSetTransformer),
                         FamilyName);

}  // namespace
}  // namespace los::deepsets
