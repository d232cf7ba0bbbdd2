// Figure 7: the digit-summation experiment from the DeepSets paper, used in
// §8.5.1 to show the compression's impact. Trains DeepSets, compressed
// DeepSets, LSTM and GRU on sums of up to 10 numbers and evaluates MAE on
// sums of exactly M numbers, M in [5, 100] — probing generalization to set
// sizes never seen in training. Runs the value range [1, 10] (Fig 7a) and
// [1, 100] (Fig 7b).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "deepsets/deepsets_model.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

using los::deepsets::DeepSetsConfig;
using los::deepsets::DeepSetsModel;
using los::deepsets::SetModel;
using los::nn::RnnKind;
using los::nn::SequenceRegressor;
using los::nn::Tensor;
using los::sets::DigitSumInstance;

namespace {

/// Trains a SetModel on the digit-sum regression (linear output head, MAE
/// loss on raw sums — the paper's metric).
void TrainSetModel(SetModel* model, const std::vector<DigitSumInstance>& data,
                   int epochs, los::Rng* rng) {
  std::vector<los::nn::Parameter*> params;
  model->CollectParameters(&params);
  los::nn::Adam opt(1e-3f);
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t batch = 256;
  std::vector<los::sets::ElementId> ids;
  std::vector<int64_t> offsets;
  Tensor targets, dpred;
  for (int e = 0; e < epochs; ++e) {
    rng->Shuffle(&order);
    for (size_t begin = 0; begin < order.size(); begin += batch) {
      size_t end = std::min(order.size(), begin + batch);
      ids.clear();
      offsets.assign(1, 0);
      targets.ResizeAndZero(static_cast<int64_t>(end - begin), 1);
      for (size_t k = begin; k < end; ++k) {
        const auto& inst = data[order[k]];
        ids.insert(ids.end(), inst.values.begin(), inst.values.end());
        offsets.push_back(static_cast<int64_t>(ids.size()));
        targets(static_cast<int64_t>(k - begin), 0) =
            static_cast<float>(inst.sum);
      }
      const Tensor& pred = model->Forward(ids, offsets);
      los::nn::MaeLoss(pred, targets, &dpred);
      model->Backward(dpred);
      opt.Step(params);
    }
  }
}

double EvalSetModel(SetModel* model,
                    const std::vector<DigitSumInstance>& data) {
  double abs_sum = 0;
  std::vector<los::sets::ElementId> ids;
  std::vector<int64_t> offsets;
  for (const auto& inst : data) {
    ids.assign(inst.values.begin(), inst.values.end());
    offsets = {0, static_cast<int64_t>(ids.size())};
    const Tensor& out = model->Forward(ids, offsets);
    abs_sum += std::abs(static_cast<double>(out(0, 0)) - inst.sum);
  }
  return abs_sum / static_cast<double>(data.size());
}

/// Trains an RNN regressor with length-bucketed batches.
void TrainRnn(SequenceRegressor* model,
              const std::vector<DigitSumInstance>& data, int epochs,
              los::Rng* rng) {
  std::vector<los::nn::Parameter*> params;
  model->CollectParameters(&params);
  los::nn::Adam opt(1e-3f);
  // Bucket instance indices by sequence length.
  std::map<size_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < data.size(); ++i) {
    buckets[data[i].values.size()].push_back(i);
  }
  const size_t batch = 256;
  Tensor out, targets, dpred;
  for (int e = 0; e < epochs; ++e) {
    for (auto& [len, idx] : buckets) {
      rng->Shuffle(&idx);
      for (size_t begin = 0; begin < idx.size(); begin += batch) {
        size_t end = std::min(idx.size(), begin + batch);
        const int64_t b = static_cast<int64_t>(end - begin);
        std::vector<uint32_t> ids;
        ids.reserve(static_cast<size_t>(b) * len);
        targets.ResizeAndZero(b, 1);
        for (size_t k = begin; k < end; ++k) {
          const auto& inst = data[idx[k]];
          ids.insert(ids.end(), inst.values.begin(), inst.values.end());
          targets(static_cast<int64_t>(k - begin), 0) =
              static_cast<float>(inst.sum);
        }
        model->Forward(ids, b, static_cast<int64_t>(len), &out);
        los::nn::MaeLoss(out, targets, &dpred);
        model->ForwardBackward(ids, b, static_cast<int64_t>(len), &out,
                               dpred);
        opt.Step(params);
      }
    }
  }
}

double EvalRnn(SequenceRegressor* model,
               const std::vector<DigitSumInstance>& data) {
  double abs_sum = 0;
  Tensor out;
  for (const auto& inst : data) {
    std::vector<uint32_t> ids(inst.values.begin(), inst.values.end());
    model->Forward(ids, 1, static_cast<int64_t>(ids.size()), &out);
    abs_sum += std::abs(static_cast<double>(out(0, 0)) - inst.sum);
  }
  return abs_sum / static_cast<double>(data.size());
}

void RunRange(uint32_t max_value, size_t train_n, int epochs) {
  std::printf("\n===== value range [1, %u] =====\n", max_value);
  los::Rng rng(5);
  auto train = los::sets::GenerateDigitSum(train_n, /*max_len=*/10, max_value, &rng);

  const int64_t embed = 16, hidden = 32;
  const int64_t vocab = static_cast<int64_t>(max_value) + 1;

  DeepSetsConfig ds_cfg;
  ds_cfg.vocab = vocab;
  ds_cfg.embed_dim = embed;
  ds_cfg.phi_hidden = {hidden};
  ds_cfg.rho_hidden = {hidden};
  ds_cfg.output_act = los::nn::Activation::kNone;  // unbounded sums
  ds_cfg.seed = 1;
  DeepSetsConfig c_cfg = ds_cfg;
  c_cfg.compressed = true;
  c_cfg.ns = 2;
  auto deepsets_r = DeepSetsModel::Create(ds_cfg);
  auto compressed_r = DeepSetsModel::Create(c_cfg);
  if (!deepsets_r.ok() || !compressed_r.ok()) {
    std::printf("model build failed\n");
    return;
  }
  auto deepsets = std::move(*deepsets_r);
  auto compressed = std::move(*compressed_r);

  los::Rng init_rng(2);
  SequenceRegressor lstm(RnnKind::kLstm, vocab, embed, hidden, &init_rng);
  SequenceRegressor gru(RnnKind::kGru, vocab, embed, hidden, &init_rng);

  los::Stopwatch sw;
  TrainSetModel(deepsets.get(), train, epochs, &rng);
  double t_ds = sw.ElapsedSeconds();
  sw.Restart();
  TrainSetModel(compressed.get(), train, epochs, &rng);
  double t_cds = sw.ElapsedSeconds();
  sw.Restart();
  TrainRnn(&lstm, train, epochs, &rng);
  double t_lstm = sw.ElapsedSeconds();
  sw.Restart();
  TrainRnn(&gru, train, epochs, &rng);
  double t_gru = sw.ElapsedSeconds();
  std::printf("train times (s): DeepSets %.1f, CDeepSets %.1f, LSTM %.1f, "
              "GRU %.1f\n",
              t_ds, t_cds, t_lstm, t_gru);

  std::printf("\n%-8s %12s %12s %12s %12s\n", "M", "DeepSets", "CDeepSets",
              "LSTM", "GRU");
  for (size_t m : {5, 10, 20, 40, 60, 80, 100}) {
    los::Rng eval_rng(100 + m);
    auto test = los::sets::GenerateDigitSumFixedLen(1000, m, max_value, &eval_rng);
    std::printf("%-8zu %12.2f %12.2f %12.2f %12.2f\n", m,
                EvalSetModel(deepsets.get(), test),
                EvalSetModel(compressed.get(), test), EvalRnn(&lstm, test),
                EvalRnn(&gru, test));
  }

  // Memory comparison: the embedding table is what the compression shrinks.
  auto table_bytes_ds = static_cast<double>(vocab * embed) * sizeof(float);
  double table_bytes_cds =
      static_cast<double>(compressed->compressor().TotalVocab()) * embed *
      sizeof(float);
  std::printf("\nembedding tables: DeepSets %.3f KB, CDeepSets %.3f KB "
              "(total model: %.2f KB vs %.2f KB)\n",
              table_bytes_ds / 1024.0, table_bytes_cds / 1024.0,
              deepsets->ByteSize() / 1024.0, compressed->ByteSize() / 1024.0);
}

}  // namespace

int main() {
  los::bench::Banner("Figure 7: digit-sum generalization (MAE)", "Fig. 7a/7b");
  double scale = los::bench::EnvScale();
  size_t train_n = static_cast<size_t>(20000 * scale) + 100;
  int epochs = los::bench::EnvEpochs(8);
  RunRange(/*max_value=*/10, train_n, epochs);   // Fig 7a
  RunRange(/*max_value=*/100, train_n, epochs);  // Fig 7b
  std::printf("\nExpected shape (paper Fig. 7): DeepSets and CDeepSets track "
              "each other and generalize to M >> 10; LSTM/GRU degrade "
              "sharply beyond the training lengths; the compressed "
              "embedding is smaller, increasingly so for larger ranges.\n");
  return 0;
}
