// Ablation: DeepSets (LSM) vs. Set Transformer on the cardinality task.
// §3.2 of the paper justifies choosing DeepSets: "the Set Transformer has a
// slightly better accuracy ... for some more complicated tasks, for simpler
// tasks they perform similarly. However, the DeepSets model is superiorly
// faster and smaller." This bench quantifies that claim on our workload.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"
#include "nn/losses.h"
#include "sets/workload.h"

using los::core::TargetScaler;
using los::core::TrainConfig;
using los::core::Trainer;
using los::core::TrainingSet;

namespace {

struct Row {
  const char* name;
  double qerr;
  double kib;
  double train_s;
  double query_ms;
};

Row Evaluate(los::deepsets::SetModel* model, const char* name,
             TrainingSet* data, const TargetScaler& scaler,
             const std::vector<los::sets::Query>& queries, int epochs) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 256;
  cfg.learning_rate = 3e-3f;
  cfg.loss = los::core::LossKind::kMse;
  Trainer trainer(cfg);
  los::Stopwatch sw;
  trainer.Train(model, *data);
  double train_s = sw.ElapsedSeconds();

  sw.Restart();
  double q_sum = 0.0;
  for (const auto& q : queries) {
    double est = scaler.Unscale(model->PredictOne(q.view()));
    q_sum += los::nn::QError(est, q.truth);
  }
  double query_ms = sw.ElapsedMillis() / static_cast<double>(queries.size());
  return {name, q_sum / static_cast<double>(queries.size()),
          model->ByteSize() / 1024.0, train_s, query_ms};
}

}  // namespace

int main() {
  los::bench::Banner("Ablation: DeepSets vs. Set Transformer",
                     "Sec. 3.2 design choice");

  auto datasets = los::bench::BenchDatasets(/*include_large=*/false);
  int epochs = los::bench::EnvEpochs(10);

  for (auto& ds : datasets) {
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    TargetScaler scaler =
        TargetScaler::FitRange(1.0, subsets.MaxCardinality());
    TrainingSet data = TrainingSet::FromSubsets(
        subsets, los::sets::QueryLabel::kCardinality, scaler);
    los::Rng rng(9);
    auto queries = SampleQueries(subsets,
                                 los::sets::QueryLabel::kCardinality, 2000,
                                 &rng);

    std::printf("\n--- %s: %zu sets, %zu subsets ---\n", ds.name.c_str(),
                ds.collection.size(), subsets.size());
    std::printf("%-16s %10s %10s %10s %12s\n", "model", "q-error", "KiB",
                "train s", "ms/query");

    los::deepsets::DeepSetsConfig ds_cfg;
    ds_cfg.vocab = ds.collection.universe_size();
    ds_cfg.embed_dim = 8;
    ds_cfg.phi_hidden = {64};
    ds_cfg.rho_hidden = {64};
    ds_cfg.seed = 1;
    auto deepsets =
        std::move(los::deepsets::DeepSetsModel::Create(ds_cfg)).value();
    Row r1 = Evaluate(deepsets.get(), "DeepSets", &data, scaler, queries,
                      epochs);

    los::deepsets::SetTransformerConfig st_cfg;
    st_cfg.vocab = ds.collection.universe_size();
    st_cfg.embed_dim = 8;
    st_cfg.att_dim = 32;
    st_cfg.ff_hidden = 64;
    st_cfg.rho_hidden = {64};
    st_cfg.seed = 1;
    auto st = los::deepsets::SetTransformerModel::Create(st_cfg);
    if (!st.ok()) {
      std::printf("SetTransformer build failed\n");
      continue;
    }
    Row r2 = Evaluate(st->get(), "SetTransformer", &data, scaler, queries,
                      epochs);

    for (const Row& r : {r1, r2}) {
      std::printf("%-16s %10.3f %10.1f %10.1f %12.4f\n", r.name, r.qerr,
                  r.kib, r.train_s, r.query_ms);
    }
  }
  std::printf("\nExpected shape (paper Sec. 3.2): similar accuracy on these "
              "simple tasks, but DeepSets trains and queries faster.\n");
  return 0;
}
