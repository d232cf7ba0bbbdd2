#include "deepsets/set_model.h"

#include <cassert>

namespace los::deepsets {

namespace {

// Sub-batch bounds for PredictBatch: caps the rows of every intermediate
// tensor of a forward pass, keeping the working set cache-resident and the
// peak memory independent of the caller's batch size. Large callers pay one
// forward per kMaxBatchSets (or kMaxBatchElements flattened ids, whichever
// trips first).
constexpr size_t kMaxBatchSets = 2048;
constexpr size_t kMaxBatchElements = 1 << 16;

}  // namespace

const nn::Tensor& SetModel::Forward(const std::vector<sets::ElementId>& ids,
                                    const std::vector<int64_t>& offsets) {
  if (train_ws_ == nullptr) train_ws_ = NewWorkspace();
  train_ws_->ids = ids;
  train_ws_->offsets = offsets;
  return ForwardPass(train_ws_->ids, train_ws_->offsets, train_ws_.get());
}

void SetModel::Backward(const nn::Tensor& dout) {
  assert(train_ws_ != nullptr && "Backward without a Forward");
  BackwardPass(train_ws_.get(), dout);
}

double SetModel::PredictOne(sets::SetView s) const {
  Workspace* ws = ThreadWorkspace();
  ws->ids.assign(s.begin(), s.end());
  ws->offsets.assign({0, static_cast<int64_t>(ws->ids.size())});
  return static_cast<double>(ForwardPass(ws->ids, ws->offsets, ws)(0, 0));
}

void SetModel::Flush(Workspace* ws, std::vector<double>* out) const {
  if (ws->offsets.size() > 1) {
    const nn::Tensor& pred = ForwardPass(ws->ids, ws->offsets, ws);
    for (int64_t i = 0; i < pred.rows(); ++i) {
      out->push_back(static_cast<double>(pred(i, 0)));
    }
  }
  ws->ids.clear();
  ws->offsets.assign(1, 0);
}

void SetModel::PredictBatch(const sets::SetView* views, size_t count,
                            std::vector<double>* out) const {
  out->reserve(out->size() + count);
  Workspace* ws = ThreadWorkspace();
  ws->ids.clear();
  ws->offsets.assign(1, 0);
  for (size_t i = 0; i < count; ++i) {
    ws->ids.insert(ws->ids.end(), views[i].begin(), views[i].end());
    ws->offsets.push_back(static_cast<int64_t>(ws->ids.size()));
    if (ws->offsets.size() - 1 >= kMaxBatchSets ||
        ws->ids.size() >= kMaxBatchElements) {
      Flush(ws, out);
    }
  }
  Flush(ws, out);
}

std::vector<double> SetModel::PredictBatch(
    const std::vector<sets::SetView>& views) const {
  std::vector<double> out;
  PredictBatch(views.data(), views.size(), &out);
  return out;
}

void SetModel::PredictBatchCsr(const std::vector<sets::ElementId>& ids,
                               const std::vector<int64_t>& offsets,
                               std::vector<double>* out) const {
  if (offsets.size() <= 1) return;
  const size_t num_sets = offsets.size() - 1;
  if (num_sets > kMaxBatchSets || ids.size() > kMaxBatchElements) {
    std::vector<sets::SetView> views;
    views.reserve(num_sets);
    for (size_t s = 0; s < num_sets; ++s) {
      views.emplace_back(ids.data() + offsets[s],
                         static_cast<size_t>(offsets[s + 1] - offsets[s]));
    }
    PredictBatch(views.data(), views.size(), out);
    return;
  }
  // Common case: forward the caller's buffers directly, no copy.
  out->reserve(out->size() + num_sets);
  const nn::Tensor& pred = ForwardPass(ids, offsets, ThreadWorkspace());
  for (int64_t i = 0; i < pred.rows(); ++i) {
    out->push_back(static_cast<double>(pred(i, 0)));
  }
}

}  // namespace los::deepsets
