#ifndef LOS_DEEPSETS_SET_MODEL_H_
#define LOS_DEEPSETS_SET_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "sets/set_collection.h"

namespace los::deepsets {

/// \brief Interface of a learned set-to-scalar model.
///
/// Implementations: DeepSetsModel (LSM), CompressedDeepSetsModel (CLSM) and
/// SetTransformerModel. Batches use CSR layout: `ids` flattens all sets'
/// elements, `offsets` (num_sets + 1 entries) delimits each set. The output
/// is one scalar per set (position / cardinality / membership probability,
/// all in [0,1] via the sigmoid head — Table 1).
///
/// Each implementation has one const forward pass (ForwardPass) that writes
/// every activation into a Workspace owned by its caller:
///   - Forward/Backward are the training path. They keep one workspace as a
///     member, with a copy of the batch, so Backward refers to the most
///     recent Forward; one model serves one training thread at a time. The
///     kernels inside fan out over the shared thread pool with
///     bit-deterministic results.
///   - Predict* are const and lock-free: each call runs on the calling
///     thread's workspace, so any number of threads may predict from one
///     model at once, and predicting between a Forward and its Backward
///     leaves the training state untouched. Concurrent Predict* must not
///     overlap a parameter update (the optimizer step, Load).
class SetModel {
 public:
  /// \brief Activations of one forward pass. Each implementation derives
  /// its own layout; `ids`/`offsets` hold a CSR batch assembled by the
  /// workspace's owner (the trainer's copy, PredictBatch's gathered views).
  struct Workspace {
    virtual ~Workspace() = default;
    std::vector<sets::ElementId> ids;
    std::vector<int64_t> offsets;
  };

  virtual ~SetModel() = default;

  /// Training forward pass over a batch; returns a reference to the
  /// (num_sets x 1) output held in the training workspace (valid until the
  /// next Forward).
  const nn::Tensor& Forward(const std::vector<sets::ElementId>& ids,
                            const std::vector<int64_t>& offsets);

  /// Backpropagates `dout` (num_sets x 1) through the last Forward,
  /// accumulating parameter gradients.
  void Backward(const nn::Tensor& dout);

  /// Appends all trainable parameters (for the optimizer).
  virtual void CollectParameters(std::vector<nn::Parameter*>* out) = 0;

  /// Parameter bytes — the "model size" of the memory tables.
  virtual size_t ByteSize() const = 0;

  /// Short human-readable name ("LSM", "CLSM", ...).
  virtual std::string name() const = 0;

  /// Largest element id + 1 the model accepts (its embedding coverage).
  virtual int64_t vocab() const = 0;

  virtual void Save(BinaryWriter* w) const = 0;

  /// Predicts the scalar for a single set. After warm-up the calling
  /// thread's workspace has its capacity, so repeated calls do not
  /// allocate.
  double PredictOne(sets::SetView s) const;

  /// Batched inference: appends one prediction per set to `out`. Large
  /// batches are split into bounded sub-batches, so arbitrarily many sets
  /// can be served without unbounded intermediate tensors.
  void PredictBatch(const sets::SetView* views, size_t count,
                    std::vector<double>* out) const;
  std::vector<double> PredictBatch(
      const std::vector<sets::SetView>& views) const;

  /// Batched inference over an already-flattened CSR batch (`offsets` has
  /// num_sets + 1 entries into `ids`); appends one prediction per set to
  /// `out`. Used by the trainer and the learned structures' batch lookups.
  void PredictBatchCsr(const std::vector<sets::ElementId>& ids,
                       const std::vector<int64_t>& offsets,
                       std::vector<double>* out) const;

 protected:
  /// A new, empty workspace of this implementation's layout.
  virtual std::unique_ptr<Workspace> NewWorkspace() const = 0;

  /// The calling thread's workspace of this implementation's layout,
  /// shared by every model of the class on that thread.
  virtual Workspace* ThreadWorkspace() const = 0;

  /// The forward pass: writes all activations into `ws` (which came from
  /// this class's NewWorkspace or ThreadWorkspace) and returns the
  /// (num_sets x 1) output held there. `ids`/`offsets` may alias
  /// `ws->ids`/`ws->offsets`, which it does not write.
  virtual const nn::Tensor& ForwardPass(const std::vector<sets::ElementId>& ids,
                                        const std::vector<int64_t>& offsets,
                                        Workspace* ws) const = 0;

  /// Backpropagates through the forward recorded in `ws`, whose
  /// `ids`/`offsets` hold that forward's batch.
  virtual void BackwardPass(Workspace* ws, const nn::Tensor& dout) = 0;

 private:
  /// Forwards the batch gathered in `ws`, appends its outputs and clears it.
  void Flush(Workspace* ws, std::vector<double>* out) const;

  std::unique_ptr<Workspace> train_ws_;  // created by the first Forward
};

}  // namespace los::deepsets

#endif  // LOS_DEEPSETS_SET_MODEL_H_
