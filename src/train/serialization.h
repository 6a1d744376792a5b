#ifndef LASAGNE_TRAIN_SERIALIZATION_H_
#define LASAGNE_TRAIN_SERIALIZATION_H_

#include <string>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"
#include "models/model.h"
#include "tensor/rng.h"
#include "train/optimizer.h"

namespace lasagne {

/// Everything beyond raw parameters that `TrainModel` needs to resume a
/// run mid-flight: position in the epoch loop, early-stopping
/// bookkeeping, the (possibly backed-off) learning rate, Adam moments,
/// and the RNG stream.
struct TrainerState {
  size_t next_epoch = 0;        // first epoch the resumed run executes
  size_t epochs_since_best = 0;
  double best_val_accuracy = 0.0;
  float learning_rate = 0.0f;
  bool has_optimizer = false;
  AdamState adam;
  bool has_rng = false;
  RngState rng;
  /// Parameters of the best-validation epoch so far (empty when the run
  /// keeps none), restored by `TrainOptions::restore_best` at the end.
  std::vector<Tensor> best_params;
};

/// Writes a v2 checkpoint:
///
///   lasagne-checkpoint v2 <fnv1a-64 hex> <payload-bytes>
///   <payload>
///
/// The payload stores every tensor entry as its raw IEEE-754 bit
/// pattern (8/16 hex digits), so loads are bitwise-exact, and carries
/// optional optimizer/trainer/best-parameter/RNG sections
/// (`trainer_state` may be null for a parameters-only checkpoint). The
/// write is crash-safe: the payload is staged to `path + ".tmp"`,
/// fsync'd, then atomically renamed over `path`, so a crash at any byte
/// leaves either the previous checkpoint or the complete new one —
/// never a torn file.
Status SaveCheckpoint(const std::vector<ag::Variable>& params,
                      const TrainerState* trainer_state,
                      const std::string& path);

/// Restores a checkpoint written by SaveCheckpoint (v2) or the legacy
/// v1 text format. The parameter list must match in count and shapes
/// (same architecture/config). On v2 files the header checksum is
/// verified before any tensor is touched; truncation, corruption and
/// shape mismatches come back as DataLoss / InvalidArgument errors.
/// `trainer_state` may be null; v1 files carry no trainer state and
/// leave `*trainer_state` defaulted.
Status LoadCheckpoint(const std::vector<ag::Variable>& params,
                      TrainerState* trainer_state,
                      const std::string& path);

/// Convenience overloads for a model (parameters only).
Status SaveModelCheckpoint(const Model& model, const std::string& path);
Status LoadModelCheckpoint(Model& model, const std::string& path);

// -- Legacy bool API -------------------------------------------------------
// Thin wrappers kept for existing call sites; they discard the error
// detail. Saves now emit the crash-safe v2 format; loads accept both
// v1 and v2.

bool SaveParameters(const std::vector<ag::Variable>& params,
                    const std::string& path);
bool SaveModel(const Model& model, const std::string& path);
bool LoadParameters(const std::vector<ag::Variable>& params,
                    const std::string& path);
bool LoadModel(Model& model, const std::string& path);

}  // namespace lasagne

#endif  // LASAGNE_TRAIN_SERIALIZATION_H_
