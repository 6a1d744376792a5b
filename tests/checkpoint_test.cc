#include "train/serialization.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "data/io.h"
#include "data/registry.h"

namespace lasagne {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out << contents;
}

std::vector<ag::Variable> MakeParams(float base) {
  std::vector<ag::Variable> params;
  params.push_back(ag::MakeParameter(
      Tensor(2, 3, {base, base + 0.25f, -base, 1.0f / 3.0f, 1e-7f, -42.5f})));
  params.push_back(ag::MakeParameter(
      Tensor(1, 4, {base * 2, 0.0f, -1e9f, 3.14159265f})));
  return params;
}

TrainerState MakeState(const std::vector<ag::Variable>& params) {
  TrainerState state;
  state.next_epoch = 17;
  state.epochs_since_best = 3;
  state.best_val_accuracy = 0.8137259612;
  state.learning_rate = 0.005f;
  state.has_optimizer = true;
  state.adam.step_count = 17;
  for (const ag::Variable& p : params) {
    Tensor m(p->rows(), p->cols());
    Tensor v(p->rows(), p->cols());
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = 0.01f * static_cast<float>(i) - 0.05f;
      v.data()[i] = 1e-4f * static_cast<float>(i + 1);
    }
    state.adam.m.push_back(std::move(m));
    state.adam.v.push_back(std::move(v));
  }
  state.has_rng = true;
  state.rng.state = 0xdeadbeefcafef00dULL;
  state.rng.has_cached_normal = true;
  state.rng.cached_normal = -0.7071067811865476;
  return state;
}

TEST(CheckpointV2Test, FullStateRoundTripsBitwise) {
  const std::string path = TestPath("v2_roundtrip.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.7f);
  TrainerState state = MakeState(params);
  ASSERT_TRUE(SaveCheckpoint(params, &state, path).ok());

  std::vector<ag::Variable> restored = MakeParams(123.0f);
  TrainerState loaded;
  Status status = LoadCheckpoint(restored, &loaded, path);
  ASSERT_TRUE(status.ok()) << status.ToString();

  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(restored[i]->value().MaxAbsDiff(params[i]->value()), 0.0f);
  }
  EXPECT_EQ(loaded.next_epoch, state.next_epoch);
  EXPECT_EQ(loaded.epochs_since_best, state.epochs_since_best);
  EXPECT_EQ(loaded.best_val_accuracy, state.best_val_accuracy);
  EXPECT_EQ(loaded.learning_rate, state.learning_rate);
  ASSERT_TRUE(loaded.has_optimizer);
  EXPECT_EQ(loaded.adam.step_count, state.adam.step_count);
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(loaded.adam.m[i].MaxAbsDiff(state.adam.m[i]), 0.0f);
    EXPECT_EQ(loaded.adam.v[i].MaxAbsDiff(state.adam.v[i]), 0.0f);
  }
  ASSERT_TRUE(loaded.has_rng);
  EXPECT_EQ(loaded.rng.state, state.rng.state);
  EXPECT_EQ(loaded.rng.has_cached_normal, state.rng.has_cached_normal);
  EXPECT_EQ(loaded.rng.cached_normal, state.rng.cached_normal);
}

// The optional best-parameter section round-trips bitwise; a file
// without it (the only kind written before the section existed) loads
// with no best parameters.
TEST(CheckpointV2Test, BestParametersRoundTripBitwiseAndAreOptional) {
  const std::string path = TestPath("v2_best.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.7f);
  TrainerState state = MakeState(params);
  for (const ag::Variable& p : MakeParams(-2.5f)) {
    state.best_params.push_back(p->value());
  }
  ASSERT_TRUE(SaveCheckpoint(params, &state, path).ok());
  std::vector<ag::Variable> restored = MakeParams(123.0f);
  TrainerState loaded;
  Status status = LoadCheckpoint(restored, &loaded, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(loaded.best_params.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(loaded.best_params[i].MaxAbsDiff(state.best_params[i]), 0.0f);
  }
  EXPECT_EQ(loaded.rng.state, state.rng.state);

  state.best_params.clear();
  ASSERT_TRUE(SaveCheckpoint(params, &state, path).ok());
  EXPECT_EQ(ReadFile(path).find("\nbest "), std::string::npos);
  status = LoadCheckpoint(restored, &loaded, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(loaded.best_params.empty());
  EXPECT_EQ(loaded.rng.state, state.rng.state);
}

TEST(CheckpointV2Test, ParamsOnlyCheckpointLoadsWithDefaultState) {
  const std::string path = TestPath("v2_params_only.ckpt");
  std::vector<ag::Variable> params = MakeParams(1.5f);
  ASSERT_TRUE(SaveCheckpoint(params, nullptr, path).ok());
  std::vector<ag::Variable> restored = MakeParams(0.0f);
  TrainerState state;
  state.next_epoch = 99;  // must be reset by the load
  ASSERT_TRUE(LoadCheckpoint(restored, &state, path).ok());
  EXPECT_EQ(state.next_epoch, 0u);
  EXPECT_FALSE(state.has_optimizer);
  EXPECT_FALSE(state.has_rng);
  EXPECT_EQ(restored[0]->value().MaxAbsDiff(params[0]->value()), 0.0f);
}

TEST(CheckpointCorruptionTest, MissingFileIsNotFound) {
  std::vector<ag::Variable> params = MakeParams(1.0f);
  Status status =
      LoadCheckpoint(params, nullptr, TestPath("does_not_exist.ckpt"));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(CheckpointCorruptionTest, TruncatedFileIsDataLoss) {
  const std::string path = TestPath("v2_truncated.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.3f);
  TrainerState state = MakeState(params);
  ASSERT_TRUE(SaveCheckpoint(params, &state, path).ok());
  const std::string contents = ReadFile(path);
  WriteFile(path, contents.substr(0, contents.size() / 2));

  std::vector<ag::Variable> restored = MakeParams(0.0f);
  Status status = LoadCheckpoint(restored, nullptr, path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(CheckpointCorruptionTest, FlippedByteFailsChecksum) {
  const std::string path = TestPath("v2_flipped.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.9f);
  ASSERT_TRUE(SaveCheckpoint(params, nullptr, path).ok());
  std::string contents = ReadFile(path);
  // Flip one hex digit inside the payload (after the header line).
  const size_t payload_start = contents.find('\n') + 1;
  size_t pos = payload_start;
  while (pos < contents.size() && !std::isxdigit(contents[pos])) ++pos;
  ASSERT_LT(pos, contents.size());
  contents[pos] = contents[pos] == '0' ? '1' : '0';
  WriteFile(path, contents);

  std::vector<ag::Variable> restored = MakeParams(0.0f);
  Status status = LoadCheckpoint(restored, nullptr, path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointCorruptionTest, ShapeMismatchIsInvalidArgument) {
  const std::string path = TestPath("v2_shape.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.4f);
  ASSERT_TRUE(SaveCheckpoint(params, nullptr, path).ok());

  std::vector<ag::Variable> transposed;
  transposed.push_back(ag::MakeParameter(Tensor(3, 2)));
  transposed.push_back(ag::MakeParameter(Tensor(4, 1)));
  Status status = LoadCheckpoint(transposed, nullptr, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();

  std::vector<ag::Variable> fewer;
  fewer.push_back(ag::MakeParameter(Tensor(2, 3)));
  status = LoadCheckpoint(fewer, nullptr, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(CheckpointCorruptionTest, GarbageFileIsDataLoss) {
  const std::string path = TestPath("garbage.ckpt");
  WriteFile(path, "this is not a checkpoint at all\n");
  std::vector<ag::Variable> params = MakeParams(1.0f);
  EXPECT_EQ(LoadCheckpoint(params, nullptr, path).code(),
            StatusCode::kDataLoss);
}

// Hand-writes the legacy v1 decimal format and loads it through the
// unified loader: v1 files must keep working after the v2 migration.
TEST(CheckpointCompatTest, V1FileStillLoads) {
  const std::string path = TestPath("legacy_v1.ckpt");
  std::vector<ag::Variable> params = MakeParams(0.6f);
  std::ostringstream v1;
  v1 << "lasagne-checkpoint v1\n" << params.size() << "\n";
  v1.precision(9);
  for (const ag::Variable& p : params) {
    const Tensor& t = p->value();
    v1 << t.rows() << " " << t.cols() << "\n";
    for (size_t i = 0; i < t.size(); ++i) {
      v1 << t.data()[i] << (i + 1 == t.size() ? '\n' : ' ');
    }
  }
  WriteFile(path, v1.str());

  std::vector<ag::Variable> restored = MakeParams(0.0f);
  TrainerState state;
  Status status = LoadCheckpoint(restored, &state, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(state.has_optimizer);
  // v1 stores 9 significant decimal digits, not bit patterns.
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_LT(restored[i]->value().MaxAbsDiff(params[i]->value()), 1e-3f);
  }
  // The bool wrapper accepts v1 too.
  EXPECT_TRUE(LoadParameters(MakeParams(0.0f), path));
}

TEST(CheckpointCompatTest, V1TruncationAndMismatchAreCleanErrors) {
  const std::string path = TestPath("legacy_v1_bad.ckpt");
  WriteFile(path, "lasagne-checkpoint v1\n2\n2 3\n0.5 0.5");
  std::vector<ag::Variable> params = MakeParams(0.0f);
  EXPECT_EQ(LoadCheckpoint(params, nullptr, path).code(),
            StatusCode::kDataLoss);
  WriteFile(path, "lasagne-checkpoint v1\n5\n");
  EXPECT_EQ(LoadCheckpoint(params, nullptr, path).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointAtomicityTest, InjectedWriteFailureLeavesOldFileValid) {
  FaultInjector::Global().Reset();
  const std::string path = TestPath("atomic.ckpt");
  std::vector<ag::Variable> original = MakeParams(2.0f);
  ASSERT_TRUE(SaveCheckpoint(original, nullptr, path).ok());

  // A crash 64 bytes into the rewrite must not touch the destination.
  std::vector<ag::Variable> updated = MakeParams(5.0f);
  FaultInjector::Global().ArmWriteFailure(/*byte_offset=*/64);
  Status failed = SaveCheckpoint(updated, nullptr, path);
  EXPECT_EQ(failed.code(), StatusCode::kIOError) << failed.ToString();
  EXPECT_EQ(FaultInjector::Global().write_failures_injected(), 1u);

  std::vector<ag::Variable> restored = MakeParams(0.0f);
  ASSERT_TRUE(LoadCheckpoint(restored, nullptr, path).ok());
  EXPECT_EQ(restored[0]->value().MaxAbsDiff(original[0]->value()), 0.0f);
  // The torn temp file is left behind (as a real crash would)...
  EXPECT_FALSE(ReadFile(path + ".tmp").empty());
  // ...and a later healthy save replaces the checkpoint atomically.
  ASSERT_TRUE(SaveCheckpoint(updated, nullptr, path).ok());
  ASSERT_TRUE(LoadCheckpoint(restored, nullptr, path).ok());
  EXPECT_EQ(restored[0]->value().MaxAbsDiff(updated[0]->value()), 0.0f);
  std::remove((path + ".tmp").c_str());
  FaultInjector::Global().Reset();
}

TEST(CheckpointAtomicityTest, FailureAtByteZeroWritesNothingToDestination) {
  FaultInjector::Global().Reset();
  const std::string path = TestPath("atomic_zero.ckpt");
  std::vector<ag::Variable> params = MakeParams(1.0f);
  FaultInjector::Global().ArmWriteFailure(/*byte_offset=*/0);
  EXPECT_FALSE(SaveCheckpoint(params, nullptr, path).ok());
  EXPECT_EQ(LoadCheckpoint(params, nullptr, path).code(),
            StatusCode::kNotFound);
  FaultInjector::Global().Reset();
}

// Model-level wrappers still work end to end on the v2 format.
TEST(CheckpointModelTest, ModelRoundTripThroughStatusApi) {
  Dataset data = LoadDataset("cora", 0.2, 31);
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 8;
  config.seed = 5;
  std::unique_ptr<Model> model = MakeModel("gcn", data, config);
  const std::string path = TestPath("model_v2.ckpt");
  ASSERT_TRUE(SaveModelCheckpoint(*model, path).ok());

  ModelConfig other_config = config;
  other_config.seed = 777;
  std::unique_ptr<Model> other = MakeModel("gcn", data, other_config);
  ASSERT_TRUE(LoadModelCheckpoint(*other, path).ok());
  std::vector<ag::Variable> a = model->Parameters();
  std::vector<ag::Variable> b = other->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->value().MaxAbsDiff(b[i]->value()), 0.0f);
  }
}

// -- Dataset TSV loader robustness (same recoverable-error migration) ------

TEST(DatasetIoRobustnessTest, MissingPrefixIsNotFound) {
  StatusOr<Dataset> loaded = TryLoadDatasetFromFiles("/nonexistent/prefix");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DatasetIoRobustnessTest, CorruptFilesAreCleanErrors) {
  Dataset data = LoadDataset("cora", 0.2, 33);
  const std::string prefix = TestPath("corrupt_ds");
  ASSERT_TRUE(ExportDatasetToFiles(data, prefix).ok());

  // Truncate the features file: DataLoss naming the file.
  const std::string features = ReadFile(prefix + ".features");
  WriteFile(prefix + ".features", features.substr(0, features.size() / 3));
  StatusOr<Dataset> loaded = TryLoadDatasetFromFiles(prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(".features"), std::string::npos);
  WriteFile(prefix + ".features", features);

  // Bad split tag: InvalidArgument.
  std::string splits = ReadFile(prefix + ".splits");
  splits.replace(0, splits.find('\n'), "banana");
  WriteFile(prefix + ".splits", splits);
  loaded = TryLoadDatasetFromFiles(prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoRobustnessTest, OutOfRangeEdgeRejected) {
  Dataset data = LoadDataset("cora", 0.2, 34);
  const std::string prefix = TestPath("bad_edge_ds");
  ASSERT_TRUE(ExportDatasetToFiles(data, prefix).ok());
  std::ostringstream graph;
  graph << data.num_nodes() << "\t1\n" << data.num_nodes() + 5 << "\t0\n";
  WriteFile(prefix + ".graph", graph.str());
  StatusOr<Dataset> loaded = TryLoadDatasetFromFiles(prefix);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetValidateTest, ReportsFirstViolation) {
  Dataset data = LoadDataset("cora", 0.2, 35);
  EXPECT_TRUE(data.Validate().ok());
  Dataset broken = data;
  broken.labels[3] = static_cast<int32_t>(broken.num_classes) + 2;
  Status status = broken.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("label"), std::string::npos);

  Dataset overlapping = data;
  // Force one node into two splits.
  overlapping.train_mask[0] = 1.0f;
  overlapping.val_mask[0] = 1.0f;
  EXPECT_FALSE(overlapping.Validate().ok());
}

}  // namespace
}  // namespace lasagne
