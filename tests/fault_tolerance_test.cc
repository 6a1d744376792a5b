#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "data/registry.h"
#include "obs/telemetry.h"
#include "train/experiment.h"
#include "train/serialization.h"
#include "train/trainer.h"

namespace lasagne {
namespace {

/// Resets the global injector around every test so arming never leaks
/// into unrelated suites.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

ModelConfig SmallGcnConfig() {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.dropout = 0.4f;
  config.seed = 11;
  return config;
}

TrainOptions BaseOptions() {
  TrainOptions options;
  options.max_epochs = 60;
  options.patience = 100;
  options.seed = 12;
  return options;
}

// The acceptance scenario: an injected NaN gradient at epoch k triggers
// rollback + learning-rate backoff, and the run still completes and
// converges close to an uninjected run.
TEST_F(FaultToleranceTest, NanGradientRollsBackAndStillConverges) {
  Dataset data = LoadDataset("cora", 0.3, 41);

  std::unique_ptr<Model> clean_model =
      MakeModel("gcn", data, SmallGcnConfig());
  TrainResult clean = TrainModel(*clean_model, BaseOptions());
  ASSERT_TRUE(clean.recoveries.empty());
  ASSERT_FALSE(clean.diverged);
  ASSERT_GT(clean.test_accuracy, 0.5);

  FaultInjector::Global().ArmNanGradient(/*epoch=*/5);
  std::unique_ptr<Model> faulty_model =
      MakeModel("gcn", data, SmallGcnConfig());
  TrainResult faulty = TrainModel(*faulty_model, BaseOptions());

  EXPECT_EQ(FaultInjector::Global().nan_gradients_injected(), 1u);
  ASSERT_EQ(faulty.recoveries.size(), 1u);
  EXPECT_EQ(faulty.recoveries[0].epoch, 5u);
  EXPECT_EQ(faulty.recoveries[0].reason, "non-finite gradient");
  EXPECT_FLOAT_EQ(faulty.recoveries[0].new_learning_rate,
                  BaseOptions().learning_rate * 0.5f);
  EXPECT_FALSE(faulty.diverged);
  EXPECT_GE(faulty.epochs_run, clean.epochs_run / 2);
  // Within tolerance of the clean run despite the fault.
  EXPECT_GT(faulty.test_accuracy, clean.test_accuracy - 0.15);
}

TEST_F(FaultToleranceTest, RecoveryBudgetExhaustionReportsDivergence) {
  Dataset data = LoadDataset("cora", 0.2, 42);
  // Re-poison epoch 2 every time it is retried: the bounded policy
  // must give up after max_recoveries instead of looping forever.
  FaultInjector::Global().ArmNanGradient(/*epoch=*/2, /*count=*/100);
  TrainOptions options = BaseOptions();
  options.max_recoveries = 3;
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallGcnConfig());
  TrainResult result = TrainModel(*model, options);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.recoveries.size(), 3u);
  // Each rollback halves the learning rate once.
  EXPECT_FLOAT_EQ(result.recoveries.back().new_learning_rate,
                  options.learning_rate * 0.125f);
  // Only the two healthy epochs before the fault completed.
  EXPECT_EQ(result.epochs_run, 2u);
}

// Acceptance criterion: --resume continues from the saved epoch with
// bitwise-identical parameters (which requires bitwise-identical Adam
// moments and RNG stream).
TEST_F(FaultToleranceTest, ResumeIsBitwiseIdenticalToUninterruptedRun) {
  Dataset data = LoadDataset("cora", 0.25, 43);
  const std::string path = ::testing::TempDir() + "/resume.ckpt";
  std::remove(path.c_str());

  ModelConfig config = SmallGcnConfig();
  TrainOptions options = BaseOptions();
  options.max_epochs = 8;
  options.restore_best = false;  // compare the raw final parameters

  // Reference: 8 uninterrupted epochs.
  std::unique_ptr<Model> reference = MakeModel("gcn", data, config);
  TrainResult ref_result = TrainModel(*reference, options);
  ASSERT_EQ(ref_result.epochs_run, 8u);

  // Interrupted: stop after 4 epochs, checkpointing at epoch 4.
  TrainOptions first_half = options;
  first_half.max_epochs = 4;
  first_half.checkpoint_path = path;
  first_half.checkpoint_interval = 4;
  std::unique_ptr<Model> interrupted = MakeModel("gcn", data, config);
  TrainResult first = TrainModel(*interrupted, first_half);
  ASSERT_EQ(first.epochs_run, 4u);
  ASSERT_EQ(first.checkpoint_write_failures, 0u);

  // Resumed: a fresh process picks up the checkpoint and finishes.
  TrainOptions second_half = options;
  second_half.checkpoint_path = path;
  second_half.checkpoint_interval = 1000;  // no further writes
  second_half.resume = true;
  std::unique_ptr<Model> resumed = MakeModel("gcn", data, config);
  TrainResult second = TrainModel(*resumed, second_half);
  ASSERT_TRUE(second.resume_status.ok())
      << second.resume_status.ToString();
  EXPECT_EQ(second.resumed_from_epoch, 4u);
  EXPECT_EQ(second.epochs_run, 8u);

  std::vector<ag::Variable> a = reference->Parameters();
  std::vector<ag::Variable> b = resumed->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->value().MaxAbsDiff(b[i]->value()), 0.0f)
        << "parameter " << i << " diverged after resume";
  }
  EXPECT_EQ(second.test_accuracy, ref_result.test_accuracy);
}

// With restore_best on, the final evaluation runs on the best-validation
// parameters. When that epoch falls before the checkpoint and no later
// epoch beats it, only the checkpoint can carry them into the resumed
// run, which must then end exactly like the uninterrupted one.
TEST_F(FaultToleranceTest, ResumeRestoresBestParametersFromBeforeCheckpoint) {
  Dataset data = LoadDataset("cora", 0.3, 1);
  const std::string path = ::testing::TempDir() + "/best_resume.ckpt";
  std::remove(path.c_str());

  ModelConfig config;
  config.depth = 4;
  config.hidden_dim = 32;
  config.dropout = 0.5f;
  config.seed = 1;
  TrainOptions options;
  options.max_epochs = 12;
  options.patience = 100;
  options.seed = 2;
  constexpr size_t kCheckpointEpoch = 6;

  std::unique_ptr<Model> reference = MakeModel("gat", data, config);
  TrainResult ref_result = TrainModel(*reference, options);
  ASSERT_EQ(ref_result.epochs_run, 12u);
  const std::vector<double>& val = ref_result.val_accuracy_history;
  const size_t best_epoch = static_cast<size_t>(
      std::max_element(val.begin(), val.end()) - val.begin());
  ASSERT_LT(best_epoch, kCheckpointEpoch)
      << "scenario needs the best validation epoch before the checkpoint";

  TrainOptions first_half = options;
  first_half.max_epochs = kCheckpointEpoch;
  first_half.checkpoint_path = path;
  first_half.checkpoint_interval = kCheckpointEpoch;
  std::unique_ptr<Model> interrupted = MakeModel("gat", data, config);
  ASSERT_EQ(TrainModel(*interrupted, first_half).checkpoint_write_failures,
            0u);

  TrainOptions second_half = options;
  second_half.checkpoint_path = path;
  second_half.checkpoint_interval = 1000;  // no further writes
  second_half.resume = true;
  std::unique_ptr<Model> resumed = MakeModel("gat", data, config);
  TrainResult second = TrainModel(*resumed, second_half);
  ASSERT_TRUE(second.resume_status.ok()) << second.resume_status.ToString();
  ASSERT_EQ(second.resumed_from_epoch, kCheckpointEpoch);

  std::vector<ag::Variable> a = reference->Parameters();
  std::vector<ag::Variable> b = resumed->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->value().MaxAbsDiff(b[i]->value()), 0.0f)
        << "parameter " << i << " is not the best-epoch value";
  }
  EXPECT_EQ(second.best_val_accuracy, ref_result.best_val_accuracy);
  EXPECT_EQ(second.test_accuracy, ref_result.test_accuracy);
}

// mean_epoch_time_ms must average over the epochs THIS invocation
// executed: a resumed run only timed the post-resume epochs, and the
// pre-fix code divided their total by the absolute epoch counter
// (pre-resume epochs included), underreporting the mean by the resume
// ratio. The telemetry sink records the exact per-epoch wall times the
// trainer accumulated, so the expected mean is recomputable.
TEST_F(FaultToleranceTest, ResumedRunTimingCoversOnlyExecutedEpochs) {
  Dataset data = LoadDataset("cora", 0.2, 45);
  const std::string path = ::testing::TempDir() + "/timing_resume.ckpt";
  std::remove(path.c_str());

  ModelConfig config = SmallGcnConfig();
  TrainOptions options = BaseOptions();
  options.max_epochs = 6;
  options.checkpoint_path = path;
  options.checkpoint_interval = 6;
  std::unique_ptr<Model> first_model = MakeModel("gcn", data, config);
  TrainResult first = TrainModel(*first_model, options);
  ASSERT_EQ(first.epochs_run, 6u);
  EXPECT_EQ(first.epochs_executed, 6u);

  obs::TelemetryWriter telemetry;
  TrainOptions resume_options = BaseOptions();
  resume_options.max_epochs = 8;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_interval = 1000;  // no further writes
  resume_options.resume = true;
  resume_options.telemetry = &telemetry;
  std::unique_ptr<Model> resumed = MakeModel("gcn", data, config);
  TrainResult second = TrainModel(*resumed, resume_options);
  ASSERT_TRUE(second.resume_status.ok())
      << second.resume_status.ToString();
  ASSERT_EQ(second.resumed_from_epoch, 6u);
  ASSERT_EQ(second.epochs_run, 8u);
  EXPECT_EQ(second.epochs_executed, 2u);

  ASSERT_EQ(telemetry.epochs().size(), 2u);
  double timed_total_ms = 0.0;
  for (const obs::EpochTelemetry& e : telemetry.epochs()) {
    timed_total_ms += e.epoch_time_ms;
  }
  ASSERT_GT(timed_total_ms, 0.0);
  // Divided by the 2 executed epochs, not the absolute count 8.
  EXPECT_DOUBLE_EQ(second.mean_epoch_time_ms, timed_total_ms / 2.0);
}

TEST_F(FaultToleranceTest, ResumeFromCorruptCheckpointStartsFresh) {
  Dataset data = LoadDataset("cora", 0.2, 44);
  const std::string path = ::testing::TempDir() + "/corrupt_resume.ckpt";
  {
    std::ofstream out(path);
    out << "lasagne-checkpoint v2 0123456789abcdef 9999\ngarbage\n";
  }
  TrainOptions options = BaseOptions();
  options.max_epochs = 3;
  options.checkpoint_path = path;
  options.checkpoint_interval = 1000;  // don't overwrite the evidence
  options.resume = true;
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallGcnConfig());
  TrainResult result = TrainModel(*model, options);
  // The corrupt file is reported, the run trains from scratch.
  EXPECT_FALSE(result.resume_status.ok());
  EXPECT_EQ(result.resumed_from_epoch, 0u);
  EXPECT_EQ(result.epochs_run, 3u);
  EXPECT_FALSE(result.diverged);
}

TEST_F(FaultToleranceTest, MissingCheckpointResumeIsNotAnError) {
  Dataset data = LoadDataset("cora", 0.2, 45);
  TrainOptions options = BaseOptions();
  options.max_epochs = 2;
  options.checkpoint_path =
      ::testing::TempDir() + "/never_written_before.ckpt";
  std::remove(options.checkpoint_path.c_str());
  options.resume = true;
  options.checkpoint_interval = 1000;
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallGcnConfig());
  TrainResult result = TrainModel(*model, options);
  EXPECT_TRUE(result.resume_status.ok());
  EXPECT_EQ(result.resumed_from_epoch, 0u);
  EXPECT_EQ(result.epochs_run, 2u);
}

// A mid-training checkpoint write failure (disk full / crash) must not
// kill the run, and the previous checkpoint must stay loadable.
TEST_F(FaultToleranceTest, CheckpointWriteFailureKeepsTrainingAndOldFile) {
  Dataset data = LoadDataset("cora", 0.2, 46);
  const std::string path = ::testing::TempDir() + "/mid_fail.ckpt";
  std::remove(path.c_str());
  TrainOptions options = BaseOptions();
  options.max_epochs = 6;
  options.checkpoint_path = path;
  options.checkpoint_interval = 2;

  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallGcnConfig());
  // Phase 1: two epochs with a healthy periodic write at epoch 2.
  options.max_epochs = 2;
  TrainResult phase1 = TrainModel(*model, options);
  ASSERT_EQ(phase1.checkpoint_write_failures, 0u);
  TrainerState saved_state;
  std::vector<ag::Variable> probe = model->Parameters();
  ASSERT_TRUE(LoadCheckpoint(probe, &saved_state, path).ok());
  ASSERT_EQ(saved_state.next_epoch, 2u);

  FaultInjector::Global().ArmWriteFailure(/*byte_offset=*/128);
  TrainOptions options2 = options;
  options2.max_epochs = 4;
  options2.resume = true;
  std::unique_ptr<Model> model2 = MakeModel("gcn", data, SmallGcnConfig());
  TrainResult phase2 = TrainModel(*model2, options2);
  EXPECT_EQ(phase2.checkpoint_write_failures, 1u);
  EXPECT_FALSE(phase2.diverged);
  EXPECT_EQ(phase2.epochs_run, 4u);

  // The epoch-2 checkpoint survived the torn epoch-4 write.
  TrainerState after;
  ASSERT_TRUE(LoadCheckpoint(probe, &after, path).ok());
  EXPECT_EQ(after.next_epoch, 2u);
  std::remove((path + ".tmp").c_str());
}

TEST_F(FaultToleranceTest, GradientClippingTrainsHealthily) {
  Dataset data = LoadDataset("cora", 0.25, 47);
  TrainOptions options = BaseOptions();
  options.grad_clip_norm = 1.0f;
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallGcnConfig());
  TrainResult result = TrainModel(*model, options);
  EXPECT_FALSE(result.diverged);
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_GT(result.test_accuracy, 0.4);
}

// Per-trial isolation: one diverging attempt inside a repeated
// experiment is retried with a perturbed seed instead of killing (or
// skewing) the whole table.
TEST_F(FaultToleranceTest, RepeatedExperimentRetriesDivergedTrial) {
  Dataset data = LoadDataset("cora", 0.2, 48);
  ModelConfig config = SmallGcnConfig();
  TrainOptions options = BaseOptions();
  options.max_epochs = 12;
  options.max_recoveries = 2;
  // Exactly enough injections to sink trial 0 / attempt 0 (two
  // recoveries + the diverging third hit) and leave every other
  // attempt clean.
  FaultInjector::Global().ArmNanGradient(/*epoch=*/1, /*count=*/3);
  ExperimentResult result =
      RunRepeatedExperiment("gcn", data, config, options, 3);

  EXPECT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.test_accuracy.count, 3u);
  EXPECT_EQ(result.retried_trials, 1u);
  EXPECT_EQ(result.failed_trials, 0u);
  ASSERT_EQ(result.trial_errors.size(), 1u);
  EXPECT_NE(result.trial_errors[0].find("trial 0"), std::string::npos);
  EXPECT_NE(result.trial_errors[0].find("diverged"), std::string::npos);
}

TEST_F(FaultToleranceTest, RepeatedExperimentRecordsUnrecoverableTrial) {
  Dataset data = LoadDataset("cora", 0.2, 49);
  ModelConfig config = SmallGcnConfig();
  TrainOptions options = BaseOptions();
  options.max_epochs = 8;
  options.max_recoveries = 1;
  // Poison epoch 0 forever: every attempt of every trial diverges.
  FaultInjector::Global().ArmNanGradient(/*epoch=*/0, /*count=*/1000000);
  ExperimentResult result =
      RunRepeatedExperiment("gcn", data, config, options, 2);
  EXPECT_EQ(result.runs.size(), 0u);
  EXPECT_EQ(result.failed_trials, 2u);
  EXPECT_EQ(result.test_accuracy.count, 0u);
  // 2 trials x 3 attempts, each recorded.
  EXPECT_EQ(result.trial_errors.size(), 6u);
}

// -- Factory validation (recoverable config errors) ------------------------

TEST(FactoryValidationTest, UnknownNameIsNotFound) {
  Dataset data = LoadDataset("cora", 0.2, 50);
  StatusOr<std::unique_ptr<Model>> model =
      TryMakeModel("not-a-model", data, ModelConfig());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
}

TEST(FactoryValidationTest, BadConfigIsInvalidArgument) {
  Dataset data = LoadDataset("cora", 0.2, 51);
  ModelConfig config;
  config.depth = 0;
  EXPECT_EQ(TryMakeModel("gcn", data, config).status().code(),
            StatusCode::kInvalidArgument);
  config = ModelConfig();
  config.dropout = 1.5f;
  EXPECT_EQ(TryMakeModel("gcn", data, config).status().code(),
            StatusCode::kInvalidArgument);
  config = ModelConfig();
  config.heads = 0;
  EXPECT_EQ(TryMakeModel("gat", data, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FactoryValidationTest, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_EQ(TryMakeModel("gcn", empty, ModelConfig()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FactoryValidationTest, AllKnownNamesValidateWithDefaults) {
  Dataset data = LoadDataset("cora", 0.2, 52);
  for (const std::string& name : KnownModelNames()) {
    EXPECT_TRUE(ValidateModelConfig(name, data, ModelConfig()).ok()) << name;
  }
}

}  // namespace
}  // namespace lasagne
