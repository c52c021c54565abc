// Tests for the tuning stack: objectives, random/grid search, the regression
// forest surrogate, and SMAC itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "src/baselines/autoweka.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/data/binned_columns.h"
#include "src/data/synthetic.h"
#include "src/ml/knn.h"
#include "src/ml/plsda.h"
#include "src/ml/registry.h"
#include "src/obs/metrics.h"
#include "src/tuning/genetic.h"
#include "src/tuning/objective.h"
#include "src/tuning/random_search.h"
#include "src/tuning/smac.h"

namespace smartml {
namespace {

// A cheap synthetic objective: a smooth 2-D bowl with minimum at
// (x, y) = (0.3, 0.7), identical on every "fold".
class BowlObjective : public TuningObjective {
 public:
  explicit BowlObjective(size_t folds = 3) : folds_(folds) {}
  size_t NumFolds() const override { return folds_; }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    ++evaluations_;
    const double x = config.GetDouble("x", 0.0);
    const double y = config.GetDouble("y", 0.0);
    const double dx = x - 0.3, dy = y - 0.7;
    // Slight per-fold offset keeps racing honest.
    return dx * dx + dy * dy + 0.001 * static_cast<double>(fold);
  }
  size_t evaluations() const { return evaluations_; }

 private:
  size_t folds_;
  size_t evaluations_ = 0;
};

ParamSpace BowlSpace() {
  ParamSpace space;
  space.AddDouble("x", 0.0, 1.0, 0.0);
  space.AddDouble("y", 0.0, 1.0, 0.0);
  return space;
}

// ---------------------------------------------------------------------------
// ClassifierObjective
// ---------------------------------------------------------------------------

TEST(ObjectiveTest, HoldoutModeHasOneFold) {
  SyntheticSpec spec;
  spec.num_instances = 80;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 1, 5);
  ASSERT_TRUE(objective.ok());
  EXPECT_EQ((*objective)->NumFolds(), 1u);
}

TEST(ObjectiveTest, KFoldModeCreatesFolds) {
  SyntheticSpec spec;
  spec.num_instances = 90;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 3, 5);
  ASSERT_TRUE(objective.ok());
  EXPECT_EQ((*objective)->NumFolds(), 3u);
}

TEST(ObjectiveTest, CostInUnitInterval) {
  SyntheticSpec spec;
  spec.num_instances = 100;
  spec.class_sep = 3.0;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 7);
  ASSERT_TRUE(objective.ok());
  auto cost = (*objective)->EvaluateFold(KnnClassifier::Space().DefaultConfig(),
                                         0);
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(*cost, 0.0);
  EXPECT_LE(*cost, 1.0);
  EXPECT_LT(*cost, 0.3);  // Easy problem.
}

TEST(ObjectiveTest, OutOfRangeFoldRejected) {
  SyntheticSpec spec;
  spec.num_instances = 60;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 7);
  ASSERT_TRUE(objective.ok());
  EXPECT_FALSE((*objective)
                   ->EvaluateFold(KnnClassifier::Space().DefaultConfig(), 5)
                   .ok());
}

// ---------------------------------------------------------------------------
// Random search / grid search
// ---------------------------------------------------------------------------

TEST(RandomSearchTest, FindsNearOptimum) {
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 200;
  options.seed = 3;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 0.02);
  EXPECT_NEAR(result->best_config.GetDouble("x", 0), 0.3, 0.25);
}

TEST(RandomSearchTest, RespectsEvaluationBudget) {
  BowlObjective objective(2);
  SearchOptions options;
  options.max_evaluations = 21;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 21u);
  EXPECT_EQ(result->num_evaluations, 21u);
}

TEST(RandomSearchTest, WarmStartEvaluatedFirst) {
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 1;  // Only the warm start gets evaluated.
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);
  options.initial_configs = {warm};
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 1e-9);
}

TEST(RandomSearchTest, TrajectoryIsMonotoneNonIncreasing) {
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 60;
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->trajectory.size(); ++i) {
    EXPECT_LE(result->trajectory[i], result->trajectory[i - 1] + 1e-12);
  }
}

TEST(GridSearchTest, CoversTheGrid) {
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 10000;
  auto result = GridSearch(BowlSpace(), &objective, options, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 25u);  // 5 x 5 grid.
  EXPECT_LT(result->best_cost, 0.06);
}

TEST(GridSearchTest, EnumeratesCategoricals) {
  ParamSpace space;
  space.AddCategorical("mode", {"a", "b", "c"}, "a");
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 100;
  auto result = GridSearch(space, &objective, options, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(objective.evaluations(), 3u);
}

// ---------------------------------------------------------------------------
// RegressionForest
// ---------------------------------------------------------------------------

TEST(RegressionForestTest, FitsSmoothFunction) {
  Rng rng(5);
  const size_t n = 300;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x(i, 0)) + x(i, 1) * x(i, 1);
  }
  RegressionForest forest;
  RegressionForest::Options options;
  options.num_trees = 20;
  ASSERT_TRUE(forest.Fit(x, y, options).ok());
  // R^2 on training data should be high.
  double ss_res = 0, ss_tot = 0, mean = 0;
  for (double v : y) mean += v;
  mean /= n;
  for (size_t i = 0; i < n; ++i) {
    const auto p = forest.Predict({x(i, 0), x(i, 1)});
    ss_res += (p.mean - y[i]) * (p.mean - y[i]);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  EXPECT_GT(1.0 - ss_res / ss_tot, 0.8);
}

TEST(RegressionForestTest, VarianceHigherOffData) {
  Rng rng(7);
  const size_t n = 120;
  Matrix x(n, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(0.0, 0.4);  // Data only in [0, 0.4].
    y[i] = x(i, 0) + 0.05 * rng.Normal();
  }
  RegressionForest forest;
  ASSERT_TRUE(forest.Fit(x, y, {}).ok());
  const auto near = forest.Predict({0.2});
  EXPECT_TRUE(std::isfinite(near.mean));
  EXPECT_GE(near.variance, 0.0);
}

TEST(RegressionForestTest, RejectsBadInput) {
  RegressionForest forest;
  Matrix x(3, 1);
  EXPECT_FALSE(forest.Fit(x, {1.0, 2.0}, {}).ok());
  EXPECT_FALSE(forest.Fit(Matrix(), {}, {}).ok());
}

// ---------------------------------------------------------------------------
// SMAC
// ---------------------------------------------------------------------------

TEST(SmacTest, FindsNearOptimumOnBowl) {
  BowlObjective objective(1);
  SmacOptions options;
  options.max_evaluations = 120;
  options.seed = 11;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->best_cost, 0.01);
}

TEST(SmacTest, BeatsRandomSearchOnAverage) {
  // Same budget; SMAC's model-based proposals should reach a lower cost on
  // most seeds of a smooth objective.
  int smac_wins = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    BowlObjective smac_objective(1);
    SmacOptions smac_options;
    smac_options.max_evaluations = 60;
    smac_options.seed = 100 + t;
    auto smac_result = Smac(BowlSpace(), &smac_objective, smac_options);
    ASSERT_TRUE(smac_result.ok());

    BowlObjective rs_objective(1);
    SearchOptions rs_options;
    rs_options.max_evaluations = 60;
    rs_options.seed = 100 + t;
    auto rs_result = RandomSearch(BowlSpace(), &rs_objective, rs_options);
    ASSERT_TRUE(rs_result.ok());

    if (smac_result->best_cost <= rs_result->best_cost) ++smac_wins;
  }
  EXPECT_GE(smac_wins, 3) << "SMAC should win most seeds";
}

TEST(SmacTest, RespectsEvaluationBudget) {
  BowlObjective objective(3);
  SmacOptions options;
  options.max_evaluations = 40;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 40u);
  EXPECT_EQ(result->num_evaluations, objective.evaluations());
}

TEST(SmacTest, WarmStartDominatesColdAtTinyBudget) {
  // With a budget of 3 evaluations, a warm start at the optimum must win.
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);

  BowlObjective cold_objective(1);
  SmacOptions cold;
  cold.max_evaluations = 3;
  cold.seed = 5;
  auto cold_result = Smac(BowlSpace(), &cold_objective, cold);
  ASSERT_TRUE(cold_result.ok());

  BowlObjective warm_objective(1);
  SmacOptions warm_options;
  warm_options.max_evaluations = 3;
  warm_options.seed = 5;
  warm_options.initial_configs = {warm};
  auto warm_result = Smac(BowlSpace(), &warm_objective, warm_options);
  ASSERT_TRUE(warm_result.ok());

  EXPECT_LT(warm_result->best_cost, cold_result->best_cost);
  EXPECT_LT(warm_result->best_cost, 1e-9);
}

TEST(SmacTest, IntensificationRacesAcrossFolds) {
  BowlObjective objective(4);
  SmacOptions options;
  options.max_evaluations = 80;
  options.seed = 13;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  // The incumbent must have been measured on multiple folds: best_cost
  // includes the per-fold offsets, so it exceeds the single-fold floor.
  EXPECT_LT(result->best_cost, 0.05);
}

TEST(SmacTest, TrajectoryMonotoneNonIncreasing) {
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 60;
  options.seed = 17;
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trajectory.empty());
  for (size_t i = 1; i < result->trajectory.size(); ++i) {
    EXPECT_LE(result->trajectory[i], result->trajectory[i - 1] + 0.002);
  }
}

TEST(SmacTest, HandlesConditionalSpaces) {
  // A space where y only matters when mode=on; SMAC must still find x=0.3.
  ParamSpace space;
  space.AddDouble("x", 0.0, 1.0, 0.0);
  space.AddCategorical("mode", {"on", "off"}, "off");
  space.AddDouble("y", 0.0, 1.0, 0.5);
  space.Condition("y", "mode", {"on"});

  class CondObjective : public TuningObjective {
   public:
    size_t NumFolds() const override { return 1; }
    StatusOr<double> EvaluateFold(const ParamConfig& config,
                                  size_t) override {
      const double x = config.GetDouble("x", 0.0);
      double cost = (x - 0.3) * (x - 0.3);
      if (config.GetChoice("mode", "off") == "on") {
        const double y = config.GetDouble("y", 0.5);
        cost += 0.5 * (y - 0.9) * (y - 0.9);
      }
      return cost;
    }
  } objective;

  SmacOptions options;
  options.max_evaluations = 80;
  options.seed = 19;
  auto result = Smac(space, &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->best_cost, 0.02);
}

TEST(SmacTest, RejectsNullObjective) {
  SmacOptions options;
  EXPECT_FALSE(Smac(BowlSpace(), nullptr, options).ok());
}

TEST(SmacTest, DeadlineStopsTheRun) {
  // An already-expired deadline: only minimal work may happen.
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 100000;
  options.deadline = Deadline::After(0.0);
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 2u);
}

TEST(RandomSearchTest, DeadlineStopsTheRun) {
  BowlObjective objective(1);
  SearchOptions options;
  options.max_evaluations = 100000;
  options.deadline = Deadline::After(0.0);
  auto result = RandomSearch(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(objective.evaluations(), 1u);
}

TEST(ObjectiveTest, CrashingConfigCostsMaximum) {
  // A config the classifier rejects must evaluate to cost 1.0 rather than
  // aborting the whole tuning run (SMAC must route around bad configs).
  SyntheticSpec spec;
  spec.num_instances = 60;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 1, 3);
  ASSERT_TRUE(objective.ok());
  ParamConfig empty_dataset_trigger;  // k is fine; craft a failing fit via
  // an impossible schema is not reachable here, so emulate with an
  // out-of-range k repaired internally — the contract stays: evaluation
  // never returns an error for config content.
  empty_dataset_trigger.SetInt("k", 1000000);
  auto cost = (*objective)->EvaluateFold(empty_dataset_trigger, 0);
  ASSERT_TRUE(cost.ok());
  EXPECT_GE(*cost, 0.0);
  EXPECT_LE(*cost, 1.0);
}

// Fails its fit or its predict on demand ("mode" = "fit", "predict",
// "cancel"), otherwise predicts class 0.
class ScriptedFailureClassifier : public Classifier {
 public:
  std::string name() const override { return "scripted_failure_probe"; }
  Status Fit(const Dataset& train, const ParamConfig& config) override {
    mode_ = config.GetChoice("mode", "ok");
    num_classes_ = train.NumClasses();
    if (mode_ == "fit") return Status::Internal("scripted fit failure");
    if (mode_ == "cancel") return Status::Cancelled("scripted cancel");
    return Status::OK();
  }
  StatusOr<std::vector<std::vector<double>>> PredictProba(
      const Dataset& data) const override {
    if (mode_ == "predict") return Status::Internal("scripted failure");
    std::vector<double> row(num_classes_, 0.0);
    row[0] = 1.0;
    return std::vector<std::vector<double>>(data.NumRows(), row);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<ScriptedFailureClassifier>();
  }

 private:
  std::string mode_;
  size_t num_classes_ = 0;
};

TEST(ObjectiveTest, FailedEvaluationsAreCountedAndTimed) {
  SyntheticSpec spec;
  spec.num_instances = 60;
  const Dataset d = GenerateSynthetic(spec);
  ScriptedFailureClassifier prototype;
  auto objective = ClassifierObjective::Create(prototype, d, 2, 3);
  ASSERT_TRUE(objective.ok());
  MetricsRegistry& registry = GlobalMetrics();
  const MetricLabels fit_labels = {{"algorithm", prototype.name()},
                                   {"reason", "fit"}};
  const MetricLabels predict_labels = {{"algorithm", prototype.name()},
                                       {"reason", "predict"}};
  Counter* fit_failures =
      registry.GetCounter("smartml_evaluations_failed_total", "", fit_labels);
  Counter* predict_failures = registry.GetCounter(
      "smartml_evaluations_failed_total", "", predict_labels);
  Histogram* fit_seconds = registry.GetHistogram(
      "smartml_eval_seconds", "", LatencyBuckets(),
      {{"algorithm", prototype.name()}, {"stage", "fit"}});
  Histogram* predict_seconds = registry.GetHistogram(
      "smartml_eval_seconds", "", LatencyBuckets(),
      {{"algorithm", prototype.name()}, {"stage", "predict"}});
  const uint64_t fits_before = fit_seconds->TotalCount();
  const uint64_t predicts_before = predict_seconds->TotalCount();

  auto evaluate = [&](const char* mode) {
    ParamConfig config;
    config.SetChoice("mode", mode);
    return (*objective)->EvaluateFold(config, 0);
  };
  auto ok = evaluate("ok");
  ASSERT_TRUE(ok.ok());
  EXPECT_LT(*ok, 1.0);
  EXPECT_EQ((*objective)->num_failed_evaluations(), 0u);

  auto fit_failed = evaluate("fit");
  ASSERT_TRUE(fit_failed.ok());
  EXPECT_EQ(*fit_failed, 1.0);
  EXPECT_EQ(fit_failures->Value(), 1u);
  EXPECT_EQ(predict_failures->Value(), 0u);

  auto predict_failed = evaluate("predict");
  ASSERT_TRUE(predict_failed.ok());
  EXPECT_EQ(*predict_failed, 1.0);
  EXPECT_EQ(predict_failures->Value(), 1u);
  EXPECT_EQ((*objective)->num_failed_evaluations(), 2u);

  // Cancellation tears the run down; it is not a failed configuration.
  auto cancelled = evaluate("cancel");
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(fit_failures->Value(), 1u);
  EXPECT_EQ((*objective)->num_failed_evaluations(), 2u);

  // Every fit is timed; predicts run only after a fit succeeded.
  EXPECT_EQ(fit_seconds->TotalCount() - fits_before, 4u);
  EXPECT_EQ(predict_seconds->TotalCount() - predicts_before, 2u);
}

TEST(SmacTest, ManyDuplicateWarmStartsDeduplicated) {
  BowlObjective objective(2);
  SmacOptions options;
  options.max_evaluations = 10;
  ParamConfig warm;
  warm.SetDouble("x", 0.3);
  warm.SetDouble("y", 0.7);
  options.initial_configs = {warm, warm, warm, warm};
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  // Duplicates share one record: the same (config, fold) pair is never
  // evaluated twice, so with 2 folds the warm start costs at most 2 evals
  // of the total spent.
  EXPECT_LT(result->best_cost, 0.01);
}

TEST(SmacTest, EndToEndOnRealClassifier) {
  SyntheticSpec spec;
  spec.num_instances = 120;
  spec.num_informative = 4;
  spec.class_sep = 1.2;
  spec.seed = 23;
  const Dataset d = GenerateSynthetic(spec);
  KnnClassifier knn;
  auto objective = ClassifierObjective::Create(knn, d, 2, 29);
  ASSERT_TRUE(objective.ok());
  SmacOptions options;
  options.max_evaluations = 30;
  options.seed = 29;
  auto result = Smac(KnnClassifier::Space(), objective->get(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->best_config.GetInt("k", 0), 1);
  EXPECT_LT(result->best_cost, 0.5);
}

// ---------------------------------------------------------------------------
// Identity oracles for the presorted surrogate and the flat EI search
// ---------------------------------------------------------------------------

// The sort-per-node regression forest RegressionForest replaced, kept as the
// oracle: a node gathers its bootstrap rows' (x, y) pairs and sorts them for
// every sampled feature.
class SortPerNodeForest {
 public:
  void Fit(const Matrix& x, const std::vector<double>& y,
           const RegressionForest::Options& options) {
    options_ = options;
    trees_.assign(static_cast<size_t>(std::max(1, options.num_trees)), {});
    Rng rng(options.seed);
    for (auto& tree : trees_) {
      std::vector<size_t> rows(x.rows());
      for (size_t& r : rows) r = rng.UniformInt(x.rows());
      BuildNode(&tree, x, y, rows, 0, &rng);
    }
  }

  RegressionForest::Prediction Predict(const std::vector<double>& row) const {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& tree : trees_) {
      size_t index = 0;
      while (!tree[index].leaf) {
        index = static_cast<size_t>(row[static_cast<size_t>(
                                        tree[index].feature)] <=
                                            tree[index].threshold
                                        ? tree[index].left
                                        : tree[index].right);
      }
      sum += tree[index].value;
      sum_sq += tree[index].value * tree[index].value;
    }
    RegressionForest::Prediction out;
    const double n = static_cast<double>(trees_.size());
    out.mean = sum / n;
    out.variance = std::max(0.0, sum_sq / n - out.mean * out.mean);
    return out;
  }

 private:
  struct Node {
    bool leaf = true;
    int feature = -1;
    double threshold = 0.0;
    int left = -1, right = -1;
    double value = 0.0;
  };
  using Tree = std::vector<Node>;

  int BuildNode(Tree* tree, const Matrix& x, const std::vector<double>& y,
                const std::vector<size_t>& rows, int depth, Rng* rng) const {
    const int index = static_cast<int>(tree->size());
    tree->emplace_back();
    double sum = 0.0;
    for (size_t r : rows) sum += y[r];
    const double mean = sum / static_cast<double>(rows.size());
    tree->back().value = mean;
    if (depth >= options_.max_depth || rows.size() < 2 * options_.min_leaf) {
      return index;
    }
    double sse = 0.0;
    for (size_t r : rows) sse += (y[r] - mean) * (y[r] - mean);
    if (sse < 1e-14) return index;
    const size_t d = x.cols();
    std::vector<size_t> features(d);
    std::iota(features.begin(), features.end(), size_t{0});
    rng->Shuffle(&features);
    features.resize(std::max<size_t>(
        1, static_cast<size_t>(options_.feature_fraction *
                               static_cast<double>(d))));
    double best_gain = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, double>> vals(rows.size());
    for (size_t f : features) {
      for (size_t i = 0; i < rows.size(); ++i) {
        vals[i] = {x(rows[i], f), y[rows[i]]};
      }
      std::sort(vals.begin(), vals.end());
      double left_sum = 0.0, left_sq = 0.0, right_sum = 0.0, right_sq = 0.0;
      for (const auto& [xv, yv] : vals) {
        right_sum += yv;
        right_sq += yv * yv;
      }
      const size_t n = vals.size();
      for (size_t i = 0; i + 1 < n; ++i) {
        const double yv = vals[i].second;
        left_sum += yv;
        left_sq += yv * yv;
        right_sum -= yv;
        right_sq -= yv * yv;
        if (vals[i].first == vals[i + 1].first) continue;
        const size_t nl = i + 1, nr = n - nl;
        if (nl < options_.min_leaf || nr < options_.min_leaf) continue;
        const double gain =
            sse - (left_sq - left_sum * left_sum / static_cast<double>(nl)) -
            (right_sq - right_sum * right_sum / static_cast<double>(nr));
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = SplitMidpoint(vals[i].first, vals[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return index;
    std::vector<size_t> left_rows, right_rows;
    for (size_t r : rows) {
      (x(r, static_cast<size_t>(best_feature)) <= best_threshold ? left_rows
                                                                 : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return index;
    (*tree)[static_cast<size_t>(index)].leaf = false;
    (*tree)[static_cast<size_t>(index)].feature = best_feature;
    (*tree)[static_cast<size_t>(index)].threshold = best_threshold;
    const int left = BuildNode(tree, x, y, left_rows, depth + 1, rng);
    (*tree)[static_cast<size_t>(index)].left = left;
    const int right = BuildNode(tree, x, y, right_rows, depth + 1, rng);
    (*tree)[static_cast<size_t>(index)].right = right;
    return index;
  }

  std::vector<Tree> trees_;
  RegressionForest::Options options_;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// An encoded-config-like training set: numeric columns snapped to a coarse
// grid (ties), categorical codes, columns set to -1 where a "parent"
// categorical switches them off, duplicated rows, and tied targets.
void MakeSurrogateData(size_t n, size_t d, uint64_t seed, Matrix* x,
                       std::vector<double>* y) {
  Rng rng(seed);
  *x = Matrix(n, d);
  y->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i >= 3 && rng.Bernoulli(0.15)) {  // Duplicate an earlier row.
      const size_t src = rng.UniformInt(i);
      for (size_t j = 0; j < d; ++j) (*x)(i, j) = (*x)(src, j);
      (*y)[i] = (*y)[src];
      continue;
    }
    for (size_t j = 0; j < d; ++j) {
      switch (j % 4) {
        case 0:
          (*x)(i, j) = static_cast<double>(rng.UniformInt(3));  // Choice.
          break;
        case 1:
          (*x)(i, j) = rng.Uniform();
          break;
        case 2:
          (*x)(i, j) = std::round(rng.Uniform() * 8.0) / 8.0;
          break;
        default:
          (*x)(i, j) = (*x)(i, 0) == 0.0 ? -1.0 : rng.Uniform();
      }
    }
    const double t = (*x)(i, d > 1 ? 1 : 0) - 0.3 * (*x)(i, 0);
    (*y)[i] = rng.Bernoulli(0.3) ? std::round(t * 4.0) / 4.0
                                 : t * t + 0.05 * rng.Uniform();
  }
}

TEST(SurrogateOracleTest, PresortedFitPredictsLikeSortPerNode) {
  struct Case {
    size_t n, d;
    size_t min_leaf;
    int max_depth;
    double feature_fraction;
  };
  const Case cases[] = {
      {4, 1, 1, 24, 0.8},    {4, 3, 1, 24, 1.0},   {7, 2, 3, 24, 0.8},
      {30, 5, 1, 24, 0.5},   {30, 8, 3, 3, 0.8},   {200, 2, 3, 24, 0.8},
      {200, 8, 1, 24, 1.0},  {800, 8, 3, 24, 0.8}, {800, 5, 2, 6, 0.5},
      {1500, 8, 3, 24, 0.8},
  };
  uint64_t seed = 1;
  for (const Case& c : cases) {
    for (int rep = 0; rep < 2; ++rep, ++seed) {
      Matrix x;
      std::vector<double> y;
      MakeSurrogateData(c.n, c.d, seed, &x, &y);
      RegressionForest::Options options;
      options.min_leaf = c.min_leaf;
      options.max_depth = c.max_depth;
      options.feature_fraction = c.feature_fraction;
      options.seed = seed * 7919;
      RegressionForest forest;
      ASSERT_TRUE(forest.Fit(x, y, options).ok());
      SortPerNodeForest oracle;
      oracle.Fit(x, y, options);

      // Training rows, then fresh rows from the same generator.
      Matrix probe;
      std::vector<double> unused;
      MakeSurrogateData(64, c.d, seed + 1000, &probe, &unused);
      for (const Matrix* m : {&x, &probe}) {
        for (size_t i = 0; i < m->rows(); ++i) {
          const std::vector<double> row(m->RowPtr(i), m->RowPtr(i) + c.d);
          const auto got = forest.Predict(m->RowPtr(i));
          const auto want = oracle.Predict(row);
          ASSERT_EQ(Bits(got.mean), Bits(want.mean))
              << "n=" << c.n << " d=" << c.d << " seed=" << seed
              << " row " << i;
          ASSERT_EQ(Bits(got.variance), Bits(want.variance))
              << "n=" << c.n << " d=" << c.d << " seed=" << seed
              << " row " << i;
          const auto by_vector = forest.Predict(row);
          ASSERT_EQ(Bits(by_vector.mean), Bits(got.mean));
        }
      }
    }
  }
}

// A deterministic synthetic cost over every value of a config, so each
// learner space gets a landscape with structure in all its parameters.
class SyntheticSpaceObjective : public TuningObjective {
 public:
  explicit SyntheticSpaceObjective(size_t folds) : folds_(folds) {}
  size_t NumFolds() const override { return folds_; }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override {
    double cost = 0.01 * static_cast<double>(fold);
    size_t i = 0;
    for (const auto& [key, value] : config.values()) {
      double v = 0.0;
      if (const double* dv = std::get_if<double>(&value)) {
        v = *dv;
      } else if (const int64_t* iv = std::get_if<int64_t>(&value)) {
        v = static_cast<double>(*iv);
      } else {
        const std::string& choice = std::get<std::string>(value);
        v = static_cast<double>(choice.size() % 5) +
            static_cast<double>(static_cast<unsigned char>(choice[0]) % 3);
      }
      const double t = v / (1.0 + std::fabs(v));
      const double target =
          0.1 * static_cast<double>((i * 7 + key.size()) % 10) - 0.2;
      cost += (t - target) * (t - target) / (1.0 + static_cast<double>(i));
      ++i;
    }
    return cost / (1.0 + cost);
  }

 private:
  size_t folds_;
};

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct GoldenSearch {
  const char* space;
  size_t folds;
  size_t evaluations;
  size_t trajectory_size;
  uint64_t trajectory_hash;  // FNV-1a of the trajectory's bit patterns.
  uint64_t config_hash;      // FNV-1a of best_config.ToString().
  const char* best_cost;     // %a.
};

// Recorded with the sort-per-node surrogate and ParamConfig-map EI search
// (glibc libm, x86-64). The searches must reproduce them exactly.
const GoldenSearch kGoldenSearches[] = {
    {"svm", 1, 300, 300, 0x9f6aee01a05eb32cULL, 0x9acf59403b686590ULL,
     "0x1.c567fb5cd2946p-3"},
    {"svm", 3, 300, 300, 0x3e534483a7bc615fULL, 0x62aa706a8cb2dcf7ULL,
     "0x1.cd41bf58e495cp-3"},
    {"naive_bayes", 1, 300, 300, 0x29057bcedc0b4c73ULL, 0x705d98d543403777ULL,
     "0x1.77f0e2856cb1bp-16"},
    {"naive_bayes", 3, 300, 300, 0x446a21533480996fULL, 0xe32eaf253f011e20ULL,
     "0x1.4a8c78adb7ea3p-7"},
    {"knn", 1, 33, 33, 0x46f9d39fee1e4231ULL, 0x716f50d648a3e8c0ULL,
     "0x1.0f0f0f0f0f0f1p-2"},
    {"knn", 3, 33, 33, 0x48f1b6f090adb23dULL, 0x716f50d648a3e8c0ULL,
     "0x1.148737bbe4146p-2"},
    {"bagging", 1, 300, 300, 0x1c0b40d1997814a5ULL, 0x5d3f3cee82b62f0aULL,
     "0x1.a99575057b9cbp-3"},
    {"bagging", 3, 300, 300, 0xe4c17779f24f9019ULL, 0x5d3f3cee82b62f0aULL,
     "0x1.b644eaef503b7p-3"},
    {"part", 1, 300, 300, 0x91417df321ebb8e9ULL, 0x33c6da8e7104cf20ULL,
     "0x1.0d964e22b7e84p-2"},
    {"part", 3, 300, 300, 0x1313c250ec51c59eULL, 0x33c6da8e7104cf20ULL,
     "0x1.1313e8e4a1d79p-2"},
    {"j48", 1, 300, 300, 0x8cca83b6c9a104a9ULL, 0xf350a51c24e0ff13ULL,
     "0x1.88d8856cfa781p-3"},
    {"j48", 3, 300, 300, 0xeb451a15903c4218ULL, 0xf350a51c24e0ff13ULL,
     "0x1.960b79c269f3bp-3"},
    {"random_forest", 1, 300, 300, 0x342d428765ec6045ULL, 0x82cbe80fa3c75e55ULL,
     "0x1.1c40de31c2959p-4"},
    {"random_forest", 3, 300, 300, 0x87cae4f037ad0d0aULL, 0x82cbe80fa3c75e55ULL,
     "0x1.3f2f396b39ba7p-4"},
    {"c50", 1, 300, 300, 0x6fdb057104092250ULL, 0x7bab5f0f2e633f3bULL,
     "0x1.76e9c455e4f47p-2"},
    {"c50", 3, 300, 300, 0x36591c0980f9d4a3ULL, 0x314cf0f0256ae02fULL,
     "0x1.7afc0c9b5ac6bp-2"},
    {"rpart", 1, 300, 300, 0xe2d8571d923ab68aULL, 0xb05134d5f55101a6ULL,
     "0x1.b9938483f971cp-4"},
    {"rpart", 3, 300, 300, 0xf136af84caae2052ULL, 0xb05134d5f55101a6ULL,
     "0x1.d9b41ee0dd284p-4"},
    {"lda", 1, 300, 300, 0x9f8bdca964875006ULL, 0x225f7db11f302ab3ULL,
     "0x1.56074d1833a77p-4"},
    {"lda", 3, 300, 300, 0xb50ac5d22ba9bbcdULL, 0x3a8f045d6f95215eULL,
     "0x1.77eaa304125e5p-4"},
    {"plsda", 1, 16, 16, 0x3a102487e23c7c29ULL, 0xeff2c21a41d7a456ULL,
     "0x1.a2e2722aea00dp-5"},
    {"plsda", 3, 16, 16, 0xc733736fb20cf75cULL, 0x957ef67be363f35dULL,
     "0x1.31f77eac2c841p-3"},
    {"lmt", 1, 77, 77, 0x325a4ced4f09d3baULL, 0x714911ad330e02b6ULL,
     "0x1.dcbb4993c3314p-2"},
    {"lmt", 3, 77, 77, 0xd25465898275d8cdULL, 0x714911ad330e02b6ULL,
     "0x1.dfa17031b448cp-2"},
    {"rda", 1, 300, 300, 0x0d87a02e7f93352cULL, 0x748e250f905e1272ULL,
     "0x1.272def391da53p-17"},
    {"rda", 3, 300, 300, 0x07279c1db831d17cULL, 0xccc593174ebd7f6eULL,
     "0x1.4c8ff45f4080fp-7"},
    {"neuralnet", 1, 26, 26, 0x4b691bee2ef4252aULL, 0x624bb2eb357a57deULL,
     "0x1.5233ab7315233p-4"},
    {"neuralnet", 3, 26, 26, 0x160eaba7eb96b2d6ULL, 0x624bb2eb357a57deULL,
     "0x1.742890dbfffcbp-4"},
    {"deepboost", 1, 300, 300, 0xa41cb4c2abdf4f65ULL, 0xf3569fbe08120294ULL,
     "0x1.05be71698fc5cp-3"},
    {"deepboost", 3, 300, 300, 0xac3e9c7ca1dd230dULL, 0x48dc3be6519b20aeULL,
     "0x1.14b858d7b04b7p-3"},
    {"cash", 1, 300, 300, 0x17d6cc9b95ba3400ULL, 0x91c8d47869171422ULL,
     "0x1.082163968759dp-1"},
    {"cash", 3, 300, 300, 0x06593df3331405b8ULL, 0x0d192dad3fe8938aULL,
     "0x1.1450438dda224p-1"},
};

// Looks up (name, folds) in `table` and checks `result` against its digest;
// the failure message carries the actual row, ready to paste.
template <size_t N>
void ExpectGolden(const GoldenSearch (&table)[N], const std::string& name,
                  size_t folds, const TunedResult& result) {
  uint64_t trajectory_hash = 14695981039346656037ULL;
  for (const double v : result.trajectory) {
    const uint64_t bits = Bits(v);
    trajectory_hash = Fnv1a(trajectory_hash, &bits, sizeof(bits));
  }
  const std::string config = result.best_config.ToString();
  const uint64_t config_hash =
      Fnv1a(14695981039346656037ULL, config.data(), config.size());
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%a", result.best_cost);
  const GoldenSearch* golden = nullptr;
  for (const GoldenSearch& g : table) {
    if (name == g.space && folds == g.folds) golden = &g;
  }
  const std::string actual = StrFormat(
      "{\"%s\", %zu, %zu, %zu, 0x%016llxULL, 0x%016llxULL, \"%s\"},",
      name.c_str(), folds, result.num_evaluations, result.trajectory.size(),
      static_cast<unsigned long long>(trajectory_hash),
      static_cast<unsigned long long>(config_hash), cost);
  ASSERT_NE(golden, nullptr) << "no golden for " << actual;
  EXPECT_EQ(result.num_evaluations, golden->evaluations) << actual;
  EXPECT_EQ(result.trajectory.size(), golden->trajectory_size) << actual;
  EXPECT_EQ(trajectory_hash, golden->trajectory_hash) << actual;
  EXPECT_EQ(config_hash, golden->config_hash) << actual;
  EXPECT_STREQ(cost, golden->best_cost) << actual;
}

TEST(SmacGoldenTest, SearchesMatchRecordedTrajectories) {
  std::vector<std::pair<std::string, ParamSpace>> spaces;
  for (const std::string& name : AllAlgorithmNames()) {
    auto space = SpaceFor(name);
    ASSERT_TRUE(space.ok());
    spaces.emplace_back(name, *space);
  }
  auto joint = BuildCashSpace(AllAlgorithmNames());
  ASSERT_TRUE(joint.ok());
  spaces.emplace_back("cash", *joint);
  size_t checked = 0;
  for (size_t s = 0; s < spaces.size(); ++s) {
    const auto& [name, space] = spaces[s];
    // Caps stay below the size of the finite spaces.
    const uint64_t finite = space.FiniteSize();
    const int cap = finite == 0 ? 300 : static_cast<int>(finite * 2 / 3);
    for (size_t folds : {size_t{1}, size_t{3}}) {
      SyntheticSpaceObjective objective(folds);
      SmacOptions options;
      options.max_evaluations = cap;
      options.seed = 1000 + 2 * s + folds;
      auto result = Smac(space, &objective, options);
      ASSERT_TRUE(result.ok()) << name;
      ExpectGolden(kGoldenSearches, name, folds, *result);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 32u);
}

// Random search and the genetic tuner on the same synthetic landscapes. No
// other test pins their trajectories, so a rework of either search loop must
// reproduce these exactly (glibc libm, x86-64).
const GoldenSearch kGoldenRandomSearches[] = {
    {"svm", 1, 300, 300, 0x2378fe68538dbc29ULL, 0x29f0d2784cad1077ULL,
     "0x1.2123e89b2b966p-2"},
    {"svm", 3, 300, 300, 0xaae880157481a0c6ULL, 0x1fca915c9a95e591ULL,
     "0x1.1a74da38257fdp-2"},
    {"knn", 1, 33, 33, 0x5587a6faf816a5faULL, 0x716f50d648a3e8c0ULL,
     "0x1.0f0f0f0f0f0f1p-2"},
    {"knn", 3, 33, 33, 0x540832f312af31dcULL, 0x716f50d648a3e8c0ULL,
     "0x1.148737bbe4146p-2"},
    {"random_forest", 1, 300, 300, 0x958358343da22b1eULL, 0xb7dc1578dbf29e4eULL,
     "0x1.489a873c63b45p-4"},
    {"random_forest", 3, 300, 300, 0xe17daa59058e0588ULL, 0x0d03b8eaa90a3f26ULL,
     "0x1.91968c3de6747p-4"},
    {"c50", 1, 300, 300, 0xe51d2e8b61bb6abaULL, 0x67b1d0bdb3ce6bf1ULL,
     "0x1.76f650d5a4cffp-2"},
    {"c50", 3, 300, 300, 0xf2a34d6145f81e08ULL, 0x2d7d361dd451d1ceULL,
     "0x1.7b053d0478485p-2"},
    {"cash", 1, 300, 300, 0x0ca4a780fff593ccULL, 0xffdc126d6c09fc02ULL,
     "0x1.18783f95058cap-1"},
    {"cash", 3, 300, 300, 0x20bac456b99558d9ULL, 0xf3251c953d612905ULL,
     "0x1.18569e9ad4275p-1"},
};

const GoldenSearch kGoldenGeneticSearches[] = {
    {"svm", 1, 300, 300, 0x9f627cec2dd62e5eULL, 0x88d6304161839208ULL,
     "0x1.c091e11c9ce6ep-3"},
    {"svm", 3, 300, 300, 0x5048603c34b77544ULL, 0x014c370801a5af7aULL,
     "0x1.cd1049f61ab83p-3"},
    {"knn", 1, 33, 33, 0x2ffb55bf1811df3dULL, 0x716f50d648a3e8c0ULL,
     "0x1.0f0f0f0f0f0f1p-2"},
    {"knn", 3, 33, 33, 0x387792c3375ef841ULL, 0x716f50d648a3e8c0ULL,
     "0x1.148737bbe4146p-2"},
    {"random_forest", 1, 300, 300, 0x5e10b1d804667bfcULL, 0x82cbe80fa3c75e55ULL,
     "0x1.1c40de31c2959p-4"},
    {"random_forest", 3, 300, 300, 0xa3b6c70c6f994399ULL, 0x82cbe80fa3c75e55ULL,
     "0x1.3f2f396b39ba7p-4"},
    {"c50", 1, 300, 300, 0x9049e805aff82c0cULL, 0xcab5b100a697506dULL,
     "0x1.76e9c455e4f47p-2"},
    {"c50", 3, 300, 300, 0xe758bf25cf1e1551ULL, 0x314cf0f0256ae02fULL,
     "0x1.7afc0c9b5ac6bp-2"},
    {"cash", 1, 300, 300, 0xe8f6c7f6f5e4094aULL, 0xb5c1722dd3d71e60ULL,
     "0x1.fdacb01937974p-2"},
    {"cash", 3, 300, 300, 0x3e3ff74993182c0dULL, 0xbfe43eae115b4048ULL,
     "0x1.22b62ab9f9391p-1"},
};

TEST(TunerGoldenTest, RandomAndGeneticSearchesMatchRecordedTrajectories) {
  std::vector<std::pair<std::string, ParamSpace>> spaces;
  for (const std::string name : {"svm", "knn", "random_forest", "c50"}) {
    auto space = SpaceFor(name);
    ASSERT_TRUE(space.ok());
    spaces.emplace_back(name, *space);
  }
  auto joint = BuildCashSpace(AllAlgorithmNames());
  ASSERT_TRUE(joint.ok());
  spaces.emplace_back("cash", *joint);
  size_t checked = 0;
  for (size_t s = 0; s < spaces.size(); ++s) {
    const auto& [name, space] = spaces[s];
    const uint64_t finite = space.FiniteSize();
    const int cap = finite == 0 ? 300 : static_cast<int>(finite * 2 / 3);
    for (size_t folds : {size_t{1}, size_t{3}}) {
      SyntheticSpaceObjective random_objective(folds);
      SearchOptions random_options;
      random_options.max_evaluations = cap;
      random_options.seed = 2000 + 2 * s + folds;
      auto random = RandomSearch(space, &random_objective, random_options);
      ASSERT_TRUE(random.ok()) << name;
      ExpectGolden(kGoldenRandomSearches, name, folds, *random);

      SyntheticSpaceObjective genetic_objective(folds);
      GeneticOptions genetic_options;
      genetic_options.max_evaluations = cap;
      genetic_options.seed = 3000 + 2 * s + folds;
      auto genetic = GeneticSearch(space, &genetic_objective, genetic_options);
      ASSERT_TRUE(genetic.ok()) << name;
      ExpectGolden(kGoldenGeneticSearches, name, folds, *genetic);
      checked += 2;
    }
  }
  EXPECT_EQ(checked, 20u);
}

TEST(SmacTest, StopsOnceAFiniteSpaceIsCovered) {
  // plsda's space holds 24 configs. Once all are evaluated, every further
  // iteration could only propose duplicates, so the run must return instead
  // of spinning until its deadline.
  SyntheticSpaceObjective objective(1);
  SmacOptions options;
  options.max_evaluations = 50;
  options.seed = 3;
  options.deadline = Deadline::After(10.0);
  Stopwatch watch;
  auto result = Smac(PlsdaClassifier::Space(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_evaluations, 24u);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST(SmacTest, StopsOnceAFiniteSpaceIsCoveredOnEveryFold) {
  SyntheticSpaceObjective objective(3);
  SmacOptions options;
  options.max_evaluations = 200;
  options.seed = 4;
  options.deadline = Deadline::After(10.0);
  Stopwatch watch;
  auto result = Smac(PlsdaClassifier::Space(), &objective, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_evaluations, 72u);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST(SmacTest, ObservesSurrogateFitAndEiSeconds) {
  MetricsRegistry& registry = GlobalMetrics();
  Histogram* fit_seconds = registry.GetHistogram(
      "smartml_smac_surrogate_fit_seconds", "", LatencyBuckets());
  Histogram* ei_seconds =
      registry.GetHistogram("smartml_smac_ei_seconds", "", LatencyBuckets());
  const uint64_t fits_before = fit_seconds->TotalCount();
  const uint64_t ei_before = ei_seconds->TotalCount();
  BowlObjective objective(1);
  SmacOptions options;
  options.max_evaluations = 30;  // Well past the surrogate's 4 configs.
  auto result = Smac(BowlSpace(), &objective, options);
  ASSERT_TRUE(result.ok());
  const uint64_t fits = fit_seconds->TotalCount() - fits_before;
  EXPECT_GT(fits, 0u);
  // One EI pass per iteration that fitted a surrogate.
  EXPECT_EQ(ei_seconds->TotalCount() - ei_before, fits);
}

}  // namespace
}  // namespace smartml
