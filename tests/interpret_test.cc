// Tests for the interpretability module (permutation importance and partial
// dependence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/common/cancellation.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/metrics.h"
#include "src/data/synthetic.h"
#include "src/interpret/interpret.h"
#include "src/ml/forest.h"
#include "src/ml/knn.h"
#include "src/ml/registry.h"

namespace smartml {
namespace {

// Dataset where the informative features carry all the signal.
Dataset SignalAndNoise() {
  SyntheticSpec spec;
  spec.num_instances = 220;
  spec.num_informative = 2;
  spec.num_noise = 3;
  spec.num_classes = 2;
  spec.class_sep = 3.0;
  spec.seed = 55;
  return GenerateSynthetic(spec);
}

// The sequential permutation-importance loop PermutationImportance ran
// before it spread its (feature, repeat) tasks over the pool, kept verbatim
// as the oracle the parallel version must match bit for bit.
StatusOr<std::vector<FeatureImportance>> SequentialPermutationImportance(
    const Classifier& model, const Dataset& data, int repeats,
    uint64_t seed) {
  if (data.NumRows() < 2) {
    return Status::InvalidArgument("importance: need at least 2 rows");
  }
  SMARTML_ASSIGN_OR_RETURN(std::vector<int> base_pred, model.Predict(data));
  const double base_accuracy = Accuracy(data.labels(), base_pred);

  Rng rng(seed);
  std::vector<FeatureImportance> out;
  out.reserve(data.NumFeatures());
  for (size_t f = 0; f < data.NumFeatures(); ++f) {
    double drop_sum = 0.0;
    for (int rep = 0; rep < std::max(1, repeats); ++rep) {
      Dataset shuffled = data;
      auto& col = shuffled.mutable_feature(f).values;
      rng.Shuffle(&col);
      SMARTML_ASSIGN_OR_RETURN(std::vector<int> pred,
                               model.Predict(shuffled));
      drop_sum += base_accuracy - Accuracy(data.labels(), pred);
    }
    FeatureImportance fi;
    fi.feature = data.feature(f).name;
    fi.importance = drop_sum / std::max(1, repeats);
    out.push_back(std::move(fi));
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureImportance& a, const FeatureImportance& b) {
              return a.importance > b.importance;
            });
  return out;
}

// SignalAndNoise with every fifth cell of the first noise column missing.
Dataset WithMissingColumn() {
  Dataset d = SignalAndNoise();
  auto& values = d.mutable_feature(2).values;
  for (size_t r = 0; r < values.size(); r += 5) {
    values[r] = std::numeric_limits<double>::quiet_NaN();
  }
  return d;
}

// Fits `algorithm` at its default config on `data`.
std::unique_ptr<Classifier> FitDefault(const std::string& algorithm,
                                       const Dataset& data) {
  auto model = CreateClassifier(algorithm);
  auto space = SpaceFor(algorithm);
  if (!model.ok() || !space.ok()) return nullptr;
  if (!(*model)->Fit(data, space->DefaultConfig()).ok()) return nullptr;
  return std::move(*model);
}

void ExpectBitEqual(const std::vector<FeatureImportance>& expected,
                    const std::vector<FeatureImportance>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].feature, actual[i].feature) << i;
    EXPECT_EQ(expected[i].importance, actual[i].importance)
        << i << " " << expected[i].feature;
  }
}

TEST(ImportanceOracleTest, PooledMatchesSequentialBitForBit) {
  // Caller plus three workers: a 4-thread pool, as a 4-thread run has.
  ThreadPool pool(3);
  ScopedPoolScope pool_scope(&pool);
  const Dataset clean = SignalAndNoise();
  const Dataset missing = WithMissingColumn();
  for (const std::string algorithm :
       {"random_forest", "knn", "svm", "naive_bayes"}) {
    for (const Dataset* data : {&clean, &missing}) {
      SCOPED_TRACE(algorithm + (data == &missing ? " (missing)" : ""));
      const std::unique_ptr<Classifier> model = FitDefault(algorithm, *data);
      ASSERT_NE(model, nullptr);
      for (int repeats : {1, 3}) {
        auto expected =
            SequentialPermutationImportance(*model, *data, repeats, 11);
        auto actual = PermutationImportance(*model, *data, repeats, 11);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        ExpectBitEqual(*expected, *actual);
      }
    }
  }
}

TEST(ImportanceOracleTest, EveryLearnerPredictsConcurrentlyOnOneModel) {
  // Every (feature, repeat) task calls the same const model's Predict, four
  // at a time: a learner whose Predict mutates hidden state races here
  // (the thread-sanitizer leg of scripts/tier1.sh runs this binary).
  ThreadPool pool(3);
  ScopedPoolScope pool_scope(&pool);
  SyntheticSpec spec;
  spec.num_instances = 90;
  spec.num_informative = 2;
  spec.num_noise = 2;
  spec.num_classes = 2;
  spec.class_sep = 2.5;
  spec.seed = 19;
  const Dataset data = GenerateSynthetic(spec);
  for (const std::string& algorithm : AllAlgorithmNames()) {
    SCOPED_TRACE(algorithm);
    const std::unique_ptr<Classifier> model = FitDefault(algorithm, data);
    ASSERT_NE(model, nullptr);
    auto expected = SequentialPermutationImportance(*model, data, 2, 5);
    auto actual = PermutationImportance(*model, data, 2, 5);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectBitEqual(*expected, *actual);
  }
}

// Delegates to a trained model and cancels `token` on its third predict.
class CancellingModel : public Classifier {
 public:
  CancellingModel(const Classifier* inner, CancelToken* token)
      : inner_(inner), token_(token) {}
  std::string name() const override { return "cancelling"; }
  Status Fit(const Dataset&, const ParamConfig&) override {
    return Status::Unimplemented("test model");
  }
  StatusOr<std::vector<std::vector<double>>> PredictProba(
      const Dataset& data) const override {
    if (calls_.fetch_add(1) + 1 == 3) token_->Cancel();
    return inner_->PredictProba(data);
  }
  std::unique_ptr<Classifier> Clone() const override { return nullptr; }
  int calls() const { return calls_.load(); }

 private:
  const Classifier* inner_;
  CancelToken* token_;
  mutable std::atomic<int> calls_{0};
};

TEST(ImportanceOracleTest, CancellingMidImportanceReturnsCancelled) {
  ThreadPool pool(3);
  ScopedPoolScope pool_scope(&pool);
  const Dataset d = SignalAndNoise();
  const std::unique_ptr<Classifier> knn = FitDefault("knn", d);
  ASSERT_NE(knn, nullptr);
  CancelToken token;
  ScopedCancelScope cancel_scope(&token);
  CancellingModel model(knn.get(), &token);
  // 5 features x 3 repeats = 15 permuted predicts after the baseline one.
  auto importances = PermutationImportance(model, d, 3, 7);
  ASSERT_FALSE(importances.ok());
  EXPECT_EQ(importances.status().code(), StatusCode::kCancelled);
  EXPECT_LT(model.calls(), 16);
}

TEST(ImportanceTest, InformativeFeaturesRankAboveNoise) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto importances = PermutationImportance(forest, d, 3, 7);
  ASSERT_TRUE(importances.ok());
  ASSERT_EQ(importances->size(), 5u);
  // Sorted descending; the top two should be the informative features.
  EXPECT_GE((*importances)[0].importance, (*importances)[4].importance);
  int informative_in_top2 = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string& name = (*importances)[static_cast<size_t>(i)].feature;
    if (name.rfind("inf", 0) == 0) ++informative_in_top2;
  }
  EXPECT_EQ(informative_in_top2, 2);
}

TEST(ImportanceTest, NoiseFeatureImportanceNearZero) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto importances = PermutationImportance(forest, d, 3, 7);
  ASSERT_TRUE(importances.ok());
  for (const auto& fi : *importances) {
    if (fi.feature.rfind("noise", 0) == 0) {
      EXPECT_NEAR(fi.importance, 0.0, 0.06) << fi.feature;
    }
  }
}

TEST(ImportanceTest, TinyDatasetRejected) {
  Dataset d;
  d.AddNumericFeature("x", {1});
  d.SetLabels({0}, {"a"});
  KnnClassifier knn;
  EXPECT_FALSE(PermutationImportance(knn, d).ok());
}

TEST(PdpTest, ProducesGridOfRequestedSize) {
  const Dataset d = SignalAndNoise();
  KnnClassifier knn;
  ASSERT_TRUE(knn.Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto pd = ComputePartialDependence(knn, d, 0, 1, 10);
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(pd->grid.size(), 10u);
  EXPECT_EQ(pd->mean_probability.size(), 10u);
  for (double p : pd->mean_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Grid is increasing.
  for (size_t i = 1; i < pd->grid.size(); ++i) {
    EXPECT_GT(pd->grid[i], pd->grid[i - 1]);
  }
}

TEST(PdpTest, InformativeFeatureMovesProbability) {
  const Dataset d = SignalAndNoise();
  RandomForestClassifier forest;
  ASSERT_TRUE(
      forest.Fit(d, RandomForestClassifier::Space().DefaultConfig()).ok());
  auto pd = ComputePartialDependence(forest, d, 0, 1, 8);
  ASSERT_TRUE(pd.ok());
  double lo = 1.0, hi = 0.0;
  for (double p : pd->mean_probability) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi - lo, 0.1);  // Sweeping an informative feature matters.
}

TEST(PdpTest, RejectsCategoricalAndOutOfRange) {
  Dataset d;
  d.AddCategoricalFeature("c", {0, 1, 0, 1}, {"a", "b"});
  d.SetLabels({0, 1, 0, 1}, {"x", "y"});
  KnnClassifier knn;
  ASSERT_TRUE(knn.Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  EXPECT_FALSE(ComputePartialDependence(knn, d, 0, 0).ok());
  EXPECT_FALSE(ComputePartialDependence(knn, d, 5, 0).ok());
}

}  // namespace
}  // namespace smartml
