// Tests for the weighted ensemble.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/thread_pool.h"
#include "src/core/ensemble.h"
#include "src/data/metrics.h"
#include "src/data/synthetic.h"
#include "src/ml/knn.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/tree_classifiers.h"

namespace smartml {
namespace {

Dataset MakeData(uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.num_instances = 160;
  spec.num_informative = 4;
  spec.num_classes = 3;
  spec.class_sep = 2.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(EnsembleTest, EmptyEnsembleRejectsPredict) {
  WeightedEnsemble ensemble;
  EXPECT_FALSE(ensemble.PredictProba(MakeData()).ok());
}

TEST(EnsembleTest, FitIsUnsupported) {
  WeightedEnsemble ensemble;
  EXPECT_EQ(ensemble.Fit(MakeData(), {}).code(), StatusCode::kUnimplemented);
}

TEST(EnsembleTest, CombinesMembersWithValidProbabilities) {
  const Dataset d = MakeData();
  auto ensemble = std::make_unique<WeightedEnsemble>();

  auto knn = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  ensemble->AddMember(std::move(knn), 0.9);

  auto nb = std::make_unique<NaiveBayesClassifier>();
  ASSERT_TRUE(nb->Fit(d, NaiveBayesClassifier::Space().DefaultConfig()).ok());
  ensemble->AddMember(std::move(nb), 0.8);

  EXPECT_EQ(ensemble->NumMembers(), 2u);
  auto proba = ensemble->PredictProba(d);
  ASSERT_TRUE(proba.ok());
  for (const auto& p : *proba) {
    double sum = 0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(EnsembleTest, HighWeightMemberDominates) {
  const Dataset d = MakeData();
  // Member A: real model. Member B: same model but weighted 1000x less.
  auto a = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(a->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto a_pred = a->Predict(d);
  ASSERT_TRUE(a_pred.ok());

  auto b = std::make_unique<J48Classifier>();
  ASSERT_TRUE(b->Fit(d, J48Classifier::Space().DefaultConfig()).ok());

  WeightedEnsemble ensemble;
  ensemble.AddMember(std::move(a), 1.0);
  ensemble.AddMember(std::move(b), 1e-6);
  auto e_pred = ensemble.Predict(d);
  ASSERT_TRUE(e_pred.ok());
  EXPECT_EQ(*e_pred, *a_pred);  // B's vote is negligible.
}

TEST(EnsembleTest, ZeroAccuracyMemberStillGetsPositiveWeight) {
  // A degenerate 0-accuracy member must not break weight normalization.
  const Dataset d = MakeData();
  auto a = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(a->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto b = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(b->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  WeightedEnsemble ensemble;
  ensemble.AddMember(std::move(a), 0.0);
  ensemble.AddMember(std::move(b), 0.0);
  auto proba = ensemble.PredictProba(d);
  ASSERT_TRUE(proba.ok());
  for (const auto& p : *proba) {
    double sum = 0;
    for (double v : p) {
      EXPECT_TRUE(std::isfinite(v));
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(EnsembleTest, EnsembleAtLeastCompetitiveWithWeakestMember) {
  const Dataset d = MakeData(73);
  // Train members on one half, evaluate on the other.
  std::vector<size_t> first_half, second_half;
  for (size_t r = 0; r < d.NumRows(); ++r) {
    (r % 2 == 0 ? first_half : second_half).push_back(r);
  }
  const Dataset train = d.Subset(first_half);
  const Dataset test = d.Subset(second_half);

  WeightedEnsemble ensemble;
  double weakest = 1.0;
  const std::vector<std::unique_ptr<Classifier>> protos = [] {
    std::vector<std::unique_ptr<Classifier>> v;
    v.push_back(std::make_unique<KnnClassifier>());
    v.push_back(std::make_unique<NaiveBayesClassifier>());
    v.push_back(std::make_unique<J48Classifier>());
    return v;
  }();
  for (const auto& proto : protos) {
    auto member = proto->Clone();
    ASSERT_TRUE(member->Fit(train, ParamConfig()).ok());
    auto pred = member->Predict(test);
    ASSERT_TRUE(pred.ok());
    const double acc = Accuracy(test.labels(), *pred);
    weakest = std::min(weakest, acc);
    ensemble.AddMember(std::move(member), acc);
  }
  auto pred = ensemble.Predict(test);
  ASSERT_TRUE(pred.ok());
  const double ensemble_acc = Accuracy(test.labels(), *pred);
  EXPECT_GE(ensemble_acc, weakest - 0.05);
}

TEST(EnsembleTest, BlendOfStoredPredictionsEqualsPredictProba) {
  // The output phase blends the members' stored validation probabilities
  // instead of predicting again; the two paths must agree bit for bit.
  const Dataset d = MakeData();
  std::shared_ptr<Classifier> knn = std::make_shared<KnnClassifier>();
  ASSERT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  std::shared_ptr<Classifier> nb = std::make_shared<NaiveBayesClassifier>();
  ASSERT_TRUE(nb->Fit(d, NaiveBayesClassifier::Space().DefaultConfig()).ok());
  WeightedEnsemble ensemble;
  ensemble.AddMember(knn, 0.9);
  ensemble.AddMember(nb, 0.7);

  auto knn_proba = knn->PredictProba(d);
  auto nb_proba = nb->PredictProba(d);
  auto proba = ensemble.PredictProba(d);
  ASSERT_TRUE(knn_proba.ok() && nb_proba.ok() && proba.ok());
  EXPECT_EQ(ensemble.Blend({&*knn_proba, &*nb_proba}), *proba);
}

TEST(EnsembleTest, SharedMembersPredictConcurrently) {
  // A run's winner is both its best_model and an ensemble member. Two
  // ensembles share one model here and predict from four threads at once
  // (the thread-sanitizer leg of scripts/tier1.sh runs this binary).
  const Dataset d = MakeData();
  std::shared_ptr<Classifier> shared = std::make_shared<J48Classifier>();
  ASSERT_TRUE(shared->Fit(d, J48Classifier::Space().DefaultConfig()).ok());
  auto knn = std::make_unique<KnnClassifier>();
  ASSERT_TRUE(knn->Fit(d, KnnClassifier::Space().DefaultConfig()).ok());
  auto nb = std::make_unique<NaiveBayesClassifier>();
  ASSERT_TRUE(nb->Fit(d, NaiveBayesClassifier::Space().DefaultConfig()).ok());
  WeightedEnsemble first, second;
  first.AddMember(shared, 0.8);
  first.AddMember(std::move(knn), 0.9);
  second.AddMember(shared, 0.8);
  second.AddMember(std::move(nb), 0.7);
  auto first_expected = first.PredictProba(d);
  auto second_expected = second.PredictProba(d);
  ASSERT_TRUE(first_expected.ok() && second_expected.ok());

  ThreadPool pool(3);
  std::vector<WeightedEnsemble::Proba> got(16);
  ASSERT_TRUE(ParallelFor(
                  got.size(),
                  [&](size_t i) -> Status {
                    SMARTML_ASSIGN_OR_RETURN(
                        got[i], (i % 2 == 0 ? first : second).PredictProba(d));
                    return Status::OK();
                  },
                  nullptr, &pool)
                  .ok());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i % 2 == 0 ? *first_expected : *second_expected) << i;
  }
}

}  // namespace
}  // namespace smartml
