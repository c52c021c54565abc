// Weighted ensembling of the top tuned models (paper §2: "a weighted
// ensembling output of the top performing algorithms can be recommended to
// the end user", citing Dietterich 2000).
#ifndef SMARTML_CORE_ENSEMBLE_H_
#define SMARTML_CORE_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "src/ml/classifier.h"

namespace smartml {

/// A probability-averaging ensemble whose member weights are proportional to
/// validation accuracy. Members are already-trained classifiers, shared
/// read-only: a run's winner is both its best_model and an ensemble member.
class WeightedEnsemble : public Classifier {
 public:
  using Proba = std::vector<std::vector<double>>;

  /// Adds a trained member with its validation accuracy. Weights are
  /// normalized lazily at prediction time.
  void AddMember(std::shared_ptr<const Classifier> model, double accuracy);

  size_t NumMembers() const { return members_.size(); }
  const std::vector<double>& weights() const { return weights_; }

  std::string name() const override { return "weighted_ensemble"; }

  /// Fit is not supported: members arrive pre-trained.
  Status Fit(const Dataset& train, const ParamConfig& config) override;

  StatusOr<std::vector<std::vector<double>>> PredictProba(
      const Dataset& data) const override;

  /// The blend PredictProba applies to its members' outputs: the weighted
  /// average of `member_proba` (one matrix per member, in AddMember order),
  /// renormalized per row. A caller that already holds the members'
  /// predictions gets the ensemble's without predicting again.
  Proba Blend(const std::vector<const Proba*>& member_proba) const;

  /// Cloning an ensemble of trained members is not supported; returns an
  /// empty ensemble (interface requirement only).
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<WeightedEnsemble>();
  }

 private:
  std::vector<std::shared_ptr<const Classifier>> members_;
  std::vector<double> weights_;
};

}  // namespace smartml

#endif  // SMARTML_CORE_ENSEMBLE_H_
