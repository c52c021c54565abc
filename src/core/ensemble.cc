#include "src/core/ensemble.h"

namespace smartml {

void WeightedEnsemble::AddMember(std::shared_ptr<const Classifier> model,
                                 double accuracy) {
  members_.push_back(std::move(model));
  // Clamp so a 0-accuracy member cannot zero out, which would break
  // normalization for degenerate validation sets.
  weights_.push_back(accuracy > 1e-6 ? accuracy : 1e-6);
}

Status WeightedEnsemble::Fit(const Dataset& /*train*/,
                             const ParamConfig& /*config*/) {
  return Status::Unimplemented(
      "WeightedEnsemble members are trained individually; use AddMember");
}

StatusOr<std::vector<std::vector<double>>> WeightedEnsemble::PredictProba(
    const Dataset& data) const {
  if (members_.empty()) {
    return Status::FailedPrecondition("ensemble: no members");
  }
  std::vector<Proba> member_proba;
  member_proba.reserve(members_.size());
  for (const auto& member : members_) {
    SMARTML_ASSIGN_OR_RETURN(Proba proba, member->PredictProba(data));
    member_proba.push_back(std::move(proba));
  }
  std::vector<const Proba*> views;
  for (const Proba& proba : member_proba) views.push_back(&proba);
  return Blend(views);
}

WeightedEnsemble::Proba WeightedEnsemble::Blend(
    const std::vector<const Proba*>& member_proba) const {
  double total_weight = 0.0;
  for (double w : weights_) total_weight += w;

  Proba out;
  for (size_t m = 0; m < member_proba.size() && m < weights_.size(); ++m) {
    const Proba& proba = *member_proba[m];
    const double w = weights_[m] / total_weight;
    if (out.empty()) {
      out.assign(proba.size(), {});
      for (size_t r = 0; r < proba.size(); ++r) {
        out[r].assign(proba[r].size(), 0.0);
      }
    }
    for (size_t r = 0; r < proba.size(); ++r) {
      for (size_t k = 0; k < proba[r].size() && k < out[r].size(); ++k) {
        out[r][k] += w * proba[r][k];
      }
    }
  }
  for (auto& p : out) NormalizeProba(&p);
  return out;
}

}  // namespace smartml
