#include "src/interpret/interpret.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/cancellation.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/metrics.h"

namespace smartml {

StatusOr<std::vector<FeatureImportance>> PermutationImportance(
    const Classifier& model, const Dataset& data, int repeats,
    uint64_t seed) {
  if (data.NumRows() < 2) {
    return Status::InvalidArgument("importance: need at least 2 rows");
  }
  SMARTML_ASSIGN_OR_RETURN(std::vector<int> base_pred, model.Predict(data));
  const double base_accuracy = Accuracy(data.labels(), base_pred);

  // One task per (feature, repeat), feature-major. The permutations come
  // from one Rng stream in task order, as a sequential loop would draw
  // them: record where each task's shuffle starts, then advance the stream
  // by shuffling a same-sized scratch column (a shuffle's draws depend only
  // on the length). Each task replays its shuffle from its recorded start,
  // so the tasks can run in any order on any thread.
  const size_t reps = static_cast<size_t>(std::max(1, repeats));
  const size_t tasks = data.NumFeatures() * reps;
  std::vector<std::array<uint64_t, 4>> shuffle_start(tasks);
  {
    Rng rng(seed);
    std::vector<double> scratch(data.NumRows());
    for (size_t t = 0; t < tasks; ++t) {
      shuffle_start[t] = rng.State();
      rng.Shuffle(&scratch);
    }
  }

  std::vector<double> drop(tasks, 0.0);
  SMARTML_RETURN_NOT_OK(ParallelFor(
      tasks,
      [&](size_t t) -> Status {
        Dataset shuffled = data;
        Rng rng;
        rng.SetState(shuffle_start[t]);
        rng.Shuffle(&shuffled.mutable_feature(t / reps).values);
        SMARTML_ASSIGN_OR_RETURN(std::vector<int> pred,
                                 model.Predict(shuffled));
        drop[t] = base_accuracy - Accuracy(data.labels(), pred);
        return Status::OK();
      },
      CurrentCancelToken()));

  std::vector<FeatureImportance> out;
  out.reserve(data.NumFeatures());
  for (size_t f = 0; f < data.NumFeatures(); ++f) {
    // Summed in repeat order, exactly as the drops would accumulate
    // sequentially.
    double drop_sum = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) drop_sum += drop[f * reps + rep];
    FeatureImportance fi;
    fi.feature = data.feature(f).name;
    fi.importance = drop_sum / static_cast<double>(reps);
    out.push_back(std::move(fi));
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureImportance& a, const FeatureImportance& b) {
              return a.importance > b.importance;
            });
  return out;
}

StatusOr<PartialDependence> ComputePartialDependence(
    const Classifier& model, const Dataset& data, size_t feature_index,
    int target_class, int grid_points) {
  if (feature_index >= data.NumFeatures()) {
    return Status::InvalidArgument("pdp: feature index out of range");
  }
  const auto& col = data.feature(feature_index);
  if (col.is_categorical()) {
    return Status::InvalidArgument("pdp: feature must be numeric");
  }
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (double v : col.values) {
    if (IsMissing(v)) continue;
    if (first) {
      lo = hi = v;
      first = false;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (first) return Status::InvalidArgument("pdp: feature entirely missing");

  PartialDependence pd;
  pd.feature = col.name;
  const int points = std::max(2, grid_points);
  for (int g = 0; g < points; ++g) {
    const double value =
        lo + (hi - lo) * static_cast<double>(g) / (points - 1);
    Dataset modified = data;
    for (double& v : modified.mutable_feature(feature_index).values) {
      v = value;
    }
    SMARTML_ASSIGN_OR_RETURN(std::vector<std::vector<double>> proba,
                             model.PredictProba(modified));
    double mean = 0.0;
    for (const auto& p : proba) {
      if (static_cast<size_t>(target_class) < p.size()) {
        mean += p[static_cast<size_t>(target_class)];
      }
    }
    mean /= static_cast<double>(proba.size());
    pd.grid.push_back(value);
    pd.mean_probability.push_back(mean);
  }
  return pd;
}

}  // namespace smartml
