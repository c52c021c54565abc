// Shared decision-tree engine.
//
// One configurable tree builder backs eight of the fifteen classifiers:
// J48/C5.0/PART use the gain-ratio criterion with C4.5 error-based pruning
// and multiway categorical splits; rpart/Bagging/RandomForest use Gini with
// binary splits; LMT grows small trees with logistic leaves; DeepBoost
// reweights samples between depth-limited trees. Every tree grows on a
// binned view of its training matrix, and the view decides the split
// granularity: the ensembles and rule learners pass Dataset::Binned() (at
// most 255 quantile bins per numeric column), while a Fit given no view
// bins the matrix losslessly, one bin per distinct value, which makes its
// split search exact.
#ifndef SMARTML_ML_DECISION_TREE_H_
#define SMARTML_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/linalg/matrix.h"

namespace smartml {

/// Split-quality criterion.
enum class TreeCriterion { kGini, kEntropy, kGainRatio };

struct TreeOptions {
  TreeCriterion criterion = TreeCriterion::kGini;
  int max_depth = 30;
  size_t min_split = 2;   ///< Minimum samples at a node to try splitting.
  size_t min_leaf = 1;    ///< Minimum samples in each child.
  /// Minimum fraction of the root impurity a split must remove (rpart's cp).
  double min_impurity_decrease = 0.0;
  /// C4.5 confidence factor for error-based pruning; <= 0 disables pruning.
  double confidence_factor = 0.0;
  /// Number of features examined per split; <= 0 means all (random forests
  /// set this to mtry).
  int mtry = 0;
  /// Multiway splits on categorical features (C4.5 style); false gives
  /// binary one-category-vs-rest splits (CART style).
  bool multiway_categorical = false;
  uint64_t seed = 1;
};

/// Feature typing the tree needs from the Dataset schema.
struct TreeSchema {
  std::vector<bool> categorical;      ///< Per feature.
  std::vector<size_t> cardinalities;  ///< Per feature (0 for numeric).

  static TreeSchema FromDataset(const Dataset& dataset);
};

/// One condition on a root-to-leaf path, for rule extraction (PART).
struct TreeCondition {
  int feature = 0;
  enum class Op { kLessEq, kGreater, kEquals, kNotEquals } op = Op::kLessEq;
  double value = 0.0;
  std::string ToString(const Dataset& schema_source) const;
};

/// A weighted decision tree over the raw feature matrix (one column per
/// feature; categorical cells hold category codes; NaN = missing, routed to
/// the heavier child at predict time).
class DecisionTree {
 public:
  /// Trains the tree. `weights` may be empty (all ones). `x` is the
  /// ToRawMatrix() encoding of the training data. `binned` may supply a
  /// pre-built binned view of the SAME rows (e.g. Dataset::Binned(), shared
  /// across a whole forest); when null, `x` is binned losslessly on the
  /// fly (up to BinnedColumns::kMaxCodedBins bins per column). Returns
  /// InvalidArgument for a view of another shape and for a categorical
  /// column with more categories than a bin code holds.
  Status Fit(const Matrix& x, const TreeSchema& schema,
             const std::vector<int>& y, int num_classes,
             const std::vector<double>& weights, const TreeOptions& options,
             std::shared_ptr<const BinnedColumns> binned = nullptr);

  /// Class-probability estimate for one raw-encoded row (Laplace-smoothed
  /// leaf frequencies).
  std::vector<double> PredictProbaRow(const double* row) const;

  /// Adds `scale` times PredictProbaRow(row) into out[0 .. num_classes())
  /// without allocating: out[k] += scale * p[k], with p[k] computed exactly
  /// as PredictProbaRow computes it. Ensembles sum their trees' votes
  /// straight into the output row this way (scale 1 leaves p unchanged).
  void AddProbaRow(const double* row, double scale, double* out) const;

  int PredictRow(const double* row) const;

  /// Index of the leaf a row lands in (for LMT leaf models).
  int LeafIndexForRow(const double* row) const;

  /// AddProbaRow for a row already routed to `leaf` (a LeafIndexForRow
  /// result), so a caller that needs both walks the tree once.
  void AddLeafProba(int leaf, double scale, double* out) const;

  bool fitted() const { return !nodes_.empty(); }
  int num_classes() const { return num_classes_; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumLeaves() const;
  int Depth() const;

  /// Leaves as (path conditions, weight, class counts), heaviest first —
  /// PART picks the best-covering leaf as its next rule.
  struct LeafRule {
    std::vector<TreeCondition> conditions;
    double weight = 0.0;
    std::vector<double> class_counts;
    int majority = 0;
  };
  std::vector<LeafRule> ExtractLeafRules() const;

  /// Total (weighted) impurity decrease contributed by each feature —
  /// the tree-internal importance used by RandomForest reporting.
  std::vector<double> FeatureImportances(size_t num_features) const;

 private:
  struct Node {
    bool leaf = true;
    int feature = -1;
    bool categorical_split = false;
    double threshold = 0.0;      // Numeric: left iff value <= threshold.
    int category = -1;           // Binary categorical: left iff code == category.
    std::vector<int> children;   // 2 for binary, k for multiway.
    int majority_child = 0;      // Missing values follow this child.
    std::vector<double> class_counts;
    double weight = 0.0;
    int majority = 0;
    int depth = 0;
    double split_gain = 0.0;     // Weighted impurity decrease of the split.
  };

  // Per-Fit growth workspace (defined in the .cc): the node row spans,
  // pooled bin histograms and scan scratch every node reuses.
  struct GrowState;

  static int ArgMaxCount(const std::vector<double>& counts);
  /// Grows the node over rows[begin, end) of the workspace. `hist` is the
  /// pooled all-feature histogram of exactly those rows handed down by the
  /// parent, or -1; the node returns it to the pool.
  int BuildNodeHist(GrowState* state, size_t begin, size_t end, int depth,
                    Rng* rng, int hist);
  /// Index of the leaf `row` reaches: the one root-to-leaf walk behind
  /// every prediction entry point. Requires a fitted tree.
  size_t LeafFor(const double* row) const;
  void Prune(int node_index);
  double SubtreeError(int node_index) const;
  double LeafErrorUpperBound(const Node& node) const;
  void CollectLeafRules(int node_index, std::vector<TreeCondition>* path,
                        std::vector<LeafRule>* out) const;

  std::vector<Node> nodes_;
  TreeSchema schema_;
  TreeOptions options_;
  int num_classes_ = 0;
};

}  // namespace smartml

#endif  // SMARTML_ML_DECISION_TREE_H_
