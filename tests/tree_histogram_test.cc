// Exact-vs-histogram oracle tests for the decision tree, plus unit tests
// for the shared SIMD kernels.
//
// The contract under test (see DESIGN.md): with lossless binning (every
// distinct value its own bin) and integral sample weights, histogram growth
// partitions the training rows exactly as exact growth does, so the two
// trees agree on every training-row prediction, leaf count, and depth.
// Lossy (quantile) binning and fractional weights only promise closeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/ml/boosting.h"
#include "src/ml/decision_tree.h"
#include "src/ml/forest.h"
#include "src/ml/lmt.h"

namespace smartml {
namespace {

std::vector<int> Predictions(const DecisionTree& tree, const Matrix& x) {
  std::vector<int> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    out[r] = tree.PredictRow(x.RowPtr(r));
  }
  return out;
}

double Accuracy(const std::vector<int>& pred, const std::vector<int>& y) {
  size_t hits = 0;
  for (size_t r = 0; r < pred.size(); ++r) hits += pred[r] == y[r];
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

// Snaps numeric columns to a 0.25 grid so each has far fewer than 255
// distinct values and the binning is lossless.
void SnapToGrid(Dataset* d) {
  for (size_t f = 0; f < d->NumFeatures(); ++f) {
    if (d->feature(f).is_categorical()) continue;
    for (double& v : d->mutable_feature(f).values) {
      if (!IsMissing(v)) v = std::round(v * 4.0) / 4.0;
    }
  }
}

Dataset GridDataset(uint64_t seed, double missing_fraction,
                    size_t num_categorical) {
  SyntheticSpec spec;
  spec.kind = SyntheticKind::kGaussianClusters;
  spec.num_instances = 300;
  spec.num_informative = 5;
  spec.num_noise = 1;
  spec.num_categorical = num_categorical;
  spec.categorical_cardinality = 5;
  spec.num_classes = 3;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.5;
  spec.label_noise = 0.05;
  spec.missing_fraction = missing_fraction;
  spec.seed = seed;
  Dataset d = GenerateSynthetic(spec);
  SnapToGrid(&d);
  return d;
}

// Fits the same problem in both modes and returns (exact, histogram).
std::pair<DecisionTree, DecisionTree> FitPair(
    const Dataset& train, const std::vector<double>& weights,
    TreeOptions options) {
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const int k = static_cast<int>(train.NumClasses());

  DecisionTree exact;
  options.split_mode = TreeSplitMode::kExact;
  EXPECT_TRUE(
      exact.Fit(x, schema, train.labels(), k, weights, options).ok());

  DecisionTree hist;
  options.split_mode = TreeSplitMode::kHistogram;
  EXPECT_TRUE(hist.Fit(x, schema, train.labels(), k, weights, options,
                       train.Binned())
                  .ok());
  return {std::move(exact), std::move(hist)};
}

// Asserts the identity contract on the rows that actually trained:
// zero-weight rows are dropped before growth, making them held-out rows
// for which the two modes' thresholds (node-local midpoints vs global bin
// midpoints) may legitimately route differently.
void ExpectIdenticalOnTrain(const Dataset& train, const DecisionTree& exact,
                            const DecisionTree& hist,
                            const std::vector<double>& weights = {}) {
  EXPECT_EQ(exact.NumLeaves(), hist.NumLeaves());
  EXPECT_EQ(exact.Depth(), hist.Depth());
  const Matrix x = train.ToRawMatrix();
  const std::vector<int> pe = Predictions(exact, x);
  const std::vector<int> ph = Predictions(hist, x);
  for (size_t r = 0; r < pe.size(); ++r) {
    if (!weights.empty() && weights[r] <= 0.0) continue;
    ASSERT_EQ(pe[r], ph[r]) << "row " << r;
  }
}

// Randomized oracle sweep: every criterion, with and without multiway
// categorical splits, missing values, categorical columns, and pruning.
// Lossless bins + unit weights => the histogram tree must match exact
// growth on every training prediction.
TEST(TreeHistogramTest, LosslessGridOracleAcrossConfigs) {
  const TreeCriterion criteria[] = {TreeCriterion::kGini,
                                    TreeCriterion::kEntropy,
                                    TreeCriterion::kGainRatio};
  for (uint64_t seed : {42u, 43u}) {
    for (TreeCriterion crit : criteria) {
      for (bool multiway : {false, true}) {
        for (double missing : {0.0, 0.1}) {
          for (size_t cats : {size_t{0}, size_t{2}}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " crit="
                         << static_cast<int>(crit) << " multiway=" << multiway
                         << " missing=" << missing << " cats=" << cats);
            const Dataset train = GridDataset(seed, missing, cats);
            // Sanity: the grid snap must have made every column lossless,
            // otherwise this test is not exercising the identity contract.
            const auto binned = train.Binned();
            for (size_t f = 0; f < binned->num_features(); ++f) {
              ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
            }
            TreeOptions options;
            options.criterion = crit;
            options.multiway_categorical = multiway;
            options.max_depth = 12;
            options.min_split = 4;
            options.min_leaf = 2;
            if (crit == TreeCriterion::kGainRatio) {
              options.confidence_factor = 0.25;  // Exercise C4.5 pruning.
            } else {
              options.min_impurity_decrease = 0.001;  // Exercise cp gate.
            }
            const auto [exact, hist] = FitPair(train, {}, options);
            ExpectIdenticalOnTrain(train, exact, hist);
          }
        }
      }
    }
  }
}

// Bootstrap-style integer weights (including zeros) keep the identity:
// integer sums are exact in doubles, so gains are bit-identical.
TEST(TreeHistogramTest, IntegerBootstrapWeightsMatchExact) {
  const Dataset train = GridDataset(7, 0.0, 2);
  Rng rng(99);
  std::vector<double> weights(train.NumRows(), 0.0);
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[rng.UniformInt(weights.size())] += 1.0;  // Bootstrap counts.
  }
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  const auto [exact, hist] = FitPair(train, weights, options);
  ExpectIdenticalOnTrain(train, exact, hist, weights);
}

// Missing values + non-uniform weights break the per-row identity by
// design: the training partition routes missing rows to the child with
// more ROWS, while predict time follows majority_child (heaviest by
// WEIGHT). When those disagree a missing row strays off its training path
// at predict time, and for a strayed (effectively held-out) row the two
// modes' thresholds — node-local midpoints vs global bin midpoints — may
// legitimately route it differently. Structure stays identical (gains are
// still bit-equal integer sums); predictions only promise closeness.
TEST(TreeHistogramTest, IntegerWeightsWithMissingKeepStructure) {
  const Dataset train = GridDataset(7, 0.05, 2);
  Rng rng(99);
  std::vector<double> weights(train.NumRows(), 0.0);
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[rng.UniformInt(weights.size())] += 1.0;
  }
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  const auto [exact, hist] = FitPair(train, weights, options);
  EXPECT_EQ(exact.NumLeaves(), hist.NumLeaves());
  EXPECT_EQ(exact.Depth(), hist.Depth());
  const Matrix x = train.ToRawMatrix();
  const double acc_exact = Accuracy(Predictions(exact, x), train.labels());
  const double acc_hist = Accuracy(Predictions(hist, x), train.labels());
  EXPECT_NEAR(acc_exact, acc_hist, 0.05);
}

// Feature subsampling draws from the tree RNG in the same per-node order in
// both modes, so identical structure implies identical subsets and the
// identity survives mtry < d.
TEST(TreeHistogramTest, MtrySubsetMatchesExact) {
  const Dataset train = GridDataset(11, 0.0, 1);
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  options.mtry = 2;
  options.seed = 5;
  const auto [exact, hist] = FitPair(train, {}, options);
  ExpectIdenticalOnTrain(train, exact, hist);
}

// The regime a random forest grows in: many classes, an mtry subset, no
// depth or leaf gates to speak of (min_leaf 1, depth 40), integer bootstrap
// counts with zeros, and missing cells. Nodes shrink to one to three rows,
// where histogram growth scans only the few bins the rows occupy. Columns
// are snapped to at most 200 values so the binning stays lossless and the
// exact builder remains the oracle.
TEST(TreeHistogramTest, ForestRegimeMatchesExact) {
  for (uint64_t seed : {61u, 62u, 63u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    SyntheticSpec spec;
    spec.num_instances = 400;
    spec.num_informative = 10;
    spec.num_noise = 4;
    spec.num_classes = 12;
    spec.clusters_per_class = 1;
    spec.class_sep = 1.0;
    spec.label_noise = 0.1;
    spec.missing_fraction = 0.1;
    spec.seed = seed;
    Dataset train = GenerateSynthetic(spec);
    for (size_t f = 0; f < train.NumFeatures(); ++f) {
      auto& values = train.mutable_feature(f).values;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (double v : values) {
        if (IsMissing(v)) continue;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      for (double& v : values) {
        if (!IsMissing(v)) v = std::floor((v - lo) / (hi - lo) * 199.0);
      }
    }
    const auto binned = train.Binned();
    for (size_t f = 0; f < binned->num_features(); ++f) {
      ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
    }
    Rng rng(seed);
    std::vector<double> weights(train.NumRows(), 0.0);
    for (size_t r = 0; r < weights.size(); ++r) {
      weights[rng.UniformInt(weights.size())] += 1.0;
    }
    ASSERT_NE(std::count(weights.begin(), weights.end(), 0.0), 0);
    TreeOptions options;
    options.max_depth = 40;
    options.min_split = 2;
    options.min_leaf = 1;
    options.mtry = 4;
    options.seed = seed;
    const auto [exact, hist] = FitPair(train, weights, options);
    ExpectIdenticalOnTrain(train, exact, hist, weights);
  }
}

// Oracle for DecisionTree::AddProbaRow: one PredictProbaRow vector per
// (row, tree), added in tree order (scaled by the vote weight when the
// ensemble is boosted), then normalized.
std::vector<std::vector<double>> PerTreeProbaSum(
    const std::vector<DecisionTree>& trees, const std::vector<double>* alphas,
    const Dataset& data, int num_classes) {
  const Matrix x = data.ToRawMatrix();
  std::vector<std::vector<double>> out(
      x.rows(), std::vector<double>(static_cast<size_t>(num_classes), 0.0));
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t t = 0; t < trees.size(); ++t) {
      const std::vector<double> p = trees[t].PredictProbaRow(x.RowPtr(r));
      for (size_t k = 0; k < p.size(); ++k) {
        out[r][k] += alphas != nullptr ? (*alphas)[t] * p[k] : p[k];
      }
    }
    NormalizeProba(&out[r]);
  }
  return out;
}

// Forest, bagging and boosting predictions add every tree's leaf
// probabilities straight into the output row; they must equal the per-tree
// vector sum bit for bit.
TEST(TreeHistogramTest, AccumulatedEnsembleProbaMatchesPerTreeSum) {
  const Dataset train = GridDataset(71, 0.1, 2);
  const Dataset test = GridDataset(72, 0.1, 2);
  const int k = static_cast<int>(train.NumClasses());
  auto expect_same = [](const std::vector<std::vector<double>>& got,
                        const std::vector<std::vector<double>>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r], want[r]) << "row " << r;
    }
  };
  ParamConfig config;
  config.SetInt("ntree", 20);
  config.SetInt("nbagg", 10);
  config.SetInt("trials", 8);
  config.SetInt("num_iter", 10);

  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(train, config).ok());
  BaggingClassifier bagging;
  ASSERT_TRUE(bagging.Fit(train, config).ok());
  C50Classifier c50;
  ASSERT_TRUE(c50.Fit(train, config).ok());
  DeepBoostClassifier deepboost;
  ASSERT_TRUE(deepboost.Fit(train, config).ok());
  ASSERT_GT(c50.NumRounds(), 1u);
  ASSERT_GT(deepboost.NumRounds(), 1u);

  for (const Dataset* data : {&train, &test}) {
    expect_same(*forest.PredictProba(*data),
                PerTreeProbaSum(forest.trees(), nullptr, *data, k));
    expect_same(*bagging.PredictProba(*data),
                PerTreeProbaSum(bagging.trees(), nullptr, *data, k));
    expect_same(*c50.PredictProba(*data),
                PerTreeProbaSum(c50.trees(), &c50.alphas(), *data, k));
    expect_same(
        *deepboost.PredictProba(*data),
        PerTreeProbaSum(deepboost.trees(), &deepboost.alphas(), *data, k));
  }
}

// The LMT prediction loop that walked every row twice (LeafIndexForRow, then
// PredictProbaRow for the tree blend) with a vector per call, kept as the
// oracle for the one-walk loop.
std::vector<std::vector<double>> TwoWalkLmtProba(const LmtClassifier& lmt,
                                                 const Dataset& data) {
  const Matrix raw = data.ToRawMatrix();
  const Matrix x = *lmt.encoder().Transform(data);
  std::vector<std::vector<double>> out(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    const int leaf = lmt.tree().LeafIndexForRow(raw.RowPtr(r));
    const auto it = lmt.leaf_models().find(leaf);
    if (it != lmt.leaf_models().end()) {
      std::vector<double> lr = it->second.PredictProbaRow(x.RowPtr(r));
      const std::vector<double> tp = lmt.tree().PredictProbaRow(raw.RowPtr(r));
      for (size_t k = 0; k < lr.size(); ++k) {
        lr[k] = 0.8 * lr[k] + 0.2 * tp[k];
      }
      out[r] = std::move(lr);
    } else if (lmt.root_model().fitted()) {
      std::vector<double> lr = lmt.root_model().PredictProbaRow(x.RowPtr(r));
      const std::vector<double> tp = lmt.tree().PredictProbaRow(raw.RowPtr(r));
      for (size_t k = 0; k < lr.size(); ++k) {
        lr[k] = 0.5 * lr[k] + 0.5 * tp[k];
      }
      out[r] = std::move(lr);
    } else {
      out[r] = lmt.tree().PredictProbaRow(raw.RowPtr(r));
    }
  }
  return out;
}

TEST(TreeHistogramTest, OneWalkLmtProbaMatchesTwoWalkLoop) {
  for (const int64_t m : {5, 15, 40}) {
    const Dataset train = GridDataset(91 + static_cast<uint64_t>(m), 0.1, 2);
    const Dataset test = GridDataset(92 + static_cast<uint64_t>(m), 0.1, 2);
    ParamConfig config;
    config.SetInt("M", m);
    LmtClassifier lmt;
    ASSERT_TRUE(lmt.Fit(train, config).ok());
    if (m == 5) {
      ASSERT_GT(lmt.NumLeafModels(), 0u);
    }
    for (const Dataset* data : {&train, &test}) {
      const auto got = lmt.PredictProba(*data);
      ASSERT_TRUE(got.ok());
      const auto want = TwoWalkLmtProba(lmt, *data);
      ASSERT_EQ(got->size(), want.size());
      for (size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ((*got)[r], want[r]) << "M " << m << " row " << r;
      }
    }
  }
}

// C5.0 and DeepBoost grow every round on the training Dataset's cached
// binned view rather than re-binning the raw matrix per fit. Both views come
// from the same Builder, so they are equal, and so are the boosted trees
// grown on them with fractional (boosting-round) weights.
TEST(TreeHistogramTest, CachedBinnedViewMatchesRebuiltView) {
  const Dataset train = GridDataset(81, 0.1, 2);
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const auto cached = train.Binned();
  const auto rebuilt = std::make_shared<const BinnedColumns>(
      BinnedColumns::FromMatrix(x, schema.categorical, schema.cardinalities));
  ASSERT_EQ(cached->num_features(), rebuilt->num_features());
  for (size_t f = 0; f < cached->num_features(); ++f) {
    const BinnedColumn& a = cached->column(f);
    const BinnedColumn& b = rebuilt->column(f);
    EXPECT_EQ(a.num_bins, b.num_bins) << "feature " << f;
    EXPECT_EQ(a.thresholds, b.thresholds) << "feature " << f;
    EXPECT_EQ(a.codes, b.codes) << "feature " << f;
  }

  Rng rng(5);
  std::vector<double> weights(train.NumRows());
  for (double& w : weights) w = rng.Uniform(0.2, 3.0);
  for (bool c50_like : {true, false}) {
    TreeOptions options;
    options.split_mode = TreeSplitMode::kHistogram;
    options.criterion =
        c50_like ? TreeCriterion::kGainRatio : TreeCriterion::kGini;
    options.multiway_categorical = c50_like;
    options.confidence_factor = c50_like ? 0.25 : 0.0;
    options.min_leaf = c50_like ? 2 : 1;
    options.max_depth = c50_like ? 30 : 6;
    const int k = static_cast<int>(train.NumClasses());
    DecisionTree on_cached;
    DecisionTree on_rebuilt;
    ASSERT_TRUE(
        on_cached.Fit(x, schema, train.labels(), k, weights, options, cached)
            .ok());
    ASSERT_TRUE(
        on_rebuilt.Fit(x, schema, train.labels(), k, weights, options, rebuilt)
            .ok());
    ASSERT_EQ(on_cached.NumNodes(), on_rebuilt.NumNodes());
    for (size_t r = 0; r < x.rows(); ++r) {
      ASSERT_EQ(on_cached.PredictProbaRow(x.RowPtr(r)),
                on_rebuilt.PredictProbaRow(x.RowPtr(r)))
          << "row " << r;
    }
  }
}

// Fractional weights change floating-point summation order between the two
// modes, so only closeness is promised.
TEST(TreeHistogramTest, FractionalWeightsStayClose) {
  const Dataset train = GridDataset(13, 0.0, 0);
  Rng rng(3);
  std::vector<double> weights(train.NumRows());
  for (double& w : weights) w = rng.Uniform(0.1, 2.0);
  TreeOptions options;
  options.max_depth = 12;
  options.min_split = 4;
  options.min_leaf = 2;
  const auto [exact, hist] = FitPair(train, weights, options);
  const Matrix x = train.ToRawMatrix();
  const double acc_exact = Accuracy(Predictions(exact, x), train.labels());
  const double acc_hist = Accuracy(Predictions(hist, x), train.labels());
  EXPECT_NEAR(acc_exact, acc_hist, 0.05);
}

// Continuous columns with thousands of distinct values force real quantile
// binning (lossless = false); the histogram tree must stay within a small
// train-accuracy band of the exact tree.
TEST(TreeHistogramTest, QuantileBinnedColumnsStayClose) {
  SyntheticSpec spec;
  spec.num_instances = 3000;
  spec.num_informative = 6;
  spec.num_classes = 4;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.5;
  spec.label_noise = 0.05;
  spec.seed = 17;
  const Dataset train = GenerateSynthetic(spec);
  const auto binned = train.Binned();
  bool any_lossy = false;
  for (size_t f = 0; f < binned->num_features(); ++f) {
    any_lossy |= !binned->column(f).lossless;
    EXPECT_LE(binned->column(f).num_bins, BinnedColumns::kMaxBins);
  }
  ASSERT_TRUE(any_lossy) << "test is not exercising quantile binning";

  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 40;
  options.min_leaf = 20;
  const auto [exact, hist] = FitPair(train, {}, options);
  const Matrix x = train.ToRawMatrix();
  const double acc_exact = Accuracy(Predictions(exact, x), train.labels());
  const double acc_hist = Accuracy(Predictions(hist, x), train.labels());
  EXPECT_GT(acc_exact, 0.6);
  EXPECT_NEAR(acc_exact, acc_hist, 0.05);
}

// Categorical cardinality above 255 cannot be represented in uint8 bin
// codes; histogram mode must silently fall back to exact growth, making the
// trees identical by construction.
TEST(TreeHistogramTest, HighCardinalityCategoricalFallsBackToExact) {
  const size_t kCard = 300;
  const size_t kRows = 600;
  Dataset train("highcard");
  Rng rng(23);
  std::vector<double> codes(kRows);
  std::vector<double> noise(kRows);
  std::vector<int> labels(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    const auto code = rng.UniformInt(kCard);
    codes[r] = static_cast<double>(code);
    noise[r] = rng.Normal();
    labels[r] = static_cast<int>(code % 2);
  }
  std::vector<std::string> categories(kCard);
  for (size_t c = 0; c < kCard; ++c) categories[c] = "c" + std::to_string(c);
  train.AddCategoricalFeature("big", std::move(codes), std::move(categories));
  train.AddNumericFeature("noise", std::move(noise));
  train.SetLabels(std::move(labels), {"even", "odd"});
  ASSERT_TRUE(train.Validate().ok());
  ASSERT_FALSE(train.Binned()->histogram_safe());

  TreeOptions options;
  options.max_depth = 10;
  options.multiway_categorical = true;
  const auto [exact, hist] = FitPair(train, {}, options);
  ExpectIdenticalOnTrain(train, exact, hist);
}

// A pre-built binned view whose shape disagrees with the training matrix is
// a caller bug and must be rejected, not silently misread.
TEST(TreeHistogramTest, MismatchedBinnedViewRejected) {
  const Dataset big = GridDataset(29, 0.0, 0);
  SyntheticSpec small_spec;
  small_spec.num_instances = 100;
  small_spec.num_informative = 6;
  small_spec.seed = 29;
  const Dataset small = GenerateSynthetic(small_spec);

  DecisionTree tree;
  TreeOptions options;
  options.split_mode = TreeSplitMode::kHistogram;
  const Status status = tree.Fit(
      big.ToRawMatrix(), TreeSchema::FromDataset(big), big.labels(),
      static_cast<int>(big.NumClasses()), {}, options, small.Binned());
  EXPECT_FALSE(status.ok());
}

// TSan race case: concurrent Binned() calls on one Dataset (first call
// builds and caches), plus tree fits reading the shared view from several
// threads, plus a RandomForest fit (whose workers share one view through
// ParallelFor). All trees over the same rows must agree with a reference.
TEST(TreeHistogramTest, ConcurrentBinnedViewSharing) {
  const Dataset train = GridDataset(31, 0.05, 1);
  const Matrix x = train.ToRawMatrix();
  const TreeSchema schema = TreeSchema::FromDataset(train);
  const int k = static_cast<int>(train.NumClasses());
  TreeOptions options;
  options.split_mode = TreeSplitMode::kHistogram;
  options.max_depth = 12;
  options.min_split = 4;
  options.min_leaf = 2;

  DecisionTree reference;
  ASSERT_TRUE(reference.Fit(x, schema, train.labels(), k, {}, options,
                            train.Binned())
                  .ok());
  const std::vector<int> expected = Predictions(reference, x);

  constexpr int kThreads = 4;
  std::vector<DecisionTree> trees(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each worker races on the lazy cache and then trains off the view.
      const std::shared_ptr<const BinnedColumns> binned = train.Binned();
      ASSERT_TRUE(trees[static_cast<size_t>(t)]
                      .Fit(x, schema, train.labels(), k, {}, options, binned)
                      .ok());
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& tree : trees) {
    EXPECT_EQ(Predictions(tree, x), expected);
  }

  RandomForestClassifier forest;
  ParamConfig config;
  config.SetInt("ntree", 16);
  ASSERT_TRUE(forest.Fit(train, config).ok());
  const auto proba = forest.PredictProba(train);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ(proba.value().size(), train.NumRows());
}

// ---------------------------------------------------------------------------
// SIMD kernel unit tests.
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, SquaredDistanceMatchesScalarReference) {
  Rng rng(47);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{25}, size_t{64}, size_t{101}}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-100.0, 100.0);
      b[i] = rng.Uniform(-100.0, 100.0);
    }
    double expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      expected += d * d;
    }
    const double got = SquaredDistance(a.data(), b.data(), n);
    EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "n=" << n;
  }
}

TEST(SimdKernelTest, AccumulateBinHistogramMatchesNaiveLoop) {
  Rng rng(53);
  const size_t kRows = 500;
  const size_t kBins = 13;
  const size_t kClasses = 4;
  std::vector<uint8_t> codes(kRows);
  std::vector<int> y(kRows);
  std::vector<double> w(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    // ~10% of rows get the missing code to exercise the overflow slot.
    codes[r] = rng.Bernoulli(0.1)
                   ? BinnedColumns::kMissingBin
                   : static_cast<uint8_t>(rng.UniformInt(kBins));
    y[r] = static_cast<int>(rng.UniformInt(kClasses));
    w[r] = static_cast<double>(rng.UniformInt(4));  // Integer, incl. zero.
  }
  // A strided, shuffled subset of rows, as node partitions produce.
  std::vector<size_t> rows;
  for (size_t r = 0; r < kRows; r += 2) rows.push_back(r);
  rng.Shuffle(&rows);

  std::vector<double> wsum((kBins + 1) * kClasses, 0.0);
  std::vector<uint32_t> cnt(kBins + 1, 0);
  uint64_t occupied[kBinMaskWords] = {0, 0, 0, 0};
  AccumulateBinHistogram(codes.data(), rows.data(), rows.size(), y.data(),
                         w.data(), kClasses, kBins, wsum.data(), cnt.data(),
                         occupied);

  std::vector<double> want_w((kBins + 1) * kClasses, 0.0);
  std::vector<uint32_t> want_c(kBins + 1, 0);
  for (size_t r : rows) {
    size_t b = codes[r];
    if (b > kBins) b = kBins;
    want_w[b * kClasses + static_cast<size_t>(y[r])] += w[r];
    ++want_c[b];
  }
  for (size_t i = 0; i < wsum.size(); ++i) {
    EXPECT_DOUBLE_EQ(wsum[i], want_w[i]) << "slot " << i;
  }
  for (size_t b = 0; b <= kBins; ++b) {
    EXPECT_EQ(cnt[b], want_c[b]) << "bin " << b;
  }
  // The occupancy mask lists exactly the slots some row landed in.
  for (size_t b = 0; b < 64 * kBinMaskWords; ++b) {
    const bool bit = (occupied[b / 64] >> (b % 64)) & 1;
    EXPECT_EQ(bit, b <= kBins && want_c[b] > 0) << "slot " << b;
  }
}

}  // namespace
}  // namespace smartml
