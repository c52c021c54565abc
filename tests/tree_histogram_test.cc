// View oracle tests for the decision tree, golden digests of the retired
// sort-per-node builder, and unit tests for the shared SIMD kernels.
//
// The contract under test (see DESIGN.md): a tree grown with no binned view
// bins its matrix losslessly (every distinct value its own bin), and with
// integral sample weights it is the tree a sort-per-node exact search grows
// (TreeGoldenTest holds that against digests recorded from that builder).
// A tree grown on Dataset::Binned() matches it on every row when the
// columns are lossless there too; quantile binning and fractional weights
// only promise closeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/data/binned_columns.h"
#include "src/data/dataset.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/landmarking.h"
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

// Bootstrap counts: n draws with replacement, so some rows get weight zero.
std::vector<double> BootstrapCounts(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n, 0.0);
  for (size_t r = 0; r < n; ++r) weights[rng.UniformInt(n)] += 1.0;
  return weights;
}

// The forest regime's corpus: 12 classes, 10% missing cells, every numeric
// column snapped to at most 200 values so the binning stays lossless.
Dataset ForestRegimeDataset(uint64_t seed) {
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
  Dataset d = GenerateSynthetic(spec);
  for (size_t f = 0; f < d.NumFeatures(); ++f) {
    auto& values = d.mutable_feature(f).values;
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
  return d;
}

// A 300-category column that decides the label (code parity) next to a
// continuous noise column.
Dataset HighCardinalityDataset(uint64_t seed) {
  const size_t kCard = 300;
  const size_t kRows = 600;
  Dataset d("highcard");
  Rng rng(seed);
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
  d.AddCategoricalFeature("big", std::move(codes), std::move(categories));
  d.AddNumericFeature("noise", std::move(noise));
  d.SetLabels(std::move(labels), {"even", "odd"});
  return d;
}

// 3000 rows of continuous columns: thousands of distinct values per column.
Dataset ContinuousDataset(uint64_t seed) {
  SyntheticSpec spec;
  spec.num_instances = 3000;
  spec.num_informative = 6;
  spec.num_classes = 4;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.5;
  spec.label_noise = 0.05;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TreeOptions GridOptions(TreeCriterion crit, bool multiway) {
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
  return options;
}

TreeOptions DeepOptions() {
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 4;
  options.min_leaf = 2;
  return options;
}

TreeOptions ForestRegimeOptions(uint64_t seed) {
  TreeOptions options;
  options.max_depth = 40;
  options.min_split = 2;
  options.min_leaf = 1;
  options.mtry = 4;
  options.seed = seed;
  return options;
}

TreeOptions HighCardinalityOptions() {
  TreeOptions options;
  options.max_depth = 10;
  options.multiway_categorical = true;
  return options;
}

TreeOptions ContinuousOptions() {
  TreeOptions options;
  options.max_depth = 14;
  options.min_split = 40;
  options.min_leaf = 20;
  return options;
}

// Fits with no binned view, so the matrix is binned losslessly.
DecisionTree FitLossless(const Dataset& train,
                         const std::vector<double>& weights,
                         const TreeOptions& options) {
  DecisionTree tree;
  EXPECT_TRUE(tree.Fit(train.ToRawMatrix(), TreeSchema::FromDataset(train),
                       train.labels(), static_cast<int>(train.NumClasses()),
                       weights, options)
                  .ok());
  return tree;
}

// Fits the same problem with no view (lossless binning) and on the
// Dataset's cached Binned() view, and returns (lossless, binned).
std::pair<DecisionTree, DecisionTree> FitPair(
    const Dataset& train, const std::vector<double>& weights,
    const TreeOptions& options) {
  DecisionTree cached;
  EXPECT_TRUE(cached
                  .Fit(train.ToRawMatrix(), TreeSchema::FromDataset(train),
                       train.labels(), static_cast<int>(train.NumClasses()),
                       weights, options, train.Binned())
                  .ok());
  return {FitLossless(train, weights, options), std::move(cached)};
}

// Asserts the identity contract on the rows that actually trained and, when
// `held_out` is given, on its rows too. Zero-weight rows are dropped before
// growth, so they are skipped with the training rows: the caller passes
// `held_out` only where every column is lossless in both views, so both
// trees split at the same node-local midpoints and route any row alike.
void ExpectIdenticalOnTrain(const Dataset& train, const DecisionTree& lossless,
                            const DecisionTree& cached,
                            const std::vector<double>& weights = {},
                            const Dataset* held_out = nullptr) {
  EXPECT_EQ(lossless.NumLeaves(), cached.NumLeaves());
  EXPECT_EQ(lossless.Depth(), cached.Depth());
  const Matrix x = train.ToRawMatrix();
  const std::vector<int> pl = Predictions(lossless, x);
  const std::vector<int> pc = Predictions(cached, x);
  for (size_t r = 0; r < pl.size(); ++r) {
    if (!weights.empty() && weights[r] <= 0.0) continue;
    ASSERT_EQ(pl[r], pc[r]) << "row " << r;
  }
  if (held_out == nullptr) return;
  const Matrix xh = held_out->ToRawMatrix();
  for (size_t r = 0; r < xh.rows(); ++r) {
    ASSERT_EQ(lossless.PredictProbaRow(xh.RowPtr(r)),
              cached.PredictProbaRow(xh.RowPtr(r)))
        << "held-out row " << r;
  }
}

// Randomized oracle sweep: every criterion, with and without multiway
// categorical splits, missing values, categorical columns, and pruning.
// Lossless bins + unit weights => the tree grown on the cached view must
// match the one grown with no view on every prediction, held-out included.
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
            const Dataset held_out = GridDataset(seed + 500, missing, cats);
            // Sanity: the grid snap must have made every column lossless,
            // otherwise this test is not exercising the identity contract.
            const auto binned = train.Binned();
            for (size_t f = 0; f < binned->num_features(); ++f) {
              ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
            }
            const auto [lossless, cached] =
                FitPair(train, {}, GridOptions(crit, multiway));
            ExpectIdenticalOnTrain(train, lossless, cached, {}, &held_out);
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
  const Dataset held_out = GridDataset(507, 0.0, 2);
  const std::vector<double> weights = BootstrapCounts(train.NumRows(), 99);
  const auto [lossless, cached] = FitPair(train, weights, DeepOptions());
  ExpectIdenticalOnTrain(train, lossless, cached, weights, &held_out);
}

// Missing values + non-uniform weights: the training partition routes
// missing rows to the child with more ROWS, while predict time follows
// majority_child (heaviest by WEIGHT), so a missing row can stray off its
// training path at predict time. Structure stays identical (gains are
// still bit-equal integer sums); predictions promise closeness here.
TEST(TreeHistogramTest, IntegerWeightsWithMissingKeepStructure) {
  const Dataset train = GridDataset(7, 0.05, 2);
  const std::vector<double> weights = BootstrapCounts(train.NumRows(), 99);
  const auto [lossless, cached] = FitPair(train, weights, DeepOptions());
  EXPECT_EQ(lossless.NumLeaves(), cached.NumLeaves());
  EXPECT_EQ(lossless.Depth(), cached.Depth());
  const Matrix x = train.ToRawMatrix();
  const double acc_lossless =
      Accuracy(Predictions(lossless, x), train.labels());
  const double acc_cached = Accuracy(Predictions(cached, x), train.labels());
  EXPECT_NEAR(acc_lossless, acc_cached, 0.05);
}

// Feature subsampling draws from the tree RNG in the same per-node order on
// both views, so identical structure implies identical subsets and the
// identity survives mtry < d.
TEST(TreeHistogramTest, MtrySubsetMatchesExact) {
  const Dataset train = GridDataset(11, 0.0, 1);
  const Dataset held_out = GridDataset(511, 0.0, 1);
  TreeOptions options = DeepOptions();
  options.mtry = 2;
  options.seed = 5;
  const auto [lossless, cached] = FitPair(train, {}, options);
  ExpectIdenticalOnTrain(train, lossless, cached, {}, &held_out);
}

// The regime a random forest grows in: many classes, an mtry subset, no
// depth or leaf gates to speak of (min_leaf 1, depth 40), integer bootstrap
// counts with zeros, and missing cells. Nodes shrink to one to three rows,
// where growth scans only the few bins the rows occupy. Columns are snapped
// to at most 200 values so the cached view stays lossless.
TEST(TreeHistogramTest, ForestRegimeMatchesExact) {
  for (uint64_t seed : {61u, 62u, 63u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const Dataset train = ForestRegimeDataset(seed);
    const Dataset held_out = ForestRegimeDataset(seed + 500);
    const auto binned = train.Binned();
    for (size_t f = 0; f < binned->num_features(); ++f) {
      ASSERT_TRUE(binned->column(f).lossless) << "feature " << f;
    }
    const std::vector<double> weights = BootstrapCounts(train.NumRows(), seed);
    ASSERT_NE(std::count(weights.begin(), weights.end(), 0.0), 0);
    const auto [lossless, cached] =
        FitPair(train, weights, ForestRegimeOptions(seed));
    ExpectIdenticalOnTrain(train, lossless, cached, weights, &held_out);
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

// Fractional weights make sums depend on their order, and so on how the
// histograms were formed (parent minus sibling or from the rows); only
// closeness is promised.
TEST(TreeHistogramTest, FractionalWeightsStayClose) {
  const Dataset train = GridDataset(13, 0.0, 0);
  Rng rng(3);
  std::vector<double> weights(train.NumRows());
  for (double& w : weights) w = rng.Uniform(0.1, 2.0);
  TreeOptions options;
  options.max_depth = 12;
  options.min_split = 4;
  options.min_leaf = 2;
  const auto [lossless, cached] = FitPair(train, weights, options);
  const Matrix x = train.ToRawMatrix();
  const double acc_lossless =
      Accuracy(Predictions(lossless, x), train.labels());
  const double acc_cached = Accuracy(Predictions(cached, x), train.labels());
  EXPECT_NEAR(acc_lossless, acc_cached, 0.05);
}

// Continuous columns with thousands of distinct values force real quantile
// binning (lossless = false) in the cached view, and wide codes in the
// lossless one; the quantile tree must stay within a small train-accuracy
// band of the exact tree.
TEST(TreeHistogramTest, QuantileBinnedColumnsStayClose) {
  const Dataset train = ContinuousDataset(17);
  const auto binned = train.Binned();
  bool any_lossy = false;
  for (size_t f = 0; f < binned->num_features(); ++f) {
    any_lossy |= !binned->column(f).lossless;
    EXPECT_LE(binned->column(f).num_bins, BinnedColumns::kMaxBins);
  }
  ASSERT_TRUE(any_lossy) << "test is not exercising quantile binning";

  const auto [lossless, cached] = FitPair(train, {}, ContinuousOptions());
  const Matrix x = train.ToRawMatrix();
  const double acc_lossless =
      Accuracy(Predictions(lossless, x), train.labels());
  const double acc_cached = Accuracy(Predictions(cached, x), train.labels());
  EXPECT_GT(acc_lossless, 0.6);
  EXPECT_NEAR(acc_lossless, acc_cached, 0.05);
}

// A categorical column with more than 255 categories gets one bin per
// category in the cached view too: wider codes, grown one feature at a time.
TEST(TreeHistogramTest, HighCardinalityCategoricalGetsItsOwnBins) {
  const Dataset train = HighCardinalityDataset(23);
  ASSERT_TRUE(train.Validate().ok());
  const BinnedColumn& big = train.Binned()->column(0);
  ASSERT_EQ(big.num_bins, 300u);
  ASSERT_TRUE(big.lossless);
  const auto [lossless, cached] = FitPair(train, {}, HighCardinalityOptions());
  ExpectIdenticalOnTrain(train, lossless, cached);
}

// A categorical column with more categories than a bin code holds is
// rejected by name, never folded into the missing bin; one category fewer
// fits, and its last category keeps its own bin.
TEST(TreeHistogramTest, CategoricalWiderThanCodeRangeRejected) {
  for (const size_t card : {BinnedColumns::kMaxCodedBins,
                            BinnedColumns::kMaxCodedBins + 1}) {
    SCOPED_TRACE(testing::Message() << "categories=" << card);
    const size_t kRows = 200;
    std::vector<double> codes(kRows);
    std::vector<int> labels(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      // Every fourth row holds the last category, which alone is class 1.
      codes[r] = static_cast<double>(r % 4 == 0 ? card - 1 : r);
      labels[r] = r % 4 == 0 ? 1 : 0;
    }
    std::vector<std::string> categories(card);
    for (size_t c = 0; c < card; ++c) categories[c] = std::to_string(c);
    Dataset train("wide");
    train.AddNumericFeature("x", std::vector<double>(kRows, 1.0));
    train.AddCategoricalFeature("wide", std::move(codes),
                                std::move(categories));
    train.SetLabels(std::move(labels), {"rest", "last"});
    ASSERT_TRUE(train.Validate().ok());
    const Matrix x = train.ToRawMatrix();
    const TreeSchema schema = TreeSchema::FromDataset(train);
    for (const bool cached : {false, true}) {
      DecisionTree tree;
      const Status status =
          tree.Fit(x, schema, train.labels(), 2, {}, TreeOptions(),
                   cached ? train.Binned() : nullptr);
      if (card > BinnedColumns::kMaxCodedBins) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(status.message().find("feature 1"), std::string::npos)
            << status.message();
        continue;
      }
      ASSERT_TRUE(status.ok()) << status.message();
      EXPECT_EQ(tree.NumLeaves(), 2u);
      for (size_t r = 0; r < kRows; ++r) {
        ASSERT_EQ(tree.PredictRow(x.RowPtr(r)), train.label(r)) << "row " << r;
      }
    }
  }
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
// Golden digests of the retired sort-per-node builder.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// FNV-1a over the bit patterns of what a fitted model exposes.
struct Digest {
  uint64_t hash = 14695981039346656037ULL;
  void Add(uint64_t v) { hash = Fnv1a(hash, &v, sizeof(v)); }
  void AddDouble(double v) { hash = Fnv1a(hash, &v, sizeof(v)); }

  // The tree's shape and every split on a root-to-leaf path: feature,
  // operator and threshold (or category) bits, leaf weights and class
  // counts, and the per-feature split gains.
  void AddTree(const DecisionTree& tree, size_t num_features) {
    Add(tree.NumNodes());
    Add(tree.NumLeaves());
    Add(static_cast<uint64_t>(tree.Depth()));
    for (const DecisionTree::LeafRule& rule : tree.ExtractLeafRules()) {
      Add(rule.conditions.size());
      for (const TreeCondition& c : rule.conditions) {
        Add(static_cast<uint64_t>(c.feature));
        Add(static_cast<uint64_t>(c.op));
        AddDouble(c.value);
      }
      AddDouble(rule.weight);
      for (const double c : rule.class_counts) AddDouble(c);
      Add(static_cast<uint64_t>(rule.majority));
    }
    for (const double g : tree.FeatureImportances(num_features)) AddDouble(g);
  }

  void AddProba(const DecisionTree& tree, const Matrix& x) {
    for (size_t r = 0; r < x.rows(); ++r) {
      for (const double p : tree.PredictProbaRow(x.RowPtr(r))) AddDouble(p);
    }
  }
};

struct GoldenDigest {
  const char* name;
  uint64_t digest;
};

// Recorded from the sort-per-node exact builder (re-sorting each feature's
// (value, row) pairs at every node) that lossless growth replaced, with the
// same corpora, weights and options (glibc libm, x86-64). The failure
// message carries the actual row, ready to paste.
const GoldenDigest kGoldenTrees[] = {
    {"grid/42/gini/binary/full/cats0", 0x2920de996981bbc2ULL},
    {"grid/42/gini/binary/full/cats2", 0x978eed246e84d31fULL},
    {"grid/42/gini/binary/missing/cats0", 0x297e0ea8fe110550ULL},
    {"grid/42/gini/binary/missing/cats2", 0xceb0bb7136378c53ULL},
    {"grid/42/gini/multiway/full/cats0", 0x2920de996981bbc2ULL},
    {"grid/42/gini/multiway/full/cats2", 0xc890bd35658c5533ULL},
    {"grid/42/gini/multiway/missing/cats0", 0x297e0ea8fe110550ULL},
    {"grid/42/gini/multiway/missing/cats2", 0xb6042bf74aa873ccULL},
    {"grid/42/entropy/binary/full/cats0", 0x3002499bd31a05abULL},
    {"grid/42/entropy/binary/full/cats2", 0xc45c9b65b0f01866ULL},
    {"grid/42/entropy/binary/missing/cats0", 0xd7b7e9da042b944fULL},
    {"grid/42/entropy/binary/missing/cats2", 0x7a3b8db4d9ea9c04ULL},
    {"grid/42/entropy/multiway/full/cats0", 0x3002499bd31a05abULL},
    {"grid/42/entropy/multiway/full/cats2", 0x9a4c913c1f226b45ULL},
    {"grid/42/entropy/multiway/missing/cats0", 0xd7b7e9da042b944fULL},
    {"grid/42/entropy/multiway/missing/cats2", 0x327fd0a896105608ULL},
    {"grid/42/gainratio/binary/full/cats0", 0xbd00a75a2920ab75ULL},
    {"grid/42/gainratio/binary/full/cats2", 0x48428b294e4a76bdULL},
    {"grid/42/gainratio/binary/missing/cats0", 0x3da0e786056f5d5aULL},
    {"grid/42/gainratio/binary/missing/cats2", 0xb3023a947dbbbd1cULL},
    {"grid/42/gainratio/multiway/full/cats0", 0xbd00a75a2920ab75ULL},
    {"grid/42/gainratio/multiway/full/cats2", 0x25cff89e3e18f3edULL},
    {"grid/42/gainratio/multiway/missing/cats0", 0x3da0e786056f5d5aULL},
    {"grid/42/gainratio/multiway/missing/cats2", 0xee904cec64f69e6cULL},
    {"grid/43/gini/binary/full/cats0", 0x5423f0885e555f7fULL},
    {"grid/43/gini/binary/full/cats2", 0x1c1afe719c26b01bULL},
    {"grid/43/gini/binary/missing/cats0", 0x4670e32313f58a01ULL},
    {"grid/43/gini/binary/missing/cats2", 0xf8a0381301ff7cc0ULL},
    {"grid/43/gini/multiway/full/cats0", 0x5423f0885e555f7fULL},
    {"grid/43/gini/multiway/full/cats2", 0x8f66125c66d011a9ULL},
    {"grid/43/gini/multiway/missing/cats0", 0x4670e32313f58a01ULL},
    {"grid/43/gini/multiway/missing/cats2", 0x60dd257ef72555feULL},
    {"grid/43/entropy/binary/full/cats0", 0x50eb08340b69cb61ULL},
    {"grid/43/entropy/binary/full/cats2", 0x928251953d283f56ULL},
    {"grid/43/entropy/binary/missing/cats0", 0x872189ebad055b9cULL},
    {"grid/43/entropy/binary/missing/cats2", 0x23821b247184780aULL},
    {"grid/43/entropy/multiway/full/cats0", 0x50eb08340b69cb61ULL},
    {"grid/43/entropy/multiway/full/cats2", 0x26e98ef353d8000dULL},
    {"grid/43/entropy/multiway/missing/cats0", 0x872189ebad055b9cULL},
    {"grid/43/entropy/multiway/missing/cats2", 0x5b963384555c9423ULL},
    {"grid/43/gainratio/binary/full/cats0", 0x2b7d13e2de92bd63ULL},
    {"grid/43/gainratio/binary/full/cats2", 0x7df0b6c2286fc2aeULL},
    {"grid/43/gainratio/binary/missing/cats0", 0xcb9cf159f4366cbcULL},
    {"grid/43/gainratio/binary/missing/cats2", 0xf26a9c30412844b8ULL},
    {"grid/43/gainratio/multiway/full/cats0", 0x2b7d13e2de92bd63ULL},
    {"grid/43/gainratio/multiway/full/cats2", 0xc2e5d46ee4da4214ULL},
    {"grid/43/gainratio/multiway/missing/cats0", 0xcb9cf159f4366cbcULL},
    {"grid/43/gainratio/multiway/missing/cats2", 0x83b647f8ccf0a3b7ULL},
    {"bootstrap", 0x25d58558b129288dULL},
    {"bootstrap_missing", 0x0e78edac70d17462ULL},
    {"mtry", 0x34be5bf57aaa382fULL},
    {"forest_regime/61", 0xf4600556d85205fbULL},
    {"forest_regime/62", 0x919b4968be4b2d91ULL},
    {"forest_regime/63", 0xf4046933524a022dULL},
    {"high_cardinality", 0xd94a91dd0f6a930cULL},
    {"continuous_3000", 0xf38056799caea403ULL},
    {"lmt/abalone", 0xb9265b406ae559ccULL},
    {"lmt/madelon", 0x48f6ef77622757e5ULL},
    {"lmt/occupancy", 0xeb079fe1a6f3a500ULL},
    {"landmarks/abalone", 0xc42d4ca9bd9077f3ULL},
    {"landmarks/amazon", 0x24d2dbc60b94edf1ULL},
    {"landmarks/cifar10small", 0xceab41aa88120208ULL},
    {"landmarks/gisette", 0xe850a7c60e186c59ULL},
    {"landmarks/madelon", 0xa0afa02ac940161aULL},
    {"landmarks/mnistBasic", 0xed2058054499c824ULL},
    {"landmarks/semeion", 0xe81caf111a1b7c95ULL},
    {"landmarks/yeast", 0x679d985f8dba203fULL},
    {"landmarks/occupancy", 0x835df44fdce6a637ULL},
    {"landmarks/kin8nm", 0x431c3e78a2fbbd9aULL},
};

void ExpectGoldenDigest(const std::string& name, uint64_t digest) {
  const GoldenDigest* golden = nullptr;
  for (const GoldenDigest& g : kGoldenTrees) {
    if (name == g.name) golden = &g;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                static_cast<unsigned long long>(digest));
  const std::string actual = "{\"" + name + "\", " + hex + "},";
  ASSERT_NE(golden, nullptr) << "no golden for " << actual;
  EXPECT_EQ(digest, golden->digest) << actual;
}

void ExpectGoldenTree(const std::string& name, const Dataset& train,
                      const Dataset& held_out,
                      const std::vector<double>& weights,
                      const TreeOptions& options) {
  const DecisionTree tree = FitLossless(train, weights, options);
  Digest d;
  d.AddTree(tree, train.NumFeatures());
  d.AddProba(tree, train.ToRawMatrix());
  d.AddProba(tree, held_out.ToRawMatrix());
  ExpectGoldenDigest(name, d.hash);
}

TEST(TreeGoldenTest, CorporaMatchRetiredExactBuilder) {
  const char* crit_names[] = {"gini", "entropy", "gainratio"};
  for (uint64_t seed : {42u, 43u}) {
    for (int c = 0; c < 3; ++c) {
      for (bool multiway : {false, true}) {
        for (double missing : {0.0, 0.1}) {
          for (size_t cats : {size_t{0}, size_t{2}}) {
            ExpectGoldenTree(
                "grid/" + std::to_string(seed) + "/" + crit_names[c] +
                    (multiway ? "/multiway" : "/binary") +
                    (missing > 0 ? "/missing" : "/full") + "/cats" +
                    std::to_string(cats),
                GridDataset(seed, missing, cats),
                GridDataset(seed + 500, missing, cats), {},
                GridOptions(static_cast<TreeCriterion>(c), multiway));
          }
        }
      }
    }
  }
  {
    const Dataset train = GridDataset(7, 0.0, 2);
    ExpectGoldenTree("bootstrap", train, GridDataset(507, 0.0, 2),
                     BootstrapCounts(train.NumRows(), 99), DeepOptions());
  }
  {
    const Dataset train = GridDataset(7, 0.05, 2);
    ExpectGoldenTree("bootstrap_missing", train, GridDataset(507, 0.05, 2),
                     BootstrapCounts(train.NumRows(), 99), DeepOptions());
  }
  {
    TreeOptions options = DeepOptions();
    options.mtry = 2;
    options.seed = 5;
    ExpectGoldenTree("mtry", GridDataset(11, 0.0, 1),
                     GridDataset(511, 0.0, 1), {}, options);
  }
  for (uint64_t seed : {61u, 62u, 63u}) {
    const Dataset train = ForestRegimeDataset(seed);
    ExpectGoldenTree("forest_regime/" + std::to_string(seed), train,
                     ForestRegimeDataset(seed + 500),
                     BootstrapCounts(train.NumRows(), seed),
                     ForestRegimeOptions(seed));
  }
  ExpectGoldenTree("high_cardinality", HighCardinalityDataset(23),
                   HighCardinalityDataset(24), {}, HighCardinalityOptions());
  ExpectGoldenTree("continuous_3000", ContinuousDataset(17),
                   ContinuousDataset(18), {}, ContinuousOptions());
}

// LMT grows its structural tree with no binned view.
TEST(TreeGoldenTest, DefaultLmtMatchesRetiredExactBuilder) {
  size_t checked = 0;
  for (const Table4Entry& entry : Table4Datasets()) {
    const std::string& name = entry.spec.name;
    if (name != "abalone" && name != "madelon" && name != "occupancy") {
      continue;
    }
    const auto split = StratifiedSplit(GenerateSynthetic(entry.spec), 0.3, 5);
    ASSERT_TRUE(split.ok());
    LmtClassifier lmt;
    ASSERT_TRUE(
        lmt.Fit(split->train, LmtClassifier::Space().DefaultConfig()).ok());
    const auto proba = lmt.PredictProba(split->validation);
    ASSERT_TRUE(proba.ok());
    Digest d;
    d.AddTree(lmt.tree(), split->train.NumFeatures());
    d.AddProba(lmt.tree(), split->train.ToRawMatrix());
    d.AddProba(lmt.tree(), split->validation.ToRawMatrix());
    for (const auto& row : *proba) {
      for (const double p : row) d.AddDouble(p);
    }
    ExpectGoldenDigest("lmt/" + name, d.hash);
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
}

// The landmark decision stump grows with no binned view.
TEST(TreeGoldenTest, LandmarkersMatchRetiredExactBuilder) {
  size_t checked = 0;
  for (const Table4Entry& entry : Table4Datasets()) {
    const auto landmarks = ExtractLandmarkers(GenerateSynthetic(entry.spec));
    ASSERT_TRUE(landmarks.ok());
    Digest d;
    for (const double v : *landmarks) d.AddDouble(v);
    ExpectGoldenDigest("landmarks/" + entry.spec.name, d.hash);
    ++checked;
  }
  EXPECT_EQ(checked, 10u);
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
  // A narrow column (byte flags folded into 4 words) and a wide one (bits
  // set directly).
  for (const size_t num_bins : {size_t{13}, size_t{1000}}) {
    SCOPED_TRACE(testing::Message() << "bins=" << num_bins);
    Rng rng(53);
    const size_t kRows = 500;
    const size_t kClasses = 4;
    std::vector<uint16_t> codes(kRows);
    std::vector<int> y(kRows);
    std::vector<double> w(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      // ~10% of rows get the missing code to exercise the overflow slot.
      codes[r] = rng.Bernoulli(0.1)
                     ? BinnedColumns::kMissingBin
                     : static_cast<uint16_t>(rng.UniformInt(num_bins));
      y[r] = static_cast<int>(rng.UniformInt(kClasses));
      w[r] = static_cast<double>(rng.UniformInt(4));  // Integer, incl. zero.
    }
    // A strided, shuffled subset of rows, as node partitions produce.
    std::vector<size_t> rows;
    for (size_t r = 0; r < kRows; r += 2) rows.push_back(r);
    rng.Shuffle(&rows);

    std::vector<double> wsum((num_bins + 1) * kClasses, 0.0);
    std::vector<uint32_t> cnt(num_bins + 1, 0);
    std::vector<uint64_t> occupied(std::max(kBinMaskWords, num_bins / 64 + 1),
                                   0);
    AccumulateBinHistogram(codes.data(), rows.data(), rows.size(), y.data(),
                           w.data(), kClasses, num_bins, wsum.data(),
                           cnt.data(), occupied.data());

    std::vector<double> want_w((num_bins + 1) * kClasses, 0.0);
    std::vector<uint32_t> want_c(num_bins + 1, 0);
    for (size_t r : rows) {
      size_t b = codes[r];
      if (b > num_bins) b = num_bins;
      want_w[b * kClasses + static_cast<size_t>(y[r])] += w[r];
      ++want_c[b];
    }
    for (size_t i = 0; i < wsum.size(); ++i) {
      EXPECT_DOUBLE_EQ(wsum[i], want_w[i]) << "slot " << i;
    }
    for (size_t b = 0; b <= num_bins; ++b) {
      EXPECT_EQ(cnt[b], want_c[b]) << "bin " << b;
    }
    // The occupancy mask lists exactly the slots some row landed in.
    for (size_t b = 0; b < 64 * occupied.size(); ++b) {
      const bool bit = (occupied[b / 64] >> (b % 64)) & 1;
      EXPECT_EQ(bit, b <= num_bins && want_c[b] > 0) << "slot " << b;
    }
  }
}

}  // namespace
}  // namespace smartml
