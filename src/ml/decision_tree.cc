#include "src/ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/distributions.h"
#include "src/common/simd.h"
#include "src/common/strings.h"

namespace smartml {

namespace {

// Impurities over a raw K-vector of class weights. Growth calls them once
// per candidate boundary, so they take pointers into its scratch instead of
// vectors. The operations and their order are fixed: with integral weights
// every gain is bit-identical to the one a sort-per-node search computes.
inline double GiniImpurity(const double* counts, size_t num_k, double total) {
  if (total <= 0) return 0.0;
  double sum_sq = 0.0;
  for (size_t k = 0; k < num_k; ++k) {
    const double p = counts[k] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

inline double EntropyImpurity(const double* counts, size_t num_k,
                              double total) {
  if (total <= 0) return 0.0;
  double h = 0.0;
  for (size_t k = 0; k < num_k; ++k) {
    const double c = counts[k];
    if (c <= 0) continue;
    const double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

inline double Impurity(TreeCriterion criterion, const double* counts,
                       size_t num_k, double total) {
  return criterion == TreeCriterion::kGini
             ? GiniImpurity(counts, num_k, total)
             : EntropyImpurity(counts, num_k, total);
}

struct SplitCandidate {
  bool valid = false;
  int feature = -1;
  bool categorical = false;
  bool multiway = false;
  double threshold = 0.0;
  int category = -1;
  int bin = -1;  // Numeric rows go left iff code <= bin.
  double score = -std::numeric_limits<double>::infinity();
  double gain = 0.0;  // Weighted impurity decrease (always entropy/gini gain).
};

// Words of the occupancy mask that hold bits for `slots` histogram slots.
constexpr size_t MaskWords(size_t slots) { return (slots + 63) / 64; }

// Writes the set bits of an occupancy mask that are below `limit` to `out`,
// ascending, and returns how many there are.
size_t OccupiedBins(const uint64_t* occupied, size_t limit, uint16_t* out) {
  size_t n = 0;
  for (size_t i = 0; i < MaskWords(limit); ++i) {
    for (uint64_t bits = occupied[i]; bits != 0; bits &= bits - 1) {
      const size_t b = i * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (b >= limit) return n;
      out[n++] = static_cast<uint16_t>(b);
    }
  }
  return n;
}

// Zeroes the histogram slots an occupancy mask lists, then the mask: the
// slots nobody touched are zero already. `slots` is the feature's slot
// count (num_bins + 1); when most of them are occupied one contiguous fill
// is cheaper than visiting them bit by bit, and costs no more than twice
// the occupied slots.
void ClearOccupied(double* wsum, uint32_t* cnt, uint64_t* occupied,
                   size_t slots, size_t num_k) {
  const size_t words = MaskWords(slots);
  size_t num_occupied = 0;
  for (size_t i = 0; i < words; ++i) {
    num_occupied += static_cast<size_t>(std::popcount(occupied[i]));
  }
  if (2 * num_occupied >= slots) {
    std::fill(wsum, wsum + slots * num_k, 0.0);
    std::fill(cnt, cnt + slots, 0u);
    std::fill(occupied, occupied + words, uint64_t{0});
    return;
  }
  for (size_t i = 0; i < words; ++i) {
    for (uint64_t bits = occupied[i]; bits != 0; bits &= bits - 1) {
      const size_t b = i * 64 + static_cast<size_t>(std::countr_zero(bits));
      for (size_t k = 0; k < num_k; ++k) wsum[b * num_k + k] = 0.0;
      cnt[b] = 0;
    }
    occupied[i] = 0;
  }
}

// Per-bin class-weight sums and row counts of one or more features, with
// the occupancy masks that list their nonzero slots.
struct BinHistogram {
  std::vector<double> wsum;
  std::vector<uint32_t> cnt;
  std::vector<uint64_t> occ;
};

// All-feature histograms a finished fit handed back on this thread, all
// zero, kept for the next fit whose layout has the same size. A tree needs
// only a handful of them, but returning them to the allocator after every
// fit made the next fit fault their pages back in and zero them again.
// Capped so a thread never keeps more than kMaxCachedHistBytes.
struct HistCache {
  size_t total_w = 0;
  size_t total_n = 0;
  size_t occ_words = 0;
  std::vector<BinHistogram> hists;
};
constexpr size_t kMaxCachedHistBytes = size_t{8} << 20;
thread_local HistCache hist_cache;

// Scratch of one split scan, sized once per tree.
struct ScanScratch {
  std::vector<double> left;
  std::vector<double> right;
  std::vector<double> total;
  std::vector<uint16_t> bins;  // Occupied value bins, ascending.
};

// Searches one feature's bin histogram for the best split and records it in
// `best` when it beats the incumbent. Only the bins `occupied` lists are
// visited, in ascending order. A slot off the mask holds exactly zero, so
// skipping it skips additions of +0.0 and boundaries the full sweep would
// pass over, and the sums, gains and winner are those of a sweep over every
// bin. A slot on the mask with a zero row count (a fractional-weight residue
// of parent-minus-sibling subtraction) is summed but never a boundary, as
// in that sweep.
void ScanFeature(const TreeOptions& options, size_t num_k, size_t f,
                 const BinnedColumn& col, const double* wsum,
                 const uint32_t* cnt, const uint64_t* occupied,
                 double parent_weight, ScanScratch* scratch,
                 SplitCandidate* best) {
  const size_t nb = col.num_bins;
  const TreeCriterion impurity_criterion =
      options.criterion == TreeCriterion::kGainRatio ? TreeCriterion::kEntropy
                                                     : options.criterion;
  double* left_counts = scratch->left.data();
  double* right_counts = scratch->right.data();
  double* total_counts = scratch->total.data();
  const uint16_t* bins = scratch->bins.data();
  const size_t num_occupied =
      OccupiedBins(occupied, nb, scratch->bins.data());

  // Present/missing totals straight from the bin slots (slot nb holds the
  // missing rows).
  size_t present_n = 0;
  std::fill(total_counts, total_counts + num_k, 0.0);
  for (size_t j = 0; j < num_occupied; ++j) {
    const size_t b = bins[j];
    present_n += cnt[b];
    for (size_t k = 0; k < num_k; ++k) {
      total_counts[k] += wsum[b * num_k + k];
    }
  }
  if (present_n < 2 * options.min_leaf) return;
  double present_weight = 0.0;
  for (size_t k = 0; k < num_k; ++k) present_weight += total_counts[k];
  if (present_weight <= 0) return;
  double missing_weight = 0.0;
  for (size_t k = 0; k < num_k; ++k) missing_weight += wsum[nb * num_k + k];
  const double known_fraction =
      present_weight / (present_weight + missing_weight);
  const double total_impurity =
      Impurity(impurity_criterion, total_counts, num_k, present_weight);

  if (!col.categorical) {
    std::fill(left_counts, left_counts + num_k, 0.0);
    double left_weight = 0.0;
    size_t left_n = 0;
    for (size_t j = 0; j < num_occupied; ++j) {
      const size_t b = bins[j];
      // The last bin's upper edge splits nothing off.
      if (b + 1 >= nb) break;
      for (size_t k = 0; k < num_k; ++k) {
        const double c = wsum[b * num_k + k];
        left_counts[k] += c;
        left_weight += c;
      }
      left_n += cnt[b];
      // A boundary whose bin holds no rows partitions the rows as the
      // previous candidate did.
      if (cnt[b] == 0) continue;
      const size_t right_n = present_n - left_n;
      if (left_n < options.min_leaf || right_n < options.min_leaf) continue;
      const double right_weight = present_weight - left_weight;
      for (size_t k = 0; k < num_k; ++k) {
        right_counts[k] = total_counts[k] - left_counts[k];
      }
      const double child_impurity =
          (left_weight * Impurity(impurity_criterion, left_counts, num_k,
                                  left_weight) +
           right_weight * Impurity(impurity_criterion, right_counts, num_k,
                                   right_weight)) /
          present_weight;
      double gain = (total_impurity - child_impurity) * known_fraction;
      if (gain <= 0) continue;
      double score = gain;
      if (options.criterion == TreeCriterion::kGainRatio) {
        const double pl = left_weight / present_weight;
        const double pr = right_weight / present_weight;
        const double split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
        if (split_info < 1e-9) continue;
        score = gain / split_info;
      }
      if (score > best->score) {
        best->valid = true;
        best->feature = static_cast<int>(f);
        best->categorical = false;
        best->multiway = false;
        if (col.lossless) {
          // Between this bin's value and the next one the node's rows hold:
          // the midpoint of adjacent distinct values at the node.
          size_t next = j + 1;
          while (cnt[bins[next]] == 0) ++next;
          best->threshold =
              SplitMidpoint(col.values[b], col.values[bins[next]]);
        } else {
          best->threshold = col.thresholds[b];
        }
        best->bin = static_cast<int>(b);
        best->score = score;
        best->gain = gain * parent_weight;
      }
    }
  } else if (options.multiway_categorical && nb >= 2) {
    // One child per category (bin code == category code).
    size_t populated = 0;
    double child_impurity = 0.0;
    double split_info = 0.0;
    bool leaf_ok = true;
    for (size_t j = 0; j < num_occupied; ++j) {
      const size_t c = bins[j];
      if (cnt[c] == 0) continue;
      ++populated;
      if (cnt[c] < options.min_leaf) leaf_ok = false;
      double cw = 0.0;
      for (size_t k = 0; k < num_k; ++k) {
        left_counts[k] = wsum[c * num_k + k];
        cw += left_counts[k];
      }
      child_impurity +=
          cw * Impurity(impurity_criterion, left_counts, num_k, cw);
      const double p = cw / present_weight;
      if (p > 0) split_info -= p * std::log2(p);
    }
    child_impurity /= present_weight;
    if (populated >= 2 && leaf_ok) {
      double gain = (total_impurity - child_impurity) * known_fraction;
      if (gain > 0) {
        double score = gain;
        if (options.criterion == TreeCriterion::kGainRatio) {
          if (split_info >= 1e-9) {
            score = gain / split_info;
          } else {
            score = -std::numeric_limits<double>::infinity();
          }
        }
        if (score > best->score) {
          best->valid = true;
          best->feature = static_cast<int>(f);
          best->categorical = true;
          best->multiway = true;
          best->score = score;
          best->gain = gain * parent_weight;
        }
      }
    }
  } else {
    // Binary one-vs-rest categorical splits. A category no row holds fails
    // the min_leaf >= 1 gate, so only occupied ones are tried.
    for (size_t j = 0; j < num_occupied; ++j) {
      const size_t c = bins[j];
      const size_t left_n = cnt[c];
      const size_t right_n = present_n - left_n;
      if (left_n < options.min_leaf || right_n < options.min_leaf) continue;
      double left_weight = 0.0;
      for (size_t k = 0; k < num_k; ++k) {
        left_counts[k] = wsum[c * num_k + k];
        left_weight += left_counts[k];
        right_counts[k] = total_counts[k] - left_counts[k];
      }
      const double right_weight = present_weight - left_weight;
      const double child_impurity =
          (left_weight * Impurity(impurity_criterion, left_counts, num_k,
                                  left_weight) +
           right_weight * Impurity(impurity_criterion, right_counts, num_k,
                                   right_weight)) /
          present_weight;
      double gain = (total_impurity - child_impurity) * known_fraction;
      if (gain <= 0) continue;
      double score = gain;
      if (options.criterion == TreeCriterion::kGainRatio) {
        const double pl = left_weight / present_weight;
        const double pr = right_weight / present_weight;
        const double split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
        if (split_info < 1e-9) continue;
        score = gain / split_info;
      }
      if (score > best->score) {
        best->valid = true;
        best->feature = static_cast<int>(f);
        best->categorical = true;
        best->multiway = false;
        best->category = static_cast<int>(c);
        best->score = score;
        best->gain = gain * parent_weight;
      }
    }
  }
}

}  // namespace

TreeSchema TreeSchema::FromDataset(const Dataset& dataset) {
  TreeSchema schema;
  schema.categorical.reserve(dataset.NumFeatures());
  schema.cardinalities.reserve(dataset.NumFeatures());
  for (const auto& f : dataset.features()) {
    schema.categorical.push_back(f.is_categorical());
    schema.cardinalities.push_back(f.is_categorical() ? f.num_categories() : 0);
  }
  return schema;
}

std::string TreeCondition::ToString(const Dataset& schema_source) const {
  const auto& feat = schema_source.feature(static_cast<size_t>(feature));
  std::string name = feat.name;
  switch (op) {
    case Op::kLessEq:
      return StrFormat("%s <= %.4g", name.c_str(), value);
    case Op::kGreater:
      return StrFormat("%s > %.4g", name.c_str(), value);
    case Op::kEquals:
      return name + " = " +
             (feat.is_categorical() &&
                      static_cast<size_t>(value) < feat.categories.size()
                  ? feat.categories[static_cast<size_t>(value)]
                  : StrFormat("%.4g", value));
    case Op::kNotEquals:
      return name + " != " +
             (feat.is_categorical() &&
                      static_cast<size_t>(value) < feat.categories.size()
                  ? feat.categories[static_cast<size_t>(value)]
                  : StrFormat("%.4g", value));
  }
  return "?";
}

// Per-Fit workspace of tree growth. A node's rows are the span
// rows[begin, end); splitting a node partitions its span in place, stably
// (through `stage`), into its children's spans. Histogram buffers are all
// zero whenever no node holds them: whoever is done with one zeroes just the
// slots its occupancy masks list, so no node pays for bins its rows never
// touched. Nothing here is allocated per node once the first few nodes have
// sized the buffers.
struct DecisionTree::GrowState {
  // Feature f's slots of an all-feature histogram: class-weight sums at
  // wsum[off_w[f] .. off_w[f] + (num_bins + 1) * K), row counts at
  // cnt[off_n[f] .. off_n[f] + num_bins + 1) (slot num_bins is the missing
  // bin) and its mask at occ[f * kBinMaskWords ..] (a pooled view's
  // columns are all narrow).
  using Hist = BinHistogram;

  GrowState(const BinnedColumns& binned_view, const std::vector<int>& labels,
            const std::vector<double>& weights, size_t classes,
            std::vector<size_t> train_rows)
      : binned(binned_view),
        y(labels.data()),
        w(weights.data()),
        num_k(classes),
        rows(std::move(train_rows)) {
    const size_t d = binned.num_features();
    off_w.reserve(d);
    off_n.reserve(d);
    size_t max_slots = 0;
    for (size_t f = 0; f < d; ++f) {
      const size_t slots = binned.column(f).num_bins + size_t{1};
      off_w.push_back(total_w);
      off_n.push_back(total_n);
      total_w += slots * num_k;
      total_n += slots;
      max_slots = std::max(max_slots, slots);
    }
    // A column wider than kBinMaskSlots slots (a lossless numeric column
    // with many distinct values, a categorical one with many categories)
    // makes every node histogram one feature at a time: an all-feature
    // histogram would cost the sum of the columns' bins, and the pool holds
    // one per tree level.
    pooled = max_slots <= kBinMaskSlots;
    stage.resize(rows.size());
    features.resize(d);
    one.wsum.assign(max_slots * num_k, 0.0);
    one.cnt.assign(max_slots, 0);
    one.occ.assign(std::max(kBinMaskWords, MaskWords(max_slots)), 0);
    scan.left.resize(num_k);
    scan.right.resize(num_k);
    scan.total.resize(num_k);
    scan.bins.resize(max_slots);
    if (hist_cache.total_w == total_w && hist_cache.total_n == total_n &&
        hist_cache.occ_words == d * kBinMaskWords) {
      hists = std::move(hist_cache.hists);
      for (size_t h = 0; h < hists.size(); ++h) {
        free_hists.push_back(static_cast<int>(h));
      }
    }
    hist_cache.hists.clear();
  }

  /// Hands the histograms to this thread's cache when every one is back in
  /// the pool (and so zero) and they fit under the cap.
  ~GrowState() {
    const size_t bytes =
        hists.size() * (total_w * sizeof(double) + total_n * sizeof(uint32_t));
    if (free_hists.size() != hists.size() || bytes > kMaxCachedHistBytes) {
      return;
    }
    hist_cache.total_w = total_w;
    hist_cache.total_n = total_n;
    hist_cache.occ_words = off_w.size() * kBinMaskWords;
    hist_cache.hists = std::move(hists);
  }

  GrowState(const GrowState&) = delete;
  GrowState& operator=(const GrowState&) = delete;

  /// A zeroed all-feature histogram from the pool.
  int Acquire() {
    if (!free_hists.empty()) {
      const int h = free_hists.back();
      free_hists.pop_back();
      return h;
    }
    Hist hist;
    hist.wsum.assign(total_w, 0.0);
    hist.cnt.assign(total_n, 0);
    hist.occ.assign(off_w.size() * kBinMaskWords, 0);
    hists.push_back(std::move(hist));
    return static_cast<int>(hists.size()) - 1;
  }

  /// Zeroes histogram `h` and returns it to the pool (no-op for -1).
  void Release(int h) {
    if (h < 0) return;
    Hist& hist = hists[static_cast<size_t>(h)];
    for (size_t f = 0; f < off_w.size(); ++f) {
      ClearOccupied(hist.wsum.data() + off_w[f], hist.cnt.data() + off_n[f],
                    hist.occ.data() + f * kBinMaskWords,
                    binned.column(f).num_bins + size_t{1}, num_k);
    }
    free_hists.push_back(h);
  }

  /// Adds rows[begin, end) into every feature of histogram `h`.
  void Accumulate(int h, size_t begin, size_t end) {
    Hist& hist = hists[static_cast<size_t>(h)];
    for (size_t f = 0; f < off_w.size(); ++f) {
      const BinnedColumn& col = binned.column(f);
      AccumulateBinHistogram(col.codes.data(), rows.data() + begin,
                             end - begin, y, w, num_k, col.num_bins,
                             hist.wsum.data() + off_w[f],
                             hist.cnt.data() + off_n[f],
                             hist.occ.data() + f * kBinMaskWords);
    }
  }

  /// hists[to] -= hists[from], where `from` holds a subset of `to`'s rows:
  /// turns a parent histogram into the larger child's once the smaller
  /// child has been accumulated. Only the slots the smaller child occupies
  /// change; one left with no rows and all-zero sums drops off the mask.
  void Subtract(int to, int from) {
    Hist& big = hists[static_cast<size_t>(to)];
    const Hist& small = hists[static_cast<size_t>(from)];
    for (size_t f = 0; f < off_w.size(); ++f) {
      double* bw = big.wsum.data() + off_w[f];
      uint32_t* bc = big.cnt.data() + off_n[f];
      uint64_t* bo = big.occ.data() + f * kBinMaskWords;
      const double* sw = small.wsum.data() + off_w[f];
      const uint32_t* sc = small.cnt.data() + off_n[f];
      const uint64_t* so = small.occ.data() + f * kBinMaskWords;
      for (size_t i = 0; i < kBinMaskWords; ++i) {
        for (uint64_t bits = so[i]; bits != 0; bits &= bits - 1) {
          const int bit = std::countr_zero(bits);
          const size_t b = i * 64 + static_cast<size_t>(bit);
          double* slot = bw + b * num_k;
          const double* sub = sw + b * num_k;
          for (size_t k = 0; k < num_k; ++k) slot[k] -= sub[k];
          bc[b] -= sc[b];
          if (bc[b] != 0) continue;
          bool zero = true;
          for (size_t k = 0; k < num_k; ++k) zero &= slot[k] == 0.0;
          if (zero) {
            std::fill(slot, slot + num_k, 0.0);
            bo[i] &= ~(uint64_t{1} << bit);
          }
        }
      }
    }
  }

  const BinnedColumns& binned;
  const int* y;
  const double* w;
  size_t num_k;
  std::vector<size_t> off_w;
  std::vector<size_t> off_n;
  size_t total_w = 0;
  size_t total_n = 0;
  /// Whether full-feature nodes keep all-feature histograms from the pool
  /// (false when a column is wider than kBinMaskSlots slots).
  bool pooled = true;

  std::vector<size_t> rows;
  std::vector<size_t> stage;
  std::vector<size_t> features;
  /// Child span bounds of the nodes on the current root-to-node path,
  /// used as a stack: a node pushes its children's k + 1 bounds.
  std::vector<size_t> bounds;
  /// Per-category write cursors of a multiway partition.
  std::vector<size_t> cursor;
  /// One feature's histogram at a time, for nodes that keep no pooled one.
  Hist one;
  std::vector<Hist> hists;
  std::vector<int> free_hists;
  ScanScratch scan;
};

Status DecisionTree::Fit(const Matrix& x, const TreeSchema& schema,
                         const std::vector<int>& y, int num_classes,
                         const std::vector<double>& weights,
                         const TreeOptions& options,
                         std::shared_ptr<const BinnedColumns> binned) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("DecisionTree: bad training shape");
  }
  if (schema.categorical.size() != x.cols()) {
    return Status::InvalidArgument("DecisionTree: schema/feature mismatch");
  }
  if (num_classes < 1) {
    return Status::InvalidArgument("DecisionTree: need >= 1 class");
  }
  nodes_.clear();
  schema_ = schema;
  options_ = options;
  // A child must hold a row. (A zero min_leaf would only admit one-vs-rest
  // splits on a category no row holds, which partition nothing.)
  options_.min_leaf = std::max<size_t>(options_.min_leaf, 1);
  num_classes_ = num_classes;

  std::vector<double> w = weights;
  if (w.empty()) w.assign(x.rows(), 1.0);
  if (w.size() != x.rows()) {
    return Status::InvalidArgument("DecisionTree: weight/row mismatch");
  }

  // Rows with zero weight (e.g. out-of-bootstrap samples) are excluded
  // entirely so they influence neither counts nor split thresholds.
  std::vector<size_t> rows;
  rows.reserve(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    if (w[r] > 0.0) rows.push_back(r);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("DecisionTree: all weights are zero");
  }
  Rng rng(options.seed);

  if (!binned) {
    binned = std::make_shared<const BinnedColumns>(
        BinnedColumns::FromMatrix(x, schema.categorical, schema.cardinalities,
                                  BinnedColumns::kMaxCodedBins));
  } else if (binned->num_rows() != x.rows() ||
             binned->num_features() != x.cols()) {
    return Status::InvalidArgument(
        "DecisionTree: binned view does not match the training matrix");
  }
  for (size_t f = 0; f < binned->num_features(); ++f) {
    const BinnedColumn& col = binned->column(f);
    // Codes past the range would alias the missing bin.
    if (col.categorical && col.cardinality > col.num_bins) {
      return Status::InvalidArgument(StrFormat(
          "DecisionTree: categorical feature %zu has %zu categories; a bin "
          "code holds at most %zu",
          f, col.cardinality, BinnedColumns::kMaxCodedBins));
    }
  }

  GrowState state(*binned, y, w, static_cast<size_t>(num_classes_),
                  std::move(rows));
  BuildNodeHist(&state, 0, state.rows.size(), 0, &rng, -1);
  if (options_.confidence_factor > 0) Prune(0);
  return Status::OK();
}

// Grows one node by searching the bin boundaries of the binned view: each
// candidate's class counts come from a prefix scan over per-bin histograms.
// Per feature a node costs O(rows + occupied bins * classes): accumulation
// records which bins the node's rows touch, the scan visits only those, and
// only those are zeroed afterwards, so the deep, small nodes of a fully
// grown forest do not pay for the bins a column has. On a lossless column
// the candidates are every boundary between distinct values at the node and
// the threshold is their midpoint, so with integral weights the tree is the
// one a sort-per-node search grows, held-out routing included. A quantile
// column splits at its global bin edges.
int DecisionTree::BuildNodeHist(GrowState* s, size_t begin, size_t end,
                                int depth, Rng* rng, int hist) {
  const size_t num_k = s->num_k;
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.depth = depth;
    node.class_counts.assign(num_k, 0.0);
    for (size_t i = begin; i < end; ++i) {
      const size_t r = s->rows[i];
      node.class_counts[static_cast<size_t>(s->y[r])] += s->w[r];
      node.weight += s->w[r];
    }
    node.majority = ArgMaxCount(node.class_counts);
  }

  auto is_pure = [&]() {
    const Node& node = nodes_[static_cast<size_t>(index)];
    return node.class_counts[static_cast<size_t>(node.majority)] >=
           node.weight - 1e-12;
  };

  if (depth >= options_.max_depth || end - begin < options_.min_split ||
      is_pure()) {
    s->Release(hist);
    return index;
  }

  const double parent_weight = nodes_[static_cast<size_t>(index)].weight;
  const double parent_impurity =
      Impurity(options_.criterion == TreeCriterion::kGainRatio
                   ? TreeCriterion::kEntropy
                   : options_.criterion,
               nodes_[static_cast<size_t>(index)].class_counts.data(), num_k,
               parent_weight);
  if (parent_impurity <= 1e-12) {
    s->Release(hist);
    return index;
  }

  const size_t d = s->binned.num_features();
  std::iota(s->features.begin(), s->features.end(), size_t{0});
  size_t num_tried = d;
  if (options_.mtry > 0 && static_cast<size_t>(options_.mtry) < d) {
    rng->Shuffle(&s->features);
    num_tried = static_cast<size_t>(options_.mtry);
  }

  // Full-feature nodes keep one histogram spanning all features so a binary
  // split can hand the larger child `parent - smaller sibling` instead of
  // rescanning its rows; mtry nodes sample different features at every node,
  // and a view with a wide column keeps no all-feature histograms, so those
  // accumulate one column at a time and retain nothing.
  const bool full_features = num_tried == d && s->pooled;
  if (full_features && hist < 0) {
    hist = s->Acquire();
    s->Accumulate(hist, begin, end);
  }

  SplitCandidate best;
  for (size_t i = 0; i < num_tried; ++i) {
    const size_t f = s->features[i];
    const BinnedColumn& col = s->binned.column(f);
    if (col.num_bins == 0) continue;
    if (full_features) {
      const GrowState::Hist& h = s->hists[static_cast<size_t>(hist)];
      ScanFeature(options_, num_k, f, col, h.wsum.data() + s->off_w[f],
                  h.cnt.data() + s->off_n[f],
                  h.occ.data() + f * kBinMaskWords, parent_weight, &s->scan,
                  &best);
    } else {
      GrowState::Hist& one = s->one;
      AccumulateBinHistogram(col.codes.data(), s->rows.data() + begin,
                             end - begin, s->y, s->w, num_k, col.num_bins,
                             one.wsum.data(), one.cnt.data(), one.occ.data());
      ScanFeature(options_, num_k, f, col, one.wsum.data(), one.cnt.data(),
                  one.occ.data(), parent_weight, &s->scan, &best);
      ClearOccupied(one.wsum.data(), one.cnt.data(), one.occ.data(),
                    col.num_bins + size_t{1}, num_k);
    }
  }

  if (!best.valid ||
      best.gain <
          options_.min_impurity_decrease * parent_weight * parent_impurity +
              1e-15) {
    s->Release(hist);
    return index;
  }

  // Partition the span by bin code (codes and raw values induce the same
  // partition on the node's rows: every value in bins <= b is <= the
  // threshold). Codes at or past num_bins are the missing bin. Each child
  // keeps its rows in span order and missing rows follow the most populated
  // child's. The children's k + 1 span bounds go on the bounds stack.
  const auto f = static_cast<size_t>(best.feature);
  const uint16_t* codes = s->binned.column(f).codes.data();
  const size_t nb = s->binned.column(f).num_bins;
  size_t* rows = s->rows.data();
  const size_t base = s->bounds.size();
  size_t num_children;
  if (best.multiway) {
    const size_t* stage = s->stage.data();
    std::copy(rows + begin, rows + end, s->stage.data() + begin);
    num_children = std::max<size_t>(schema_.cardinalities[f], 1);
    std::vector<size_t>& cursor = s->cursor;
    cursor.assign(num_children, 0);
    size_t missing = 0;
    for (size_t i = begin; i < end; ++i) {
      const size_t code = codes[stage[i]];
      if (code >= nb) {
        ++missing;
      } else {
        ++cursor[code];
      }
    }
    size_t heaviest = 0;
    for (size_t c = 1; c < num_children; ++c) {
      if (cursor[c] > cursor[heaviest]) heaviest = c;
    }
    size_t missing_at = 0;
    size_t at = begin;
    for (size_t c = 0; c < num_children; ++c) {
      s->bounds.push_back(at);
      const size_t count = cursor[c];
      cursor[c] = at;
      at += count;
      if (c == heaviest) {
        missing_at = at;
        at += missing;
      }
    }
    s->bounds.push_back(at);
    for (size_t i = begin; i < end; ++i) {
      const size_t r = stage[i];
      const size_t code = codes[r];
      rows[code >= nb ? missing_at++ : cursor[code]++] = r;
    }
  } else {
    num_children = 2;
    // Branch-free: which side a row takes is data, so branching on it
    // would mispredict on every other row.
    const bool categorical = best.categorical;
    const auto category = static_cast<size_t>(std::max(best.category, 0));
    const auto bin = static_cast<size_t>(std::max(best.bin, 0));
    auto goes_left = [&](size_t code) {
      return categorical ? code == category : code <= bin;
    };
    // One pass: left rows move down in place (the write cursor never passes
    // the read cursor), right rows queue up in the stage from `begin`,
    // missing rows from the back of the span, in reverse.
    size_t num_left = 0;
    size_t num_right = 0;
    size_t num_missing = 0;
    size_t* stage = s->stage.data();
    for (size_t i = begin; i < end; ++i) {
      const size_t r = rows[i];
      const size_t code = codes[r];
      const bool missing = code >= nb;
      const bool left = !missing & goes_left(code);
      const bool right = !missing & !left;
      rows[begin + num_left] = r;
      stage[missing ? end - 1 - num_missing : begin + num_right] = r;
      num_left += left;
      num_right += right;
      num_missing += missing;
    }
    // Missing rows follow the more populated side.
    const bool missing_left = num_left >= num_right;
    size_t at = begin + num_left;
    if (missing_left) {
      for (size_t m = 0; m < num_missing; ++m) rows[at++] = stage[end - 1 - m];
    }
    const size_t right_begin = at;
    std::copy(stage + begin, stage + begin + num_right, rows + at);
    at += num_right;
    if (!missing_left) {
      for (size_t m = 0; m < num_missing; ++m) rows[at++] = stage[end - 1 - m];
    }
    s->bounds.push_back(begin);
    s->bounds.push_back(right_begin);
    s->bounds.push_back(end);
  }

  // Degenerate partitions can occur after missing-value routing.
  size_t populated = 0;
  for (size_t c = 0; c < num_children; ++c) {
    if (s->bounds[base + c + 1] > s->bounds[base + c]) ++populated;
  }
  if (populated < 2) {
    s->bounds.resize(base);
    s->Release(hist);
    return index;
  }

  {
    Node& node = nodes_[static_cast<size_t>(index)];
    node.leaf = false;
    node.feature = best.feature;
    node.categorical_split = best.categorical;
    node.threshold = best.threshold;
    node.category = best.category;
    node.split_gain = best.gain;
  }

  // Parent-minus-sibling: accumulate only the smaller child, derive the
  // larger one by subtracting in place. Multiway children (and mtry nodes,
  // which have no full parent hist) recompute from their rows; children at
  // the depth limit are leaves and need none.
  int child_hist[2] = {-1, -1};
  if (full_features && !best.multiway && depth + 1 < options_.max_depth) {
    const size_t mid = s->bounds[base + 1];
    const size_t small = mid - begin <= end - mid ? 0 : 1;
    const int h = s->Acquire();
    s->Accumulate(h, small == 0 ? begin : mid, small == 0 ? mid : end);
    s->Subtract(hist, h);
    child_hist[small] = h;
    child_hist[1 - small] = hist;
  } else {
    s->Release(hist);
  }

  std::vector<int> children;
  children.reserve(num_children);
  int majority_child = 0;
  double heaviest_weight = -1.0;
  for (size_t c = 0; c < num_children; ++c) {
    const size_t child_begin = s->bounds[base + c];
    const size_t child_end = s->bounds[base + c + 1];
    int child;
    if (child_begin == child_end) {
      // Empty multiway branch: a leaf that inherits the parent distribution.
      child = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      Node& leaf_node = nodes_.back();
      leaf_node.depth = depth + 1;
      leaf_node.class_counts = nodes_[static_cast<size_t>(index)].class_counts;
      leaf_node.weight = 0.0;
      leaf_node.majority = nodes_[static_cast<size_t>(index)].majority;
    } else {
      child = BuildNodeHist(s, child_begin, child_end, depth + 1, rng,
                            best.multiway ? -1 : child_hist[c]);
    }
    children.push_back(child);
    const double cw = nodes_[static_cast<size_t>(child)].weight;
    if (cw > heaviest_weight) {
      heaviest_weight = cw;
      majority_child = static_cast<int>(c);
    }
  }
  s->bounds.resize(base);
  Node& node = nodes_[static_cast<size_t>(index)];
  node.children = std::move(children);
  node.majority_child = majority_child;
  return index;
}

int DecisionTree::ArgMaxCount(const std::vector<double>& counts) {
  int best = 0;
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] > counts[static_cast<size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

double DecisionTree::LeafErrorUpperBound(const Node& node) const {
  const double n = std::max(node.weight, 1e-9);
  const double errors =
      node.weight - node.class_counts[static_cast<size_t>(node.majority)];
  if (options_.confidence_factor <= 0) return errors;
  // C4.5's pessimistic estimate: binomial upper confidence limit at CF.
  return n * BinomialUpperConfidence(errors, n, options_.confidence_factor);
}

double DecisionTree::SubtreeError(int node_index) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.leaf) return LeafErrorUpperBound(node);
  double total = 0.0;
  for (int child : node.children) total += SubtreeError(child);
  return total;
}

void DecisionTree::Prune(int node_index) {
  Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.leaf) return;
  for (int child : node.children) Prune(child);
  const double as_leaf = LeafErrorUpperBound(node);
  const double as_subtree = SubtreeError(node_index);
  if (as_leaf <= as_subtree + 0.1) {
    node.leaf = true;
    node.children.clear();
  }
}

size_t DecisionTree::LeafFor(const double* row) const {
  size_t index = 0;
  while (!nodes_[index].leaf) {
    const Node& node = nodes_[index];
    const double v = row[node.feature];
    int branch;
    if (IsMissing(v)) {
      branch = node.majority_child;
    } else if (node.categorical_split) {
      if (node.children.size() > 2 || node.category < 0) {
        // Multiway.
        const auto code = static_cast<size_t>(v);
        branch = code < node.children.size() ? static_cast<int>(code)
                                             : node.majority_child;
      } else {
        branch = static_cast<int>(v) == node.category ? 0 : 1;
      }
    } else {
      branch = v <= node.threshold ? 0 : 1;
    }
    index = static_cast<size_t>(node.children[static_cast<size_t>(branch)]);
  }
  return index;
}

void DecisionTree::AddProbaRow(const double* row, double scale,
                               double* out) const {
  if (nodes_.empty()) {
    const double uniform = 1.0 / std::max(1, num_classes_);
    for (int k = 0; k < num_classes_; ++k) out[k] += scale * uniform;
    return;
  }
  AddLeafProba(static_cast<int>(LeafFor(row)), scale, out);
}

void DecisionTree::AddLeafProba(int leaf_index, double scale,
                                double* out) const {
  // Laplace-smoothed leaf frequencies.
  const Node& leaf = nodes_[static_cast<size_t>(leaf_index)];
  const double total = leaf.weight + num_classes_;
  for (int k = 0; k < num_classes_; ++k) {
    out[k] +=
        scale * ((leaf.class_counts[static_cast<size_t>(k)] + 1.0) / total);
  }
}

std::vector<double> DecisionTree::PredictProbaRow(const double* row) const {
  std::vector<double> proba(static_cast<size_t>(num_classes_), 0.0);
  AddProbaRow(row, 1.0, proba.data());
  return proba;
}

int DecisionTree::PredictRow(const double* row) const {
  if (nodes_.empty()) return 0;
  return nodes_[LeafFor(row)].majority;
}

int DecisionTree::LeafIndexForRow(const double* row) const {
  if (nodes_.empty()) return -1;
  return static_cast<int>(LeafFor(row));
}

size_t DecisionTree::NumLeaves() const {
  // Traverse from the root: pruning detaches subtrees whose nodes remain in
  // the flat vector, so a plain scan would overcount.
  if (nodes_.empty()) return 0;
  size_t n = 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.leaf) {
      ++n;
    } else {
      stack.insert(stack.end(), node.children.begin(), node.children.end());
    }
  }
  return n;
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  int depth = 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    depth = std::max(depth, node.depth);
    if (!node.leaf) {
      stack.insert(stack.end(), node.children.begin(), node.children.end());
    }
  }
  return depth;
}

void DecisionTree::CollectLeafRules(int node_index,
                                    std::vector<TreeCondition>* path,
                                    std::vector<LeafRule>* out) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.leaf) {
    LeafRule rule;
    rule.conditions = *path;
    rule.weight = node.weight;
    rule.class_counts = node.class_counts;
    rule.majority = node.majority;
    out->push_back(std::move(rule));
    return;
  }
  for (size_t c = 0; c < node.children.size(); ++c) {
    TreeCondition cond;
    cond.feature = node.feature;
    if (node.categorical_split) {
      if (node.children.size() > 2 || node.category < 0) {
        cond.op = TreeCondition::Op::kEquals;
        cond.value = static_cast<double>(c);
      } else {
        cond.op = c == 0 ? TreeCondition::Op::kEquals
                         : TreeCondition::Op::kNotEquals;
        cond.value = static_cast<double>(node.category);
      }
    } else {
      cond.op =
          c == 0 ? TreeCondition::Op::kLessEq : TreeCondition::Op::kGreater;
      cond.value = node.threshold;
    }
    path->push_back(cond);
    CollectLeafRules(node.children[c], path, out);
    path->pop_back();
  }
}

std::vector<DecisionTree::LeafRule> DecisionTree::ExtractLeafRules() const {
  std::vector<LeafRule> out;
  if (nodes_.empty()) return out;
  std::vector<TreeCondition> path;
  CollectLeafRules(0, &path, &out);
  std::sort(out.begin(), out.end(), [](const LeafRule& a, const LeafRule& b) {
    return a.weight > b.weight;
  });
  return out;
}

std::vector<double> DecisionTree::FeatureImportances(
    size_t num_features) const {
  std::vector<double> imp(num_features, 0.0);
  if (nodes_.empty()) return imp;
  // Root traversal so pruned-away subtrees contribute nothing.
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.leaf) continue;
    if (node.feature >= 0 && static_cast<size_t>(node.feature) < num_features) {
      imp[static_cast<size_t>(node.feature)] += node.split_gain;
    }
    stack.insert(stack.end(), node.children.begin(), node.children.end());
  }
  return imp;
}

}  // namespace smartml
