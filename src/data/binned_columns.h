// Columnar binned view of a training table for tree growth.
//
// A BinnedColumns holds, per feature, a contiguous column of per-row bin
// codes (uint16_t) plus the split thresholds between adjacent bins. Numeric
// features get one bin per distinct value when the column has at most
// `max_bins` of them (the binning is then lossless) and are quantile-binned
// into `max_bins` bins otherwise; categorical features get one bin per
// category, their category codes serving as bin codes. Missing cells map to
// kMissingBin. Every tree grows on such a view, and the view decides the
// split granularity: Dataset::Binned() caps numeric columns at kMaxBins
// quantile bins and is shared read-only by every tree grown on that data
// (forests, bagging, boosting rounds and PART's rule loop train on row-index
// subsets of it instead of copying rows), while a DecisionTree::Fit given no
// view bins its matrix losslessly (up to kMaxCodedBins bins per column), so
// its split search is the exact one.
#ifndef SMARTML_DATA_BINNED_COLUMNS_H_
#define SMARTML_DATA_BINNED_COLUMNS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/linalg/matrix.h"

namespace smartml {

/// Midpoint split threshold between two strictly increasing feature values,
/// clamped so `lo <= t < hi` always holds. The naive 0.5 * (lo + hi) can
/// round up to `hi` when the two are adjacent representable doubles, in
/// which case rows that trained into the right child would satisfy
/// `v <= t` and be misrouted left at predict time.
inline double SplitMidpoint(double lo, double hi) {
  double t = lo + 0.5 * (hi - lo);  // Robust against overflow for huge |v|.
  if (t >= hi) t = std::nextafter(hi, lo);
  if (t < lo) t = lo;
  return t;
}

/// One binned feature column.
struct BinnedColumn {
  bool categorical = false;
  /// Value bins (missing excluded). Categorical: min(cardinality,
  /// kMaxCodedBins). Numeric: number of bins actually formed.
  uint16_t num_bins = 0;
  /// Declared category dictionary size (categorical only). A column with
  /// more than kMaxCodedBins categories cannot be coded; DecisionTree::Fit
  /// rejects it.
  size_t cardinality = 0;
  /// True when every distinct value got its own bin, so the split
  /// candidates are every boundary between distinct values.
  bool lossless = false;
  /// Numeric only, size max(num_bins - 1, 0): the split `code <= b` means
  /// `value <= thresholds[b]`, with thresholds[b] the clamped midpoint of
  /// the adjacent distinct values straddling the bin boundary.
  std::vector<double> thresholds;
  /// Lossless numeric only, size num_bins: the value bin b holds. A split
  /// at a node takes its threshold between the values of the two adjacent
  /// bins the node's rows occupy.
  std::vector<double> values;
  /// Per-row bin code; BinnedColumns::kMissingBin for missing cells.
  std::vector<uint16_t> codes;
};

class BinnedColumns {
 public:
  /// Bin code reserved for missing cells.
  static constexpr uint16_t kMissingBin = 0xFFFF;
  /// Quantile cap on a numeric column's bins in Dataset::Binned().
  static constexpr size_t kMaxBins = 255;
  /// Most value bins a column can have: codes 0..kMaxCodedBins - 1, so a
  /// column's slots (its value bins plus the missing slot) stay countable
  /// in a uint16_t. A numeric column with more distinct values is
  /// quantile-binned even when binning is otherwise lossless.
  static constexpr size_t kMaxCodedBins = 0xFFFE;

  /// Incremental construction, one column at a time. `stride` is the step
  /// between consecutive rows of the column (1 for a contiguous column,
  /// x.cols() for a column of a row-major Matrix).
  class Builder {
   public:
    explicit Builder(size_t num_rows, size_t max_bins = kMaxBins);
    void AddNumericColumn(const double* values, size_t stride);
    void AddCategoricalColumn(const double* codes, size_t stride,
                              size_t cardinality);
    BinnedColumns Build() &&;

   private:
    size_t num_rows_;
    size_t max_bins_;
    std::vector<BinnedColumn> columns_;
  };

  /// Bins a raw feature matrix (ToRawMatrix() layout: one column per
  /// feature, categorical cells holding category codes, NaN = missing).
  /// `max_bins` caps numeric columns; kMaxCodedBins bins them losslessly.
  static BinnedColumns FromMatrix(const Matrix& x,
                                  const std::vector<bool>& categorical,
                                  const std::vector<size_t>& cardinalities,
                                  size_t max_bins = kMaxBins);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return columns_.size(); }
  const BinnedColumn& column(size_t f) const { return columns_[f]; }

 private:
  friend class Builder;
  size_t num_rows_ = 0;
  std::vector<BinnedColumn> columns_;
};

}  // namespace smartml

#endif  // SMARTML_DATA_BINNED_COLUMNS_H_
