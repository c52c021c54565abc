#include "src/tuning/smac.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "src/common/distributions.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/data/binned_columns.h"
#include "src/obs/metrics.h"
#include "src/obs/run_events.h"
#include "src/persist/checkpoint.h"
#include "src/tuning/checkpoint_codec.h"

namespace smartml {

// ---------------------------------------------------------------------------
// RegressionForest
// ---------------------------------------------------------------------------

// One fit's scratch, reused by every tree and node. Row ids are uint32_t:
// a surrogate trains on evaluated configs, far fewer than 2^32.
struct RegressionForest::Workspace {
  size_t n = 0;
  size_t d = 0;
  const std::vector<double>* y = nullptr;
  std::vector<double> xt;          // Column-major copy: xt[f * n + r].
  std::vector<uint32_t> presorted;  // Per feature: rows 0..n-1 by (x, y).
  // Per feature: the tree's bootstrap rows (with repeats) in (x, y) order.
  // A node owns the same range [lo, hi) of every feature's array.
  std::vector<uint32_t> sorted;
  std::vector<uint32_t> order;  // The tree's bootstrap rows in draw order.
  std::vector<uint32_t> spill;  // Right-hand rows staged by a partition.
  std::vector<uint32_t> counts;  // Bootstrap multiplicity per row.
  std::vector<char> goes_left;   // Per row, at the split being applied.
  std::vector<size_t> features;  // Feature subset scratch.
};

// Identical to growing each node from its bootstrap rows with a sort per
// feature: the node mean and SSE are summed over `order`, which keeps the
// bootstrap draw order under stable partitions; each feature's range is
// its rows in (x, y) order, where rows with equal (x, y) are
// interchangeable, so the prefix sums, boundaries and strict-`>` winner
// are those of the sorted pairs; and the RNG draws one shuffle per split
// candidate node, depth-first, left first.
int RegressionForest::BuildNode(Tree* tree, Workspace* ws, size_t lo,
                                size_t hi, int depth, Rng* rng) const {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  const std::vector<double>& y = *ws->y;
  const size_t n = ws->n, d = ws->d, m = hi - lo;
  const uint32_t* rows = ws->order.data() + lo;
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) sum += y[rows[i]];
  const double mean = sum / static_cast<double>(m);
  tree->nodes.back().value = mean;

  if (depth >= options_.max_depth || m < 2 * options_.min_leaf) {
    return index;
  }
  double sse = 0.0;
  for (size_t i = 0; i < m; ++i) {
    sse += (y[rows[i]] - mean) * (y[rows[i]] - mean);
  }
  if (sse < 1e-14) return index;

  // Random feature subset.
  std::vector<size_t>& features = ws->features;
  std::iota(features.begin(), features.end(), size_t{0});
  rng->Shuffle(&features);
  const size_t take = std::min(
      d, std::max<size_t>(1, static_cast<size_t>(options_.feature_fraction *
                                                 static_cast<double>(d))));

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  for (size_t k = 0; k < take; ++k) {
    const size_t f = features[k];
    const double* col = ws->xt.data() + f * n;
    const uint32_t* sorted = ws->sorted.data() + f * n + lo;
    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = 0.0, right_sq = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const double yv = y[sorted[i]];
      right_sum += yv;
      right_sq += yv * yv;
    }
    for (size_t i = 0; i + 1 < m; ++i) {
      const double yv = y[sorted[i]];
      left_sum += yv;
      left_sq += yv * yv;
      right_sum -= yv;
      right_sq -= yv * yv;
      // Only boundaries between distinct values are candidates (exact
      // equality; SplitMidpoint below guarantees a threshold exists for any
      // two distinct doubles).
      const double xv = col[sorted[i]], x_next = col[sorted[i + 1]];
      if (xv == x_next) continue;
      const size_t nl = i + 1, nr = m - nl;
      if (nl < options_.min_leaf || nr < options_.min_leaf) continue;
      const double sse_l = left_sq - left_sum * left_sum /
                                         static_cast<double>(nl);
      const double sse_r = right_sq - right_sum * right_sum /
                                          static_cast<double>(nr);
      const double gain = sse - sse_l - sse_r;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        // Clamped so the threshold never rounds up onto the right child's
        // value (which would misroute those rows at predict time).
        best_threshold = SplitMidpoint(xv, x_next);
      }
    }
  }
  if (best_feature < 0) return index;

  const double* split_col =
      ws->xt.data() + static_cast<size_t>(best_feature) * n;
  size_t n_left = 0;
  for (size_t i = 0; i < m; ++i) {
    const bool left = split_col[rows[i]] <= best_threshold;
    ws->goes_left[rows[i]] = left;
    n_left += left;
  }
  if (n_left == 0 || n_left == m) return index;
  // Stable partition of [lo, hi) of every array: left rows first. Branch
  // free (a row is written to both sides, and only its side advances),
  // since which side a row goes to is a coin flip to the predictor.
  const char* goes_left = ws->goes_left.data();
  uint32_t* spill = ws->spill.data();
  auto partition = [goes_left, spill, m](uint32_t* a) {
    size_t w = 0, spilled = 0;
    for (size_t i = 0; i < m; ++i) {
      const uint32_t r = a[i];
      const size_t left = static_cast<size_t>(goes_left[r]);
      a[w] = r;
      spill[spilled] = r;
      w += left;
      spilled += 1 - left;
    }
    std::copy(spill, spill + spilled, a + w);
  };
  partition(ws->order.data() + lo);
  for (size_t f = 0; f < d; ++f) partition(ws->sorted.data() + f * n + lo);

  tree->nodes[static_cast<size_t>(index)].leaf = false;
  tree->nodes[static_cast<size_t>(index)].feature = best_feature;
  tree->nodes[static_cast<size_t>(index)].threshold = best_threshold;
  const int left = BuildNode(tree, ws, lo, lo + n_left, depth + 1, rng);
  tree->nodes[static_cast<size_t>(index)].left = left;
  const int right = BuildNode(tree, ws, lo + n_left, hi, depth + 1, rng);
  tree->nodes[static_cast<size_t>(index)].right = right;
  return index;
}

Status RegressionForest::Fit(const Matrix& x, const std::vector<double>& y,
                             const Options& options) {
  if (x.rows() == 0 || x.rows() != y.size() ||
      x.rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("RegressionForest: bad training shape");
  }
  options_ = options;
  dim_ = x.cols();
  trees_.clear();
  trees_.resize(static_cast<size_t>(std::max(1, options.num_trees)));

  Workspace ws;
  const size_t n = x.rows(), d = x.cols();
  ws.n = n;
  ws.d = d;
  ws.y = &y;
  ws.xt.resize(n * d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < d; ++f) ws.xt[f * n + r] = x(r, f);
  }
  ws.presorted.resize(n * d);
  for (size_t f = 0; f < d; ++f) {
    const double* col = ws.xt.data() + f * n;
    uint32_t* rows = ws.presorted.data() + f * n;
    std::iota(rows, rows + n, uint32_t{0});
    std::sort(rows, rows + n, [col, &y](uint32_t a, uint32_t b) {
      return col[a] < col[b] || (col[a] == col[b] && y[a] < y[b]);
    });
  }
  ws.sorted.resize(n * d);
  ws.order.resize(n);
  ws.spill.resize(n);
  ws.counts.resize(n);
  ws.goes_left.resize(n);
  ws.features.resize(d);

  Rng rng(options.seed);
  for (auto& tree : trees_) {
    // Bootstrap sample.
    std::fill(ws.counts.begin(), ws.counts.end(), 0u);
    for (uint32_t& r : ws.order) {
      r = static_cast<uint32_t>(rng.UniformInt(n));
      ++ws.counts[r];
    }
    for (size_t f = 0; f < d; ++f) {
      const uint32_t* src = ws.presorted.data() + f * n;
      uint32_t* dst = ws.sorted.data() + f * n;
      for (size_t j = 0; j < n; ++j) {
        dst = std::fill_n(dst, ws.counts[src[j]], src[j]);
      }
    }
    BuildNode(&tree, &ws, 0, n, 0, &rng);
  }
  return Status::OK();
}

double RegressionForest::PredictTree(const Tree& tree, const double* row) {
  int index = 0;
  while (!tree.nodes[static_cast<size_t>(index)].leaf) {
    const Node& node = tree.nodes[static_cast<size_t>(index)];
    index = row[node.feature] <= node.threshold ? node.left : node.right;
  }
  return tree.nodes[static_cast<size_t>(index)].value;
}

RegressionForest::Prediction RegressionForest::Predict(
    const std::vector<double>& row) const {
  if (row.size() != dim_) return Prediction{};
  return Predict(row.data());
}

RegressionForest::Prediction RegressionForest::Predict(
    const double* row) const {
  Prediction out;
  if (trees_.empty()) return out;
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& tree : trees_) {
    const double v = PredictTree(tree, row);
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(trees_.size());
  out.mean = sum / n;
  out.variance = std::max(0.0, sum_sq / n - out.mean * out.mean);
  return out;
}

// ---------------------------------------------------------------------------
// SMAC
// ---------------------------------------------------------------------------

namespace {

// Resolved once against the global registry (stable pointers, atomic
// updates), so concurrent SMAC runs in the job-manager pool never contend.
struct SmacMetrics {
  Counter* evaluations = nullptr;
  Counter* incumbent_improvements = nullptr;
  Histogram* surrogate_fit_seconds = nullptr;
  Histogram* ei_seconds = nullptr;

  static const SmacMetrics& Get() {
    static const SmacMetrics metrics = [] {
      MetricsRegistry& registry = GlobalMetrics();
      SmacMetrics m;
      m.evaluations = registry.GetCounter(
          "smartml_tuner_evaluations_total",
          "Fold evaluations spent per tuner.", {{"tuner", "smac"}});
      m.incumbent_improvements = registry.GetCounter(
          "smartml_tuner_incumbent_improvements_total",
          "Times a challenger displaced the incumbent.", {{"tuner", "smac"}});
      m.surrogate_fit_seconds = registry.GetHistogram(
          "smartml_smac_surrogate_fit_seconds",
          "Latency of random-forest surrogate fits.", LatencyBuckets());
      m.ei_seconds = registry.GetHistogram(
          "smartml_smac_ei_seconds",
          "Per-iteration EI candidate generation and scoring.",
          LatencyBuckets());
      return m;
    }();
    return metrics;
  }
};

/// Expected improvement for minimization.
double ExpectedImprovement(double mean, double variance, double f_best) {
  const double sigma = std::sqrt(variance);
  if (sigma < 1e-12) return std::max(0.0, f_best - mean);
  const double u = (f_best - mean) / sigma;
  return sigma * (u * NormalCdf(u) + NormalPdf(u));
}

/// Bookkeeping for one configuration's fold evaluations.
struct ConfigRecord {
  ParamConfig config;
  std::vector<double> encoding;  // space.Encode(config), computed once.
  std::vector<double> fold_costs;  // Indexed by fold; NaN = unevaluated.
  double cost_sum = 0.0;
  size_t folds_evaluated = 0;

  double MeanCost() const {
    return folds_evaluated > 0
               ? cost_sum / static_cast<double>(folds_evaluated)
               : 1.0;
  }
};

// EI candidates scored per claim of the run's pool: one candidate costs a
// short encode and ten tree walks, so single-index claims would dominate.
constexpr size_t kEiGrain = 32;

class SmacRun {
 public:
  SmacRun(const ParamSpace& space, TuningObjective* objective,
          const SmacOptions& options)
      : space_(space),
        objective_(objective),
        options_(options),
        rng_(options.seed),
        evaluations_left_(options.max_evaluations),
        finite_size_(space.FiniteSize()) {}

  StatusOr<TunedResult> Run() {
    // Resume from a checkpoint when one exists; otherwise run the seed
    // phase. A restored run continues bit-identically to an uninterrupted
    // one: the objective is deterministic per (config, fold), and the
    // snapshot carries the RNG stream, every evaluated config with its fold
    // costs, the incumbent, and the trajectory with exact doubles.
    const bool resumed = TryRestoreCheckpoint();
    if (!resumed) {
      // Seed configs: KB warm starts, then the default.
      std::vector<ParamConfig> seeds;
      for (const ParamConfig& c : options_.initial_configs) {
        seeds.push_back(space_.Repair(c));
      }
      seeds.push_back(space_.DefaultConfig());

      for (const ParamConfig& config : seeds) {
        if (Exhausted()) break;
        const size_t id = GetOrAddRecord(config);
        // Initial configs get one fold; the incumbent race extends them.
        SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
        UpdateIncumbent(id);
      }
      if (incumbent_ == kNone && !records_.empty()) incumbent_ = 0;
    }

    // Main loop. The snapshot at the loop top means a crash mid-iteration
    // redoes at most one iteration on resume.
    while (!Exhausted() && !SpaceCovered()) {
      SaveCheckpoint();
      // Deepen the incumbent by one fold when possible (intensification).
      if (incumbent_ != kNone &&
          records_[incumbent_].folds_evaluated < objective_->NumFolds()) {
        SMARTML_RETURN_NOT_OK(EvaluateNextFold(incumbent_));
        if (Exhausted()) break;
      }

      const std::vector<ParamConfig> challengers = SelectChallengers();
      for (const ParamConfig& challenger : challengers) {
        if (Exhausted()) break;
        SMARTML_RETURN_NOT_OK(Race(challenger));
      }
    }

    TunedResult result;
    if (incumbent_ != kNone) {
      result.best_config = records_[incumbent_].config;
      result.best_cost = records_[incumbent_].MeanCost();
    } else {
      result.best_config = space_.DefaultConfig();
    }
    result.num_evaluations = static_cast<size_t>(options_.max_evaluations -
                                                 evaluations_left_);
    result.trajectory = std::move(trajectory_);
    result.resumed = resumed;
    return result;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  bool Exhausted() const {
    return evaluations_left_ <= 0 || options_.deadline.Expired();
  }

  // True once a finite space has every config evaluated on every fold:
  // each further iteration could only propose duplicates and spend nothing.
  bool SpaceCovered() const {
    if (finite_size_ == 0 || records_.size() < finite_size_) return false;
    for (const ConfigRecord& record : records_) {
      if (record.folds_evaluated < objective_->NumFolds()) return false;
    }
    return true;
  }

  bool CheckpointEnabled() const {
    return options_.checkpoint != nullptr && !options_.checkpoint_key.empty();
  }

  std::string SerializeState() const {
    std::ostringstream out;
    out << "smac-ckpt 1\n";
    const std::array<uint64_t, 4> state = rng_.State();
    out << "rng " << state[0] << ' ' << state[1] << ' ' << state[2] << ' '
        << state[3] << '\n';
    out << "left " << evaluations_left_ << '\n';
    out << "incumbent "
        << (incumbent_ == kNone ? -1 : static_cast<long long>(incumbent_))
        << '\n';
    out << "traj " << trajectory_.size();
    for (const double v : trajectory_) out << ' ' << CkptDouble(v);
    out << '\n';
    out << "records " << records_.size() << '\n';
    for (const ConfigRecord& record : records_) {
      out << "rec " << record.folds_evaluated;
      for (size_t f = 0; f < record.folds_evaluated; ++f) {
        out << ' ' << CkptDouble(record.fold_costs[f]);
      }
      out << '\n';
      CkptAppendConfig(record.config, &out);
    }
    out << "end\n";
    return out.str();
  }

  void SaveCheckpoint() const {
    if (!CheckpointEnabled()) return;
    const Status status =
        options_.checkpoint->Put(options_.checkpoint_key, SerializeState());
    if (!status.ok()) {
      SMARTML_LOG_WARN << "smac: checkpoint write failed ("
                       << status.ToString() << ") -- continuing un-saved";
    }
  }

  /// Restores the run from an existing checkpoint. Any parse failure (or a
  /// corrupt blob caught by the store's crc) leaves the run untouched and
  /// returns false — a fresh start is always safe, resuming from a
  /// half-read state never is, so nothing is committed until the whole blob
  /// parsed.
  bool TryRestoreCheckpoint() {
    if (!CheckpointEnabled()) return false;
    auto blob = options_.checkpoint->Get(options_.checkpoint_key);
    if (!blob.ok()) {
      if (blob.status().code() != StatusCode::kNotFound) {
        SMARTML_LOG_WARN << "smac: checkpoint unreadable ("
                         << blob.status().ToString() << ") -- starting fresh";
      }
      return false;
    }
    std::istringstream in(*blob);
    std::string tag, token;
    int version = 0;
    if (!(in >> tag >> version) || tag != "smac-ckpt" || version != 1) {
      return false;
    }
    std::array<uint64_t, 4> rng_state{};
    if (!(in >> tag) || tag != "rng") return false;
    for (uint64_t& word : rng_state) {
      if (!(in >> word)) return false;
    }
    int left = 0;
    if (!(in >> tag >> left) || tag != "left") return false;
    long long incumbent = -1;
    if (!(in >> tag >> incumbent) || tag != "incumbent") return false;
    size_t n_traj = 0;
    if (!(in >> tag >> n_traj) || tag != "traj" || n_traj > 100000000) {
      return false;
    }
    std::vector<double> trajectory(n_traj);
    for (double& v : trajectory) {
      if (!(in >> token) || !CkptParseDouble(token, &v)) return false;
    }
    size_t n_records = 0;
    if (!(in >> tag >> n_records) || tag != "records" || n_records > 10000000) {
      return false;
    }
    const size_t num_folds = objective_->NumFolds();
    std::vector<ConfigRecord> records;
    records.reserve(n_records);
    for (size_t i = 0; i < n_records; ++i) {
      size_t folds = 0;
      if (!(in >> tag >> folds) || tag != "rec" || folds > num_folds) {
        return false;
      }
      ConfigRecord record;
      record.fold_costs.assign(num_folds,
                               std::numeric_limits<double>::quiet_NaN());
      for (size_t f = 0; f < folds; ++f) {
        double cost = 0.0;
        if (!(in >> token) || !CkptParseDouble(token, &cost)) return false;
        record.fold_costs[f] = cost;
        record.cost_sum += cost;  // Same accumulation order as the live run.
      }
      record.folds_evaluated = folds;
      if (!CkptReadConfig(&in, &record.config)) return false;
      record.encoding = space_.Encode(record.config);
      records.push_back(std::move(record));
    }
    if (!(in >> tag) || tag != "end") return false;
    if (incumbent >= 0 && static_cast<size_t>(incumbent) >= records.size()) {
      return false;
    }

    rng_.SetState(rng_state);
    evaluations_left_ = left;
    incumbent_ = incumbent < 0 ? kNone : static_cast<size_t>(incumbent);
    trajectory_ = std::move(trajectory);
    records_ = std::move(records);
    index_.clear();
    for (size_t i = 0; i < records_.size(); ++i) {
      index_.emplace(records_[i].config.ToString(), i);
    }
    SMARTML_LOG_INFO << "smac: resumed from checkpoint ("
                     << records_.size() << " configs, "
                     << (options_.max_evaluations - evaluations_left_)
                     << " evaluations done)";
    return true;
  }

  size_t GetOrAddRecord(const ParamConfig& config) {
    const std::string key = config.ToString();
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    ConfigRecord record;
    record.config = config;
    record.encoding = space_.Encode(config);
    record.fold_costs.assign(objective_->NumFolds(),
                             std::numeric_limits<double>::quiet_NaN());
    records_.push_back(std::move(record));
    index_.emplace(key, records_.size() - 1);
    return records_.size() - 1;
  }

  // Evaluates record `id` on its next unevaluated fold.
  Status EvaluateNextFold(size_t id) {
    if (options_.cancel != nullptr && options_.cancel->IsCancelled()) {
      return Status::Cancelled("smac: run cancelled");
    }
    ConfigRecord& record = records_[id];
    if (record.folds_evaluated >= objective_->NumFolds()) return Status::OK();
    const size_t fold = record.folds_evaluated;
    SMARTML_ASSIGN_OR_RETURN(double cost,
                             objective_->EvaluateFold(record.config, fold));
    record.fold_costs[fold] = cost;
    record.cost_sum += cost;
    ++record.folds_evaluated;
    --evaluations_left_;
    SmacMetrics::Get().evaluations->Increment();
    trajectory_.push_back(incumbent_ == kNone
                              ? 1.0
                              : records_[incumbent_].MeanCost());
    return Status::OK();
  }

  void UpdateIncumbent(size_t id) {
    if (incumbent_ == kNone) {
      incumbent_ = id;
      // First establishment counts as an improvement for live streams, so
      // every completed tuning run yields at least one incumbent event.
      EmitIncumbentEvent(records_[id].MeanCost());
    } else if (id != incumbent_ &&
               records_[id].folds_evaluated >=
                   records_[incumbent_].folds_evaluated &&
               records_[id].MeanCost() < records_[incumbent_].MeanCost()) {
      incumbent_ = id;
      SmacMetrics::Get().incumbent_improvements->Increment();
      EmitIncumbentEvent(records_[id].MeanCost());
    }
    if (!trajectory_.empty()) {
      trajectory_.back() = records_[incumbent_].MeanCost();
    }
  }

  // Intensification race of one challenger against the incumbent: evaluate
  // fold by fold; drop the challenger as soon as its mean over the shared
  // folds is worse than the incumbent's mean over the same folds.
  Status Race(const ParamConfig& challenger) {
    const size_t id = GetOrAddRecord(challenger);
    if (incumbent_ == kNone) {
      SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
      UpdateIncumbent(id);
      return Status::OK();
    }
    if (id == incumbent_) return Status::OK();
    while (!Exhausted()) {
      ConfigRecord& record = records_[id];
      const ConfigRecord& champion = records_[incumbent_];
      if (record.folds_evaluated >= champion.folds_evaluated ||
          record.folds_evaluated >= objective_->NumFolds()) {
        break;
      }
      SMARTML_RETURN_NOT_OK(EvaluateNextFold(id));
      // Compare means over the challenger's evaluated folds.
      double champ_sum = 0.0;
      for (size_t f = 0; f < records_[id].folds_evaluated; ++f) {
        champ_sum += champion.fold_costs[f];
      }
      const double champ_mean =
          champ_sum / static_cast<double>(records_[id].folds_evaluated);
      if (records_[id].MeanCost() > champ_mean + 1e-12) {
        return Status::OK();  // Challenger rejected early.
      }
    }
    UpdateIncumbent(id);
    return Status::OK();
  }

  // Builds the surrogate and proposes challengers by EI; interleaves uniform
  // random configs.
  std::vector<ParamConfig> SelectChallengers() {
    std::vector<ParamConfig> out;
    const int n_challengers = std::max(1, options_.challengers_per_iter);

    // Fit the surrogate on all evaluated configs.
    size_t n_evaluated = 0;
    for (const ConfigRecord& record : records_) {
      if (record.folds_evaluated > 0) ++n_evaluated;
    }
    RegressionForest forest;
    bool have_model = false;
    if (n_evaluated >= 4) {
      Matrix x(n_evaluated, space_.NumParams());
      std::vector<double> y(n_evaluated);
      size_t i = 0;
      for (const ConfigRecord& record : records_) {
        if (record.folds_evaluated == 0) continue;
        std::copy(record.encoding.begin(), record.encoding.end(),
                  x.RowPtr(i));
        y[i++] = record.MeanCost();
      }
      RegressionForest::Options fo = options_.forest;
      fo.seed = rng_.NextU64();
      ScopedTimer fit_timer(SmacMetrics::Get().surrogate_fit_seconds);
      have_model = forest.Fit(x, y, fo).ok();
    }

    const double f_best =
        incumbent_ == kNone ? 1.0 : records_[incumbent_].MeanCost();

    ScopedTimer ei_timer(have_model ? SmacMetrics::Get().ei_seconds
                                    : nullptr);
    for (int c = 0; c < n_challengers; ++c) {
      const bool random_pick =
          !have_model || (options_.random_interleave > 0 &&
                          (c % options_.random_interleave) ==
                              options_.random_interleave - 1);
      out.push_back(random_pick ? space_.Sample(&rng_)
                                : MaximizeEi(forest, f_best));
    }
    return out;
  }

  // EI maximization: random candidates + local search around the best.
  // Candidates are flat value rows of one matrix (ParamSpace::SampleRow and
  // friends), and only the winner becomes a ParamConfig. Generation keeps
  // the historical RNG call order (one fallback sample, ei_candidates
  // samples, the incumbent's neighbour chain — whose cursor never depends
  // on scores — then a chain from the maximizer so far); scoring runs in
  // parallel and a sequential argmax replays the strict-`>` tie-breaking,
  // so challengers are identical at any thread count.
  ParamConfig MaximizeEi(const RegressionForest& forest, double f_best) {
    const size_t d = space_.NumParams();
    const auto samples =
        static_cast<size_t>(std::max(0, options_.ei_candidates));
    const auto steps =
        static_cast<size_t>(std::max(0, options_.local_search_steps));
    const size_t chains = incumbent_ != kNone ? 2 : 1;
    const size_t n_rows = 1 + samples + chains * steps;
    values_.resize(n_rows * d);
    encoded_.resize(n_rows * d);
    ei_.resize(n_rows);
    auto row = [&](size_t i) { return values_.data() + i * d; };

    for (size_t i = 0; i <= samples; ++i) space_.SampleRow(&rng_, row(i));
    size_t next = samples + 1;
    if (incumbent_ != kNone) {
      const std::vector<double> start =
          space_.ToRow(records_[incumbent_].config);
      const double* cursor = start.data();
      for (size_t s = 0; s < steps; ++s, ++next) {
        space_.NeighborRow(cursor, row(next), &rng_);
        cursor = row(next);
      }
    }
    size_t best = 0;
    double best_ei = -1.0;
    auto argmax = [&](size_t begin, size_t end) {
      ScoreEi(forest, begin, end, f_best);
      for (size_t i = begin; i < end; ++i) {
        if (ei_[i] > best_ei) {
          best_ei = ei_[i];
          best = i;
        }
      }
    };
    argmax(1, next);
    // The second local-search chain starts at the EI maximizer found so
    // far, so it is generated (and scored) after the first argmax pass.
    const size_t chain_begin = next;
    for (size_t s = 0, cursor = best; s < steps; ++s, ++next) {
      space_.NeighborRow(row(cursor), row(next), &rng_);
      cursor = next;
    }
    argmax(chain_begin, next);
    return space_.FromRow(row(best));
  }

  // Encodes rows [begin, end) and scores their expected improvement across
  // the run's thread pool. Each row is encoded and predicted on its own, so
  // execution order cannot change any score.
  void ScoreEi(const RegressionForest& forest, size_t begin, size_t end,
               double f_best) {
    if (begin == end) return;
    const size_t d = space_.NumParams();
    (void)ParallelForRanges(
        end - begin, kEiGrain, [&](size_t lo, size_t hi) -> Status {
          for (size_t i = begin + lo; i < begin + hi; ++i) {
            double* enc = encoded_.data() + i * d;
            space_.EncodeRow(values_.data() + i * d, enc);
            const RegressionForest::Prediction p = forest.Predict(enc);
            ei_[i] = ExpectedImprovement(p.mean, p.variance, f_best);
          }
          return Status::OK();
        });
  }

  const ParamSpace& space_;
  TuningObjective* objective_;
  SmacOptions options_;
  Rng rng_;
  int evaluations_left_;
  std::vector<ConfigRecord> records_;
  std::map<std::string, size_t> index_;
  size_t incumbent_ = kNone;
  std::vector<double> trajectory_;
  const uint64_t finite_size_;  // ParamSpace::FiniteSize(); 0 = infinite.
  // EI candidate scratch, reused across iterations: flat value rows, their
  // encodings, and their scores.
  std::vector<double> values_;
  std::vector<double> encoded_;
  std::vector<double> ei_;
};

}  // namespace

StatusOr<TunedResult> Smac(const ParamSpace& space, TuningObjective* objective,
                           const SmacOptions& options) {
  if (objective == nullptr || objective->NumFolds() == 0) {
    return Status::InvalidArgument("smac: objective with >= 1 fold required");
  }
  SmacRun run(space, objective, options);
  return run.Run();
}

}  // namespace smartml
