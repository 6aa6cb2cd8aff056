// The paper's unified statistical power and performance models
// (Section IV): multiple linear regression over frequency-scaled counter
// features, with variables chosen by forward selection maximizing adjusted
// R^2 (at most 10 variables by default; Figs. 7/8 sweep 5-20).
#pragma once

#include <string>
#include <vector>

#include "core/features.hpp"
#include "stats/forward_selection.hpp"

namespace gppm::core {

/// Fitting options.
struct ModelOptions {
  std::size_t max_variables = 10;
  /// Power-feature scaling.  FrequencyOnly is the paper's Eq. 1; the
  /// voltage-aware variant is the library's extension (see FeatureScaling).
  FeatureScaling scaling = FeatureScaling::FrequencyOnly;
  /// Offer the per-domain baseline pseudo-features to forward selection
  /// (library extension; see build_table).
  bool include_baseline_terms = false;
  /// Selection engine (results are identical; see stats::SelectionEngine).
  stats::SelectionEngine engine = stats::SelectionEngine::IncrementalGram;
  /// If non-empty, forward selection may only pick features whose name is
  /// in this list (others are zeroed out of the design).  Used to fit a
  /// family on a proven basis — e.g. the mix families restrict candidates
  /// to the solo family's selections plus the mix pseudo-features, which
  /// keeps small interference corpora from chasing noise counters.
  std::vector<std::string> candidate_features;
};

/// The library's extended power form: V^2 f feature scaling plus the
/// per-domain baseline terms.  Everything that picks frequency pairs from
/// the power model (the governors, the serving optimize/govern endpoints)
/// fits its power model with it: the paper's frequency-only Eq. 1
/// under-predicts the power drop of low P-states so badly that energy
/// minimization collapses to "always (H-H)" (bench_ablation_voltage_scaling
/// compares the forms).
inline ModelOptions extended_power_options() {
  ModelOptions options;
  options.scaling = FeatureScaling::VoltageSquaredFrequency;
  options.include_baseline_terms = true;
  return options;
}

/// One selected explanatory variable of a fitted model.
struct SelectedVariable {
  std::string counter;
  profiler::EventClass klass;
  double coefficient = 0.0;
  /// Adjusted R^2 right after this variable was added (its marginal
  /// contribution is the delta to the previous entry) — the quantity behind
  /// the Fig. 11 influence breakdown.
  double cumulative_adjusted_r2 = 0.0;
};

/// A fitted unified model for one board and one target.
class UnifiedModel {
 public:
  /// Fit on a corpus.  `pair_filter`, if given, restricts training rows to
  /// one operating point (the per-pair baseline of Figs. 9/10).
  static UnifiedModel fit(const Dataset& dataset, TargetKind target,
                          const ModelOptions& options = {},
                          const sim::FrequencyPair* pair_filter = nullptr);

  /// Predict the target (watts or seconds) for a profiled workload at any
  /// operating point of the board.
  double predict(const profiler::ProfileResult& counters,
                 sim::FrequencyPair pair) const;

  /// Variable i's feature value for a profiled workload at a pair, from
  /// the profile's reading at the variable's index (its name must match)
  /// or, for a baseline pseudo-feature, a unit reading.  predict() sums
  /// these; the online refitter builds its rows from them.  Throws if the
  /// variable is a mix pseudo-counter the profile lacks.
  double feature(std::size_t i, const profiler::ProfileResult& counters,
                 sim::FrequencyPair pair) const;

  TargetKind target() const { return target_; }
  FeatureScaling scaling() const { return scaling_; }
  sim::GpuModel gpu() const { return gpu_; }
  double adjusted_r2() const { return adjusted_r2_; }
  double intercept() const { return intercept_; }
  const std::vector<SelectedVariable>& variables() const { return variables_; }

  /// Raw constituents of a fitted model, for serialization round-trips.
  struct Parts {
    TargetKind target = TargetKind::Power;
    FeatureScaling scaling = FeatureScaling::FrequencyOnly;
    sim::GpuModel gpu = sim::GpuModel::GTX480;
    double intercept = 0.0;
    double adjusted_r2 = 0.0;
    std::vector<SelectedVariable> variables;
    std::vector<std::size_t> counter_indices;  ///< parallel to variables
  };
  Parts parts() const;
  /// Reassemble a model from parts; validates variable/index consistency
  /// against the board's counter catalog.
  static UnifiedModel from_parts(Parts parts);

 private:
  TargetKind target_ = TargetKind::Power;
  FeatureScaling scaling_ = FeatureScaling::FrequencyOnly;
  sim::GpuModel gpu_ = sim::GpuModel::GTX480;
  double intercept_ = 0.0;
  double adjusted_r2_ = 0.0;
  std::vector<SelectedVariable> variables_;
  /// Catalog indices of the selected counters, for fast prediction.
  std::vector<std::size_t> counter_indices_;

  friend class ModelFamily;
};

/// Every prefix model of one forward-selection run.
///
/// Greedy selection is prefix-consistent: the run capped at k variables is
/// exactly the first k steps of the run capped at K >= k.  Fitting a family
/// once at the largest cap therefore yields, for free, the model every
/// smaller cap would produce — prefix k is bit-identical to a direct
/// UnifiedModel::fit with max_variables = k.  The Fig. 7/8 nvars sweeps
/// (5/10/15/20 variables) read one fit per (board, target) this way instead
/// of refitting per variable count.
class ModelFamily {
 public:
  /// Run selection once with options.max_variables as the cap and
  /// materialize every prefix model.
  static ModelFamily fit(const Dataset& dataset, TargetKind target,
                         const ModelOptions& options = {},
                         const sim::FrequencyPair* pair_filter = nullptr);

  /// Number of variables actually selected at the cap.
  std::size_t size() const { return prefixes_.size(); }

  /// The model over the first min(k, size()) selected variables (k >= 1).
  const UnifiedModel& at(std::size_t k) const;

  /// The model at the full cap (== at(size())).
  const UnifiedModel& full() const { return at(prefixes_.size()); }

 private:
  std::vector<UnifiedModel> prefixes_;  ///< index k-1: first k variables
};

}  // namespace gppm::core
