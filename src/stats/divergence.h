#ifndef FAIRRANK_STATS_DIVERGENCE_H_
#define FAIRRANK_STATS_DIVERGENCE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats/histogram.h"

namespace fairrank {

/// The exact per-bin L1 form a divergence may have:
///
///   Distance(a, b) = scale * sum_b |x_a(b) - x_b(b)|
///
/// where x is a histogram's probability mass per bin, counts / total
/// (kPmf), or the running sum of those masses, its CDF (kCdf). The sum over
/// all pairs of a set then splits into one Gini mean difference per bin,
/// which the unfairness evaluator computes exactly from sorted values in
/// O(B * k log k) instead of k(k-1)/2 distances.
///
/// The evaluator's top-pairs report also evaluates single pairs from the
/// form and promises the same double as Distance, so Distance must take
/// these operations in this order: per bin, with p = counts / total,
/// `d += p_a - p_b; s += |d|` (kCdf) or `s += |p_a - p_b|` (kPmf), then
/// `s * scale`.
struct PerBinL1Form {
  enum class Features { kPmf, kCdf };
  Features features = Features::kPmf;
  double scale = 1.0;
};

/// Pluggable dissimilarity between two score histograms. The paper uses EMD
/// and names "other formulations and metrics for fairness" as future work;
/// the unfairness evaluator accepts any Divergence so those variants are a
/// one-line swap (see bench/ablation_divergence).
///
/// Implementations must be symmetric and return 0 for identical inputs.
class Divergence {
 public:
  virtual ~Divergence() = default;

  /// Short stable identifier ("emd", "js", ...), used by the registry and
  /// in reports.
  virtual std::string Name() const = 0;

  /// Distance between two same-shape, non-empty histograms.
  virtual StatusOr<double> Distance(const Histogram& a,
                                    const Histogram& b) const = 0;

  /// The per-bin L1 form of Distance on histograms shaped like `shape`, if
  /// it has one; nullopt by default. Only a divergence whose Distance is
  /// exactly that form may declare it (emd and tv do).
  virtual std::optional<PerBinL1Form> L1Form(
      const Histogram& /*shape*/) const {
    return std::nullopt;
  }
};

/// Closed-form 1-D Earth Mover's Distance (the paper's measure).
std::unique_ptr<Divergence> MakeEmdDivergence();

/// Exact general EMD via the transportation solver with the 1-D ground
/// distance. Numerically identical to MakeEmdDivergence (validated in
/// tests); orders of magnitude slower. Useful for cross-checks.
std::unique_ptr<Divergence> MakeGeneralEmdDivergence();

/// Thresholded EMD (Pele-Werman style robust variant).
std::unique_ptr<Divergence> MakeThresholdedEmdDivergence(double threshold);

/// Jensen-Shannon divergence (base-2 logarithm, bounded in [0, 1]).
std::unique_ptr<Divergence> MakeJensenShannonDivergence();

/// Symmetrized Kullback-Leibler divergence with epsilon smoothing (raw KL is
/// infinite on disjoint supports, useless as a utility for the greedy
/// search).
std::unique_ptr<Divergence> MakeSymmetricKlDivergence(double epsilon = 1e-9);

/// Total variation distance: 0.5 * L1 between probability masses.
std::unique_ptr<Divergence> MakeTotalVariationDivergence();

/// Kolmogorov-Smirnov statistic: max |CDF_a - CDF_b|.
std::unique_ptr<Divergence> MakeKolmogorovSmirnovDivergence();

/// Hellinger distance, bounded in [0, 1].
std::unique_ptr<Divergence> MakeHellingerDivergence();

/// Symmetrized chi-square distance: sum (p-q)^2 / (p+q) over bins with
/// p+q > 0; bounded in [0, 2].
std::unique_ptr<Divergence> MakeChiSquareDivergence();

/// Bhattacharyya distance -ln(sum sqrt(p*q)), epsilon-smoothed so disjoint
/// supports stay finite.
std::unique_ptr<Divergence> MakeBhattacharyyaDivergence(
    double epsilon = 1e-9);

/// Factory by name ("emd", "emd-general", "js", "kl", "tv", "ks",
/// "hellinger", "chi2", "bhattacharyya"); NotFound for anything else.
StatusOr<std::unique_ptr<Divergence>> MakeDivergenceByName(
    const std::string& name);

/// Names accepted by MakeDivergenceByName.
std::vector<std::string> KnownDivergenceNames();

}  // namespace fairrank

#endif  // FAIRRANK_STATS_DIVERGENCE_H_
