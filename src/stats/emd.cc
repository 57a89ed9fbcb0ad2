#include "stats/emd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "stats/transportation.h"

namespace fairrank {

namespace {

Status CheckComparable(const Histogram& a, const Histogram& b) {
  if (!a.SameShape(b)) {
    return Status::InvalidArgument(
        "histograms have different shapes (bins/range)");
  }
  if (a.empty() || b.empty()) {
    return Status::FailedPrecondition("EMD of an empty histogram is undefined");
  }
  return Status::OK();
}

}  // namespace

double Emd1DMass(const std::vector<double>& a, const std::vector<double>& b,
                 double bin_width) {
  double emd = 0.0;
  double cdf_diff = 0.0;
  // The final term |sum(a) - sum(b)| is included: it vanishes for equal-mass
  // inputs (normalized histograms agree up to rounding) but carries the
  // mass-imbalance cost for unnormalized or drifted vectors, so imbalance is
  // visible instead of silently dropped.
  for (size_t i = 0; i < a.size(); ++i) {
    cdf_diff += a[i] - b[i];
    emd += std::abs(cdf_diff);
  }
  return emd * bin_width;
}

StatusOr<double> Emd1D(const Histogram& a, const Histogram& b) {
  FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
  // Emd1DMass over the normalized masses, normalizing bin by bin instead of
  // into two temporary vectors: the same operations in the same order, so
  // the same double, without two allocations per call on the audit's
  // hottest path.
  const std::vector<double>& ca = a.counts();
  const std::vector<double>& cb = b.counts();
  const double ta = a.total();
  const double tb = b.total();
  double emd = 0.0;
  double cdf_diff = 0.0;
  for (size_t i = 0; i < ca.size(); ++i) {
    cdf_diff += ca[i] / ta - cb[i] / tb;
    emd += std::abs(cdf_diff);
  }
  return emd * a.bin_width();
}

std::vector<std::vector<double>> Make1DCostMatrix(const Histogram& a,
                                                  const Histogram& b) {
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(a.num_bins()),
      std::vector<double>(static_cast<size_t>(b.num_bins()), 0.0));
  for (int i = 0; i < a.num_bins(); ++i) {
    for (int j = 0; j < b.num_bins(); ++j) {
      cost[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          std::abs(a.BinCenter(i) - b.BinCenter(j));
    }
  }
  return cost;
}

StatusOr<double> EmdGeneral(const Histogram& a, const Histogram& b,
                            const std::vector<std::vector<double>>& cost) {
  FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
  // Scale both mass distributions onto a common integer grid: supplies are
  // counts(a) * total(b), demands counts(b) * total(a); both sum to
  // total(a) * total(b). Counts come from whole observations, so rounding
  // is exact for unweighted histograms.
  const double ta = a.total();
  const double tb = b.total();
  std::vector<int64_t> supply(a.counts().size());
  std::vector<int64_t> demand(b.counts().size());
  int64_t supply_sum = 0;
  int64_t demand_sum = 0;
  for (size_t i = 0; i < supply.size(); ++i) {
    supply[i] = static_cast<int64_t>(std::llround(a.counts()[i] * tb));
    supply_sum += supply[i];
  }
  for (size_t j = 0; j < demand.size(); ++j) {
    demand[j] = static_cast<int64_t>(std::llround(b.counts()[j] * ta));
    demand_sum += demand[j];
  }
  // Repair rounding drift (possible with weighted histograms) on the largest
  // entry so the instance stays balanced.
  if (supply_sum != demand_sum) {
    auto it = (supply_sum < demand_sum)
                  ? std::max_element(supply.begin(), supply.end())
                  : std::max_element(demand.begin(), demand.end());
    *it += std::llabs(demand_sum - supply_sum);
  }
  FAIRRANK_ASSIGN_OR_RETURN(TransportationPlan plan,
                            SolveTransportation(supply, demand, cost));
  // Undo the scaling: each unit of integer flow carries 1 / (ta * tb) mass.
  return plan.total_cost / (ta * tb);
}

StatusOr<double> EmdGeneral1DCost(const Histogram& a, const Histogram& b) {
  FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
  return EmdGeneral(a, b, Make1DCostMatrix(a, b));
}

StatusOr<double> EmdSamples1D(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) {
    return Status::FailedPrecondition("EMD of an empty sample is undefined");
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Walk the merged order; between consecutive points the difference of the
  // empirical CDFs is constant, contributing |Fa - Fb| * gap.
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t ia = 0;
  size_t ib = 0;
  double emd = 0.0;
  double prev = std::min(a[0], b[0]);
  while (ia < a.size() || ib < b.size()) {
    double next;
    if (ib >= b.size() || (ia < a.size() && a[ia] <= b[ib])) {
      next = a[ia];
    } else {
      next = b[ib];
    }
    double fa = static_cast<double>(ia) / na;
    double fb = static_cast<double>(ib) / nb;
    emd += std::abs(fa - fb) * (next - prev);
    prev = next;
    while (ia < a.size() && a[ia] == next) ++ia;
    while (ib < b.size() && b[ib] == next) ++ib;
  }
  return emd;
}

StatusOr<double> EmdThresholded(const Histogram& a, const Histogram& b,
                                double threshold) {
  FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
  if (threshold <= 0.0) {
    return Status::InvalidArgument("threshold must be positive");
  }
  std::vector<std::vector<double>> cost = Make1DCostMatrix(a, b);
  for (auto& row : cost) {
    for (double& c : row) c = std::min(c, threshold);
  }
  return EmdGeneral(a, b, cost);
}

}  // namespace fairrank
