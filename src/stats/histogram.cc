#include "stats/histogram.h"

#include <cassert>
#include <cmath>

#include "common/str_util.h"

namespace fairrank {

StatusOr<Histogram> Histogram::Make(int num_bins, double lo, double hi) {
  if (num_bins < 1) {
    return Status::InvalidArgument("histogram needs at least one bin");
  }
  if (!(lo < hi)) {
    return Status::InvalidArgument("histogram range is empty");
  }
  return Histogram(num_bins, lo, hi);
}

StatusOr<Histogram> Histogram::FromCounts(int num_bins, double lo, double hi,
                                          std::vector<double> counts,
                                          double clamped) {
  FAIRRANK_ASSIGN_OR_RETURN(Histogram histogram, Make(num_bins, lo, hi));
  if (counts.size() != static_cast<size_t>(num_bins)) {
    std::string message = "histogram has ";
    message += std::to_string(num_bins);
    message += " bins but ";
    message += std::to_string(counts.size());
    message += " counts were supplied";
    return Status::InvalidArgument(message);
  }
  double total = 0.0;
  for (double count : counts) {
    if (!std::isfinite(count) || count < 0.0) {
      return Status::InvalidArgument(
          "histogram counts must be finite and non-negative");
    }
    total += count;
  }
  if (!std::isfinite(clamped) || clamped < 0.0 || clamped > total) {
    return Status::InvalidArgument(
        "clamped mass must lie within [0, total mass]");
  }
  histogram.counts_ = std::move(counts);
  histogram.total_ = total;
  histogram.clamped_ = clamped;
  return histogram;
}

Histogram::Histogram(int num_bins, double lo, double hi)
    : lo_(lo), hi_(hi), counts_(static_cast<size_t>(num_bins), 0.0) {
  assert(num_bins >= 1 && lo < hi);
}

void Histogram::Add(double value) { AddWeighted(value, 1.0); }

void Histogram::AddWeighted(double value, double weight) {
  if (value < lo_ || value > hi_) clamped_ += weight;
  counts_[BinOf(value)] += weight;
  total_ += weight;
}

std::vector<double> Histogram::Normalized() const {
  assert(total_ > 0.0);
  std::vector<double> probs(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) probs[i] = counts_[i] / total_;
  return probs;
}

std::vector<double> Histogram::Cdf() const {
  std::vector<double> cdf = Normalized();
  for (size_t i = 1; i < cdf.size(); ++i) cdf[i] += cdf[i - 1];
  return cdf;
}

bool Histogram::SameShape(const Histogram& other) const {
  return num_bins() == other.num_bins() && lo_ == other.lo_ && hi_ == other.hi_;
}

Status Histogram::MergeWith(const Histogram& other) {
  if (!SameShape(other)) {
    // Name both configurations: merge failures usually mean two stores or
    // cells were built with different bin settings, and the caller needs to
    // see which.
    std::string message = "cannot merge histograms of different shape: ";
    message += std::to_string(num_bins());
    message += " bins over [";
    message += FormatDouble(lo_, 6);
    message += ", ";
    message += FormatDouble(hi_, 6);
    message += "] vs ";
    message += std::to_string(other.num_bins());
    message += " bins over [";
    message += FormatDouble(other.lo_, 6);
    message += ", ";
    message += FormatDouble(other.hi_, 6);
    message += "]";
    return Status::InvalidArgument(message);
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  clamped_ += other.clamped_;
  return Status::OK();
}

std::string Histogram::ToAscii(int max_bar_width) const {
  double max_count = 0.0;
  for (double c : counts_) max_count = std::max(max_count, c);
  std::string out;
  for (int i = 0; i < num_bins(); ++i) {
    double lo = lo_ + i * bin_width();
    double hi = lo + bin_width();
    // Appended stepwise: chained string operator+ trips GCC 12's -Wrestrict
    // false positive (PR105651) under -Werror.
    out += "[";
    out += FormatDouble(lo, 2);
    out += ",";
    out += FormatDouble(hi, 2);
    out += (i == num_bins() - 1) ? "]" : ")";
    out += " ";
    int bar = (max_count > 0.0)
                  ? static_cast<int>(std::lround(counts_[i] / max_count *
                                                 max_bar_width))
                  : 0;
    out.append(static_cast<size_t>(bar), '#');
    out += " ";
    out += FormatDouble(counts_[i], 0);
    out += "\n";
  }
  return out;
}

}  // namespace fairrank
