#include "stats/divergence.h"

#include <cmath>

#include "stats/emd.h"

namespace fairrank {

namespace {

Status CheckComparable(const Histogram& a, const Histogram& b) {
  if (!a.SameShape(b)) {
    return Status::InvalidArgument(
        "histograms have different shapes (bins/range)");
  }
  if (a.empty() || b.empty()) {
    return Status::FailedPrecondition(
        "divergence of an empty histogram is undefined");
  }
  return Status::OK();
}

class EmdDivergence : public Divergence {
 public:
  std::string Name() const override { return "emd"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    return Emd1D(a, b);
  }
  std::optional<PerBinL1Form> L1Form(const Histogram& shape) const override {
    return PerBinL1Form{PerBinL1Form::Features::kCdf, shape.bin_width()};
  }
};

class GeneralEmdDivergence : public Divergence {
 public:
  std::string Name() const override { return "emd-general"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    return EmdGeneral1DCost(a, b);
  }
};

class ThresholdedEmdDivergence : public Divergence {
 public:
  explicit ThresholdedEmdDivergence(double threshold) : threshold_(threshold) {}
  std::string Name() const override { return "emd-thresholded"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    return EmdThresholded(a, b, threshold_);
  }

 private:
  double threshold_;
};

class JensenShannonDivergence : public Divergence {
 public:
  std::string Name() const override { return "js"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    double js = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      double m = 0.5 * (pa[i] + pb[i]);
      if (pa[i] > 0.0) js += 0.5 * pa[i] * std::log2(pa[i] / m);
      if (pb[i] > 0.0) js += 0.5 * pb[i] * std::log2(pb[i] / m);
    }
    return std::max(0.0, js);
  }
};

class SymmetricKlDivergence : public Divergence {
 public:
  explicit SymmetricKlDivergence(double epsilon) : epsilon_(epsilon) {}
  std::string Name() const override { return "kl"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    // Epsilon-smooth and renormalize so log ratios stay finite.
    double za = 0.0;
    double zb = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      pa[i] += epsilon_;
      pb[i] += epsilon_;
      za += pa[i];
      zb += pb[i];
    }
    double kl = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      double x = pa[i] / za;
      double y = pb[i] / zb;
      kl += 0.5 * (x * std::log(x / y) + y * std::log(y / x));
    }
    return std::max(0.0, kl);
  }

 private:
  double epsilon_;
};

class TotalVariationDivergence : public Divergence {
 public:
  std::string Name() const override { return "tv"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    double l1 = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) l1 += std::abs(pa[i] - pb[i]);
    return 0.5 * l1;
  }
  std::optional<PerBinL1Form> L1Form(const Histogram&) const override {
    return PerBinL1Form{PerBinL1Form::Features::kPmf, 0.5};
  }
};

class KolmogorovSmirnovDivergence : public Divergence {
 public:
  std::string Name() const override { return "ks"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> ca = a.Cdf();
    std::vector<double> cb = b.Cdf();
    double ks = 0.0;
    for (size_t i = 0; i < ca.size(); ++i) {
      ks = std::max(ks, std::abs(ca[i] - cb[i]));
    }
    return ks;
  }
};

class HellingerDivergence : public Divergence {
 public:
  std::string Name() const override { return "hellinger"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    double sum = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      double d = std::sqrt(pa[i]) - std::sqrt(pb[i]);
      sum += d * d;
    }
    return std::sqrt(0.5 * sum);
  }
};

class ChiSquareDivergence : public Divergence {
 public:
  std::string Name() const override { return "chi2"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    double chi2 = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      double denom = pa[i] + pb[i];
      if (denom > 0.0) {
        chi2 += (pa[i] - pb[i]) * (pa[i] - pb[i]) / denom;
      }
    }
    return chi2;
  }
};

class BhattacharyyaDivergence : public Divergence {
 public:
  explicit BhattacharyyaDivergence(double epsilon) : epsilon_(epsilon) {}
  std::string Name() const override { return "bhattacharyya"; }
  StatusOr<double> Distance(const Histogram& a,
                            const Histogram& b) const override {
    FAIRRANK_RETURN_NOT_OK(CheckComparable(a, b));
    std::vector<double> pa = a.Normalized();
    std::vector<double> pb = b.Normalized();
    double za = 0.0;
    double zb = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      pa[i] += epsilon_;
      pb[i] += epsilon_;
      za += pa[i];
      zb += pb[i];
    }
    double bc = 0.0;
    for (size_t i = 0; i < pa.size(); ++i) {
      bc += std::sqrt((pa[i] / za) * (pb[i] / zb));
    }
    return std::max(0.0, -std::log(std::min(bc, 1.0)));
  }

 private:
  double epsilon_;
};

}  // namespace

std::unique_ptr<Divergence> MakeEmdDivergence() {
  return std::make_unique<EmdDivergence>();
}
std::unique_ptr<Divergence> MakeGeneralEmdDivergence() {
  return std::make_unique<GeneralEmdDivergence>();
}
std::unique_ptr<Divergence> MakeThresholdedEmdDivergence(double threshold) {
  return std::make_unique<ThresholdedEmdDivergence>(threshold);
}
std::unique_ptr<Divergence> MakeJensenShannonDivergence() {
  return std::make_unique<JensenShannonDivergence>();
}
std::unique_ptr<Divergence> MakeSymmetricKlDivergence(double epsilon) {
  return std::make_unique<SymmetricKlDivergence>(epsilon);
}
std::unique_ptr<Divergence> MakeTotalVariationDivergence() {
  return std::make_unique<TotalVariationDivergence>();
}
std::unique_ptr<Divergence> MakeKolmogorovSmirnovDivergence() {
  return std::make_unique<KolmogorovSmirnovDivergence>();
}
std::unique_ptr<Divergence> MakeHellingerDivergence() {
  return std::make_unique<HellingerDivergence>();
}
std::unique_ptr<Divergence> MakeChiSquareDivergence() {
  return std::make_unique<ChiSquareDivergence>();
}
std::unique_ptr<Divergence> MakeBhattacharyyaDivergence(double epsilon) {
  return std::make_unique<BhattacharyyaDivergence>(epsilon);
}

StatusOr<std::unique_ptr<Divergence>> MakeDivergenceByName(
    const std::string& name) {
  if (name == "emd") return MakeEmdDivergence();
  if (name == "emd-general") return MakeGeneralEmdDivergence();
  if (name == "js") return MakeJensenShannonDivergence();
  if (name == "kl") return MakeSymmetricKlDivergence();
  if (name == "tv") return MakeTotalVariationDivergence();
  if (name == "ks") return MakeKolmogorovSmirnovDivergence();
  if (name == "hellinger") return MakeHellingerDivergence();
  if (name == "chi2") return MakeChiSquareDivergence();
  if (name == "bhattacharyya") return MakeBhattacharyyaDivergence();
  return Status::NotFound("unknown divergence '" + name + "'");
}

std::vector<std::string> KnownDivergenceNames() {
  return {"emd", "emd-general", "js",   "kl",
          "tv",  "ks",          "hellinger", "chi2", "bhattacharyya"};
}

}  // namespace fairrank
