#include "layers.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace ledger {

std::string LayerOf(const std::string& span_name) {
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  if (prefix == "search") return "fairness.search";
  if (prefix == "report") return "fairness.report";
  if (prefix == "aggregate") return "fairness.aggregate";
  if (prefix == "op") return "harness";
  return prefix;  // data, marketplace, server.
}

std::string WorkOf(const std::string& span_name) {
  if (span_name == "report.unfairness" || span_name == "report.top_pairs" ||
      span_name == "search.pairwise") {
    return "pairwise_divergence";
  }
  if (span_name == "search.rowwork") return "search_row_work";
  if (span_name == "search.evaluator_teardown") return "cache_teardown";
  if (span_name == "marketplace.score" || span_name == "aggregate.ingest") {
    return "ingest_scoring";
  }
  if (LayerOf(span_name) == "server") return "serving";
  return "other";
}

OpSample SampleOf(const SpanLog& log) {
  OpSample sample;
  sample.total_ms = log.TotalMs();
  sample.self_ms = log.SelfMs();
  return sample;
}

namespace {

/// Median self time and share of op time per group (module or kind of
/// work), the largest share named as dominant.
void ReportGroups(const std::vector<OpSample>& samples,
                  std::string (*group_of)(const std::string&),
                  const std::string& prefix, const std::string& title,
                  WorkloadResult* out) {
  std::map<std::string, std::vector<double>> group_self;
  std::map<std::string, std::vector<double>> group_share;
  for (const OpSample& sample : samples) {
    std::map<std::string, double> self;
    double op_ms = 0.0;
    for (const auto& [name, ms] : sample.self_ms) {
      self[group_of(name)] += ms;
      op_ms += ms;
    }
    for (const auto& [group, ms] : self) {
      group_self[group].push_back(ms);
      group_share[group].push_back(op_ms > 0.0 ? ms / op_ms : 0.0);
    }
  }
  std::string dominant;
  double dominant_share = -1.0;
  for (const auto& [group, shares] : group_share) {
    // A group absent from some ops did no work there.
    std::vector<double> share = shares;
    share.resize(samples.size(), 0.0);
    std::vector<double> self = group_self.at(group);
    self.resize(samples.size(), 0.0);
    const double self_ms = Median(self);
    const double share_median = Median(share);
    out->Set(prefix + group + ".self_ms", self_ms, "ms");
    out->Set(prefix + group + ".share", share_median, "ratio");
    char line[160];
    std::snprintf(line, sizeof(line), "%s %-20s self %10.3f ms/op  %5.1f%%",
                  title.c_str(), group.c_str(), self_ms,
                  100.0 * share_median);
    out->notes.push_back(line);
    if (share_median > dominant_share) {
      dominant_share = share_median;
      dominant = group;
    }
  }
  out->Set(prefix + "dominant_share", dominant_share, "ratio");
  out->Prov("dominant_" + title, JsonString(dominant));
  out->notes.push_back("dominant " + title + ": " + dominant);
}

}  // namespace

void OpLayers::Report(WorkloadResult* out) const {
  std::map<std::string, std::vector<double>> spans;
  std::map<std::string, std::vector<double>> counts;
  for (const OpSample& sample : samples_) {
    for (const auto& [name, ms] : sample.total_ms) {
      if (name != "op") spans[name].push_back(ms);
    }
    for (const auto& [name, value] : sample.counts) {
      counts[name].push_back(value);
    }
  }
  for (const auto& [name, values] : spans) {
    out->Set(name + "_ms", Median(values), "ms");
  }
  for (const auto& [name, values] : counts) {
    const bool ms = name.size() > 3 && name.substr(name.size() - 3) == "_ms";
    const bool ratio = name.find("ratio") != std::string::npos;
    const bool bytes = name.find("bytes") != std::string::npos;
    const bool rate = name.find("per_s") != std::string::npos;
    out->Set(name, Median(values),
             ms      ? "ms"
             : ratio ? "ratio"
             : bytes ? "B"
             : rate  ? "1/s"
                     : "count");
  }
  ReportGroups(samples_, LayerOf, "layer.", "layer", out);
  ReportGroups(samples_, WorkOf, "work.", "work", out);
  out->Prov("traced_ops", static_cast<double>(samples_.size()));
}

void AddAuditCounts(const DecomposedStats& stats, uint64_t nodes,
                    OpSample* sample) {
  const fairrank::EvalCacheStats& s = stats.search_cache;
  sample->counts["search.nodes"] = static_cast<double>(nodes);
  sample->counts["search.histogram_builds"] =
      static_cast<double>(s.histogram_misses);
  sample->counts["search.histogram_hits"] =
      static_cast<double>(s.histogram_hits);
  sample->counts["search.divergences"] =
      static_cast<double>(s.divergence_misses);
  sample->counts["search.divergence_hits"] =
      static_cast<double>(s.divergence_hits);
  const uint64_t lookups = s.histogram_lookups() + s.divergence_lookups();
  sample->counts["search.cache_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.histogram_hits + s.divergence_hits) /
                         static_cast<double>(lookups);
  sample->counts["search.cache_bytes"] = static_cast<double>(s.bytes_used);
  sample->counts["report.pairs"] = static_cast<double>(stats.pairs);
  sample->counts["report.divergences"] =
      static_cast<double>(stats.report_cache.divergence_misses);
  sample->counts["report.partitions"] =
      static_cast<double>(stats.partitions);
  sample->counts["report.json_bytes"] = static_cast<double>(stats.json_bytes);

  // Every divergence the search looked up costs at least one cache hit,
  // priced at report.top_pairs' cost per pair (it reads every pair back
  // from the cache). That floor is the search's pairwise work; the rest of
  // search.run's self time is its row work.
  const double hit_ms = sample->total_ms["report.top_pairs"] /
                        static_cast<double>(std::max<uint64_t>(1, stats.pairs));
  const double run_self = sample->self_ms["search.run"];
  const double pairwise = std::min(
      run_self, static_cast<double>(s.divergence_lookups()) * hit_ms);
  sample->self_ms.erase("search.run");
  sample->self_ms["search.pairwise"] = pairwise;
  sample->self_ms["search.rowwork"] = run_self - pairwise;
  sample->counts["search.pairwise_floor_ms"] = pairwise;
  sample->counts["search.rowwork_ceiling_ms"] = run_self - pairwise;
}

void SetLatencyMetrics(const std::vector<OpTimes>& clients, size_t group,
                       double elapsed_s, WorkloadResult* out) {
  std::vector<double> latency_ms;
  std::vector<double> group_rates;
  for (const OpTimes& ops : clients) {
    for (size_t i = 0; i < ops.size(); ++i) {
      latency_ms.push_back((ops.end_s[i] - ops.start_s[i]) * 1e3);
      if ((i + 1) % group != 0) continue;
      const double span = ops.end_s[i] - ops.start_s[i + 1 - group];
      if (span > 0.0) group_rates.push_back(static_cast<double>(group) / span);
    }
  }
  const double n = static_cast<double>(latency_ms.size());
  out->Set("ops_per_s",
           static_cast<double>(clients.size()) * Median(group_rates), "1/s");
  out->Set("op_p50_ms", Median(latency_ms), "ms");
  out->Prov("timed_ops", n);
  out->Prov("timed_seconds", elapsed_s);
  out->Prov("ops_per_s_groups", static_cast<double>(group_rates.size()));
  out->Prov("ops_per_s_group_ops", static_cast<double>(group));
  out->Prov("ops_per_s_mean", elapsed_s > 0.0 ? n / elapsed_s : 0.0);
  if (latency_ms.size() >= 100) {
    out->Set("op_p90_ms", Quantile(latency_ms, 0.9), "ms");
    out->Prov("op_p90_samples", n);
  }
  if (latency_ms.size() >= 1000) {
    out->Set("op_p99_ms", Quantile(latency_ms, 0.99), "ms");
    out->Prov("op_p99_samples", n);
  }
}

size_t GroupFor(size_t ops, size_t cycle) {
  return ops >= 3 * cycle ? cycle : 1;
}

void ReportKindLatency(const std::map<std::string, std::vector<double>>& ms,
                       WorkloadResult* out) {
  std::string json = "{";
  for (const auto& [kind, values] : ms) {
    if (json.size() > 1) json += ",";
    json += JsonString(kind) + ":" + JsonNumber(Median(values));
  }
  out->Prov("kind_p50_ms", json + "}");
}

std::string Digests::Check(const std::string& kind, uint64_t digest) {
  auto [it, inserted] = first_.emplace(kind, digest);
  if (inserted || it->second == digest) return "";
  return kind + ": output digest changed between ops";
}

void Digests::Report(WorkloadResult* out) const {
  std::string json = "{";
  for (const auto& [kind, digest] : first_) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    if (json.size() > 1) json += ",";
    json += JsonString(kind) + ":" + JsonString(hex);
  }
  out->Prov("digests", json + "}");
}

}  // namespace ledger
