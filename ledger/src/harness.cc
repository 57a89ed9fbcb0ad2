#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "data/csv.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace ledger {

using fairrank::Status;
using fairrank::StatusOr;
using fairrank::Table;

size_t PopulationFor(const std::string& workload, bool smoke) {
  if (workload == "aggregate_ingest") return smoke ? 20000 : 2000000;
  // uniform_pairwise and server_closed_loop: the paper's Table 2 size.
  return smoke ? 400 : 7300;
}

void WorkloadResult::Prov(const std::string& key, double value) {
  provenance[key] = JsonNumber(value);
}

void WorkloadResult::Fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 8) failures.push_back(reason);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t SpanLog::Begin(const char* name, int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, parent, 0});
  starts_.push_back(NowNanos());
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const size_t i = static_cast<size_t>(id);
  spans_[i].duration_ns = NowNanos() - starts_[i];
}

void SpanLog::AddMeasured(const char* name, int64_t parent,
                          uint64_t duration_ns) {
  if (!enabled_) return;
  spans_.push_back({name, parent, duration_ns});
  starts_.push_back(0);
}

std::map<std::string, double> SpanLog::TotalMs() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) out[span.name] += span.duration_ns / 1e6;
  return out;
}

std::map<std::string, double> SpanLog::SelfMs() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.duration_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t d = spans_[i].duration_ns;
    const uint64_t self = d > child_ns[i] ? d - child_ns[i] : 0;
    out[spans_[i].name] += self / 1e6;
  }
  return out;
}

Status GenerateCsv(const RunConfig& config) {
  fairrank::GeneratorOptions options;
  options.num_workers = PopulationFor(config.workload, config.smoke);
  options.seed = config.seed;
  FAIRRANK_ASSIGN_OR_RETURN(Table table, fairrank::GenerateWorkers(options));
  return fairrank::WriteCsvFile(config.csv_path, table);
}

StatusOr<Table> TimedCsvLoads(const std::string& path, int reps,
                              std::vector<double>* seconds) {
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::Schema schema,
                            fairrank::MakePaperWorkerSchema());
  StatusOr<Table> table = Status::Internal("no CSV load ran");
  for (int i = 0; i < reps; ++i) {
    table = Status::Internal("reloading");  // Free the previous table first.
    const uint64_t start = NowNanos();
    table = fairrank::ReadCsvFile(path, schema);
    seconds->push_back((NowNanos() - start) / 1e9);
    if (!table.ok()) return table.status();
  }
  return table;
}

double HostProbeMs() {
  constexpr size_t kWords = size_t{1} << 22;
  std::vector<uint32_t> words(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    words[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  std::vector<double> ms;
  uint64_t sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t start = NowNanos();
    for (size_t i = 0; i < kWords; ++i) sum += words[(i * 7919) & (kWords - 1)];
    ms.push_back((NowNanos() - start) / 1e6);
  }
  // Keeps the loop's result observable so it cannot be optimized away.
  if (sum == 42) std::fprintf(stderr, "probe checksum %llu\n",
                              static_cast<unsigned long long>(sum));
  return Median(ms);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  uint64_t h = seed == 0 ? 1469598103934665603ull : seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace ledger
