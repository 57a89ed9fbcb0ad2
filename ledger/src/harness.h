#ifndef FAIRRANK_LEDGER_SRC_HARNESS_H_
#define FAIRRANK_LEDGER_SRC_HARNESS_H_

// Shared pieces of the audit ledger: run configuration, the result every
// workload fills, latency statistics, and the benchmark-side span log that
// times calls into the library's public functions from the outside.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"

namespace ledger {

/// Population and timing knobs of one workload. `smoke` shrinks every
/// population so the whole ledger runs in seconds (ledger/smoke_test.py).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Flips one expected value per workload so every op's output check
  /// fails: proves the checks can fail (smoke test only).
  bool corrupt_expectation = false;
  std::string csv_path;
};

/// Worker population of a workload at the configured size.
size_t PopulationFor(const std::string& workload, bool smoke);

/// What a workload reports. Metrics are keyed by name; provenance is free
/// text/number pairs rendered into the result JSON.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure reasons.
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;  ///< Values are JSON.
  std::vector<std::string> notes;                 ///< Human-readable lines.

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Prov(const std::string& key, const std::string& json_value) {
    provenance[key] = json_value;
  }
  void Prov(const std::string& key, double value);
  /// Records one failed op (or failed check) with its reason.
  void Fail(const std::string& reason);
};

/// Median and interpolated percentiles of a sample (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Monotonic nanoseconds.
uint64_t NowNanos();

/// Benchmark-side spans: opened and closed by the ledger around its own
/// calls into the library, never inside it. Disabled logs record nothing,
/// so untimed and untraced ops share one code path.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t parent = -1;
    uint64_t duration_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int64_t Begin(const char* name, int64_t parent = -1);
  void End(int64_t id);
  /// A span whose duration was measured elsewhere (server.transport: a
  /// request's client-side latency minus the direct calls replaying it).
  void AddMeasured(const char* name, int64_t parent, uint64_t duration_ns);

  /// Per-name total and self time in ms (self = duration minus the
  /// durations of the span's direct children).
  std::map<std::string, double> TotalMs() const;
  std::map<std::string, double> SelfMs() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint64_t> starts_;
};

/// RAII span on a SpanLog (no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Writes the workload's worker CSV from the seed (run before timing, in a
/// process of its own so its memory does not count against the workload).
fairrank::Status GenerateCsv(const RunConfig& config);

/// Loads the workload CSV through ReadCsvFile `reps` times and returns the
/// last table; `seconds` receives every load's wall time.
fairrank::StatusOr<fairrank::Table> TimedCsvLoads(const std::string& path,
                                                  int reps,
                                                  std::vector<double>* seconds);

/// Median of 5 timings, in ms, of a fixed pass of strided reads over a
/// 16 MiB array. It calls no library code, so it reads the host's speed
/// (memory-bound, like the workloads) independently of the program.
double HostProbeMs();

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// 64-bit FNV-1a over raw bytes; the run digest of per-op outputs.
uint64_t Fnv1a(const void* data, size_t size, uint64_t seed);

/// JSON number / string helpers for the result line.
std::string JsonNumber(double value);
std::string JsonString(const std::string& s);

/// Workload entry points.
WorkloadResult RunUniformPairwise(const RunConfig& config);
WorkloadResult RunServerClosedLoop(const RunConfig& config);
WorkloadResult RunAggregateIngest(const RunConfig& config);

}  // namespace ledger

#endif  // FAIRRANK_LEDGER_SRC_HARNESS_H_
