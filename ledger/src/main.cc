// ledger_bench — the audit ledger's benchmark binary. ledger/run.py builds it
// and calls it twice per run:
//
//   ledger_bench generate --workload W --seed N --csv PATH [--smoke]
//   ledger_bench probe
//   ledger_bench run --workload W --seed N --csv PATH --seconds S
//                    --trace 0|1 [--smoke] [--corrupt-expectation]
//
// `probe` prints the median time of a fixed memory-bound loop that calls no
// library code: a reading of the host's speed, taken around each run.
// `generate` writes the workload's worker CSV from the seed in a process of
// its own; `run` loads it (the timed set-up), measures the workload, checks
// every op's output and prints human-readable lines followed by one JSON
// line: workload, correct, attempted, failed, failures, metrics (each with
// its unit) and provenance.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/parallel.h"
#include "harness.h"

namespace ledger {
namespace {

int Usage(const std::string& message) {
  std::fprintf(stderr, "ledger_bench: %s\n", message.c_str());
  return 2;
}

std::string ResultJson(const RunConfig& config, const WorkloadResult& r) {
  std::string out = "{\"workload\":" + JsonString(config.workload);
  const bool correct = r.failed == 0 && r.attempted > 0;
  out += ",\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(r.failures[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  out += "},\"provenance\":{";
  first = true;
  for (const auto& [key, value] : r.provenance) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + value;
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage("usage: ledger_bench generate|run|probe --workload W");
  }
  const std::string command = argv[1];
  if (command == "probe") {
    std::printf("%.6f\n", HostProbeMs());
    return 0;
  }
  fairrank::StatusOr<fairrank::FlagParser> flags =
      fairrank::FlagParser::Parse(argc - 2, argv + 2);
  if (!flags.ok()) return Usage(flags.status().ToString());
  fairrank::Status known = fairrank::ValidateKnownFlags(
      *flags, {"workload", "seed", "csv", "seconds", "trace", "smoke",
               "corrupt-expectation"});
  if (!known.ok()) return Usage(known.ToString());

  RunConfig config;
  config.workload = flags->GetString("workload", "");
  config.csv_path = flags->GetString("csv", "");
  fairrank::StatusOr<int64_t> seed = flags->GetInt("seed", 1);
  fairrank::StatusOr<double> seconds = flags->GetDouble("seconds", 10.0);
  fairrank::StatusOr<int64_t> trace = flags->GetInt("trace", 0);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || *seed < 0) {
    return Usage("--seed, --seconds and --trace take numbers");
  }
  config.seed = static_cast<uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace != 0;
  config.smoke = flags->Has("smoke");
  config.corrupt_expectation = flags->Has("corrupt-expectation");
  if (config.csv_path.empty()) return Usage("--csv is required");

  WorkloadResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "uniform_pairwise") run = RunUniformPairwise;
  if (config.workload == "server_closed_loop") run = RunServerClosedLoop;
  if (config.workload == "aggregate_ingest") run = RunAggregateIngest;
  if (run == nullptr) return Usage("unknown --workload " + config.workload);

  if (command == "generate") {
    fairrank::Status status = GenerateCsv(config);
    if (!status.ok()) return Usage(status.ToString());
    return 0;
  }
  if (command != "run") return Usage("unknown command " + command);

  WorkloadResult result = run(config);
  result.Prov("seed", static_cast<double>(config.seed));
  result.Prov("seconds", config.seconds);
  result.Prov("trace", config.trace ? 1.0 : 0.0);
  result.Prov("smoke", config.smoke ? 1.0 : 0.0);
  result.Prov("hardware_threads",
              static_cast<double>(fairrank::HardwareThreads()));
  result.Prov("compiler", JsonString(LEDGER_COMPILER));
  result.Prov("build_type", JsonString(LEDGER_BUILD_TYPE));
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", ResultJson(config, result).c_str());
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
