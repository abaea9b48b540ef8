// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--result <file.json>] [--chrome-trace <file>]
//
// Prints human-readable notes on stderr and, as the last line of stdout,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with --trace 1 the per-layer ones. --result also writes that object
// with the seed, the host-capacity probes and the run's details.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "capacity.h"
#include "common/json.h"
#include "workloads.h"

namespace {

using db2graph::Json;

Json NumberArray(const std::vector<double>& values) {
  Json a = Json::Array();
  for (double v : values) a.Append(Json::Number(v));
  return a;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--result <file>] "
               "[--chrome-trace <file>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  // Client threads, service workers and parallelism all follow the host.
  options.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--result") {
        result_path = value;
      } else if (arg == "--chrome-trace") {
        options.chrome_trace_path = value;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  std::vector<double> capacity_start = perfbench::ProbeCapacity(options.nproc);
  db2graph::Result<perfbench::Report> report = perfbench::RunWorkload(options);
  std::vector<double> capacity_end = perfbench::ProbeCapacity(options.nproc);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  bool shifted = perfbench::CapacityShifted(capacity_start, capacity_end);

  Json metrics = Json::Object();
  for (const perfbench::Metric& m : report->metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::Str(m.unit));
    metrics.Set(m.name, std::move(entry));
    std::fprintf(stderr, "%-40s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(report->attempted),
               static_cast<unsigned long long>(report->failed),
               report->correct ? "true" : "false");
  for (const std::string& e : report->errors) {
    std::fprintf(stderr, "  failure: %s\n", e.c_str());
  }
  auto render = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.2f", s.empty() ? "" : " ", x);
      s += buf;
    }
    return s;
  };
  std::fprintf(stderr,
               "host capacity (scaling at 1..%d threads): start [%s], end "
               "[%s]%s\n",
               options.nproc, render(capacity_start).c_str(),
               render(capacity_end).c_str(),
               shifted ? "  SHIFTED: capacity changed during the run" : "");

  if (!result_path.empty()) {
    Json full = Json::Object();
    full.Set("correct", Json::Bool(report->correct));
    full.Set("attempted",
             Json::Number(static_cast<double>(report->attempted)));
    full.Set("failed", Json::Number(static_cast<double>(report->failed)));
    full.Set("metrics", metrics);
    full.Set("workload", Json::Str(options.workload));
    full.Set("seed", Json::Number(static_cast<double>(options.seed)));
    full.Set("seconds", Json::Number(options.seconds));
    full.Set("trace", Json::Bool(options.trace));
    full.Set("nproc", Json::Number(options.nproc));
    Json capacity = Json::Object();
    capacity.Set("start", NumberArray(capacity_start));
    capacity.Set("end", NumberArray(capacity_end));
    capacity.Set("shifted", Json::Bool(shifted));
    full.Set("capacity", std::move(capacity));
    full.Set("details", report->details);
    Json errors = Json::Array();
    for (const std::string& e : report->errors) errors.Append(Json::Str(e));
    full.Set("errors", std::move(errors));
    std::ofstream out(result_path);
    out << full.Dump(2) << "\n";
  }
  // The result line, on one line (Json::Dump always indents).
  std::string line = "{\"correct\": ";
  line += report->correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report->attempted);
  line += ", \"failed\": " + std::to_string(report->failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    const perfbench::Metric& m = report->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
