// The repository benchmark: one workload per invocation.
//
//   e2ebench --workload <ingest_backfill|scan_adhoc|dashboard_live>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a short human-readable summary, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the traced variant and reports the per-layer metrics (and writes its
// spans to --trace-out). Exits non-zero on bad arguments or a crash,
// never with a partial result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <ingest_backfill|"
               "scan_adhoc|dashboard_live> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed wants an integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) {
        usage("--seconds wants a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || !e2ebench::known_workload(args.workload)) {
    usage("--workload must name one of the three workloads");
  }
  try {
    const e2ebench::RunOutput out = e2ebench::run_workload(args);
    std::printf("workload %s seed %llu: attempted %zu, failed %zu (%zu not "
                "explained by the known fault)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                out.ledger.attempted, out.ledger.failed,
                out.ledger.unexpected);
    for (const std::string& e : out.ledger.errors) {
      std::printf("  unexpected failure: %s\n", e.c_str());
    }
    for (const e2ebench::Metric& m : out.metrics) {
      std::printf("  %-42s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n",
                e2ebench::result_json(out.correct, out.ledger, out.metrics)
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
