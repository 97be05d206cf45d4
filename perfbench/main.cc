// moira_perfbench: runs one workload of the end-to-end benchmark.
//
// Usage: moira_perfbench --workload desk|term_start|propagate --seed N
//            --seconds S --trace 0|1 --scratch DIR [--spans FILE]
//
// The run's inputs come only from --seed; its amount of work only from
// --seconds (a fixed number of operations per second of nominal run time,
// after an untimed warm-up; nothing stops on a timer).  With --trace 1 the
// measured phase alternates untraced and traced units of work; the traced
// spans give the per-layer figures, the difference of the two halves is
// printed as the tracing overhead, and the raw spans go to --spans as
// tab-separated lines.  The last line of standard output is the JSON result;
// a run in which a metric of that line has no valid figure prints none and
// exits 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/site.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "moira_perfbench: %s\n"
               "usage: moira_perfbench --workload desk|term_start|propagate --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--spans FILE]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds < 1 || options.scratch_dir.empty()) {
    Usage("--seconds must be at least 1 and --scratch is required");
  }
  std::filesystem::create_directories(options.scratch_dir);

  perfbench::Report report;
  if (options.workload == "desk") {
    report = perfbench::RunDesk(options);
  } else if (options.workload == "term_start") {
    report = perfbench::RunTermStart(options);
  } else if (options.workload == "propagate") {
    report = perfbench::RunPropagate(options);
  } else {
    Usage("unknown workload");
  }
  report.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  report.meta["compiler"] = __VERSION__;
  report.meta["seed"] = std::to_string(options.seed);
  report.meta["seconds"] = std::to_string(options.seconds);
  report.meta["site"] = "SiteSpec{} (10000 users)";
  report.meta["traced"] = options.trace ? "yes (every other unit of the measured phase)" : "no";
  report.meta["ops_attempted"] = std::to_string(report.ledger.attempted());
  if (options.trace && !spans_path.empty()) {
    // The spans, kept in memory during the run, written out at its end.
    std::ofstream out(spans_path);
    out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
    for (const perfbench::Span& span : perfbench::Tracer::Get().Collect()) {
      out << span.id << '\t' << span.parent << '\t' << span.request << '\t' << span.name << '\t'
          << span.start_ns << '\t' << span.end_ns << '\n';
    }
    report.meta["spans_file"] = out ? spans_path : "unwritable: " + spans_path;
  }
  if (!perfbench::PrintReport(report)) {
    std::fprintf(stderr,
                 "moira_perfbench: a metric of the result line has no valid figure "
                 "(a workload phase produced too few samples); no result\n");
    return 1;
  }
  return 0;
}
