// Pieces the three workloads share: run options, the 10,000-user site, and
// the report every run prints.
#ifndef MOIRA_PERFBENCH_SITE_H_
#define MOIRA_PERFBENCH_SITE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "src/client/client.h"
#include "src/common/clock.h"
#include "src/core/context.h"
#include "src/db/database.h"
#include "src/krb/kerberos.h"
#include "src/sim/population.h"

namespace moira {
class Dcm;
}  // namespace moira

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // per-run directory inside the checkout
};

// Share of a run's operations done untimed before measuring.
inline constexpr double kWarmupShare = 0.1;

// A database populated from `spec`, built the way examples/moirad.cpp and
// bench/bench_common.h build theirs.  The workloads use SiteSpec{} (the
// paper's 10,000-user design point).
struct Site {
  explicit Site(const moira::SiteSpec& spec, const moira::Clock* clock);

  std::unique_ptr<moira::Database> db;
  std::unique_ptr<moira::MoiraContext> mc;
  std::unique_ptr<moira::KerberosRealm> realm;
  std::unique_ptr<moira::SiteBuilder> builder;
};

// Latency samples of one end-to-end quantity, in the unit they are reported.
struct Series {
  std::vector<double> values;
};

// Everything one run measured.
struct Report {
  std::string workload;
  Options options;
  std::map<std::string, std::string> meta;
  std::vector<double> setup_s;        // one per set-up the workload needs
  // End-to-end samples by metric stem ("read", "write", ...).  A traced run
  // alternates traced and untraced units of work through its measured phase
  // (so both halves see the same drift in the site's state); the untraced
  // units' samples go to untraced_series and give the overhead line.
  std::map<std::string, Series> series;
  std::map<std::string, Series> untraced_series;
  // Per-query latencies of untraced requests (diagnostic `detail` lines).
  std::map<std::string, Series> details;
  double ops_per_s = 0;  // desk only
  double untraced_ops_per_s = 0;
  uint64_t ops_measured = 0;
  Ledger ledger;

  // Where a sample taken now belongs.
  std::vector<double>& Samples(const std::string& stem) {
    bool untraced = options.trace && !Tracer::Get().enabled();
    return (untraced ? untraced_series : series)[stem].values;
  }
  void AddDetail(const std::string& query, double micros) {
    if (!Tracer::Get().enabled()) {
      details[query].values.push_back(micros);
    }
  }
  // Per-layer figures from the traced phase: name -> (value, unit, samples).
  struct Layer {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::map<std::string, Layer> layers;
};

// Peak resident set of this process, in MB.
double PeakRssMb();

// Adds a per-layer figure from span samples (median of `values`, which are in
// nanoseconds, scaled to `unit` "us" or "ms").
void AddSpanLayer(Report* report, const std::string& name, const std::string& unit,
                  const std::vector<uint64_t>& ns_values);
void AddCountLayer(Report* report, const std::string& name, double value,
                   const std::string& unit, uint64_t samples);

// Per span name: self and total durations (ns) of every span with that name.
struct SpanSummary {
  std::vector<uint64_t> self_ns;
  std::vector<uint64_t> total_ns;
};
std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans);
// Self times of the spans named `name` (empty if none).
std::vector<uint64_t> SelfOf(const std::map<std::string, SpanSummary>& by_name,
                             const std::string& name);

// The per-layer figures every workload shares: the self time of every span
// name, the server (server.read_us / server.write_us), protocol, krb and
// core.exec spans, and the handler's per-request db and reply-size counters
// (TracingHandler::reads() / writes()).  Returns the span summary for the
// workload's own figures.
std::map<std::string, SpanSummary> AddCommonLayers(
    Report* report, const std::vector<Span>& spans,
    const TracingHandler::ClassCounters& reads, const TracingHandler::ClassCounters& writes);

// The one-line JSON result that ends every run's output, or nullopt when a
// metric it must carry (BENCHMARK.json: the end-to-end metrics, or with
// --trace 1 the per-layer ones) has no valid figure in `report`.
std::optional<std::string> ResultLine(const Report& report);

// Prints the report lines, then the result line.  Returns false, with no
// result line, when ResultLine() has none.
bool PrintReport(const Report& report);

// The end-to-end figure for a metric name like "read_p50_us" from the run's
// series, when its percentile has at least ten samples beyond it.
struct Figure {
  double value = 0;
  uint64_t samples = 0;
  bool valid = false;
};
Figure EndToEnd(const Report& report, const std::string& metric, bool untraced = false);

// Wall-clock seconds between two NowNs() readings.
inline double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}
inline double Micros(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

// Runs one query through `client` as a new request (a client.rpc span when
// tracing) and returns the answer; `*elapsed_ns` gets the round trip.
Answer TimedQuery(moira::MrClient& client, const std::string& query,
                  const std::vector<std::string>& args, uint64_t* elapsed_ns);

// Workload entry points.
Report RunDesk(const Options& options);
Report RunTermStart(const Options& options);
Report RunPropagate(const Options& options);

// The standard DCM services, as ConfigureStandardServices (src/dcm/dcm.cc)
// installs them, with every generator and patch builder wrapped in a span:
// propagate's traced run uses it.
void ConfigureTracedServices(moira::Dcm* dcm);

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_SITE_H_
