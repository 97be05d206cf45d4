#include "perfbench/site.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

#include "perfbench/stats.h"
#include "src/core/schema.h"

namespace perfbench {

namespace {

// The end-to-end metrics each workload reports (README.md): no metric on a
// workload where no user waits for it.
const std::map<std::string, std::vector<std::string>>& WorkloadMetrics() {
  static const auto* metrics = new std::map<std::string, std::vector<std::string>>{
      {"desk",
       {"setup_s", "peak_rss_mb", "ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us",
        "write_p99_us", "connect_p50_us"}},
      {"term_start",
       {"setup_s", "peak_rss_mb", "read_p50_us", "write_p50_us", "write_p99_us",
        "register_p50_us", "register_p99_us"}},
      {"propagate", {"setup_s", "peak_rss_mb", "write_p50_us", "visible_p50_ms", "visible_p90_ms"}},
  };
  return *metrics;
}

// The metrics of the JSON result line, (name, unit) pairs as BENCHMARK.json
// lists them: every workload reports each of them, so a workload can be
// compared run against run on any of its metrics.
const std::vector<std::pair<std::string, std::string>> kContractEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"write_p50_us", "us"}};
const std::vector<std::pair<std::string, std::string>> kContractPerLayer = {
    {"server.write_us", "us"},
    {"protocol.decode_us", "us"},
    {"protocol.encode_us", "us"},
    {"db.rows_examined_per_write", "rows"}};

std::string UnitOf(const std::string& metric) {
  if (metric == "setup_s") {
    return "s";
  }
  if (metric == "peak_rss_mb") {
    return "MB";
  }
  if (metric == "ops_per_s") {
    return "1/s";
  }
  return metric.substr(metric.rfind('_') + 1);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// A figure with every digit it has: a rounded time could read the same on
// every run and hide its spread.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

Site::Site(const moira::SiteSpec& spec, const moira::Clock* clock) {
  db = std::make_unique<moira::Database>(clock);
  moira::CreateMoiraSchema(db.get());
  moira::SeedMoiraDefaults(db.get());
  mc = std::make_unique<moira::MoiraContext>(db.get());
  realm = std::make_unique<moira::KerberosRealm>(clock);
  builder = std::make_unique<moira::SiteBuilder>(mc.get(), realm.get());
  builder->Build(spec);
}

Answer TimedQuery(moira::MrClient& client, const std::string& query,
                  const std::vector<std::string>& args, uint64_t* elapsed_ns) {
  Tracer& tracer = Tracer::Get();
  uint64_t span = tracer.enabled() ? tracer.Begin("client.rpc", tracer.NewRequest()) : 0;
  Answer answer;
  uint64_t start = NowNs();
  answer.code = client.Query(query, args, [&answer](moira::Tuple tuple) {
    answer.tuples.push_back(std::move(tuple));
  });
  *elapsed_ns = NowNs() - start;
  tracer.End(span);
  return answer;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void AddSpanLayer(Report* report, const std::string& name, const std::string& unit,
                  const std::vector<uint64_t>& ns_values) {
  if (ns_values.empty()) {
    return;
  }
  std::vector<double> values(ns_values.begin(), ns_values.end());
  double scale = unit == "ms" ? 1e6 : 1e3;
  report->layers[name] = Report::Layer{Median(values) / scale, unit, ns_values.size()};
}

void AddCountLayer(Report* report, const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  report->layers[name] = Report::Layer{value, unit, samples};
}

std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& summary = out[spans[i].name];
    summary.self_ns.push_back(self[i]);
    summary.total_ns.push_back(spans[i].end_ns - spans[i].start_ns);
  }
  return out;
}

std::vector<uint64_t> SelfOf(const std::map<std::string, SpanSummary>& by_name,
                             const std::string& name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? std::vector<uint64_t>{} : it->second.self_ns;
}

std::map<std::string, SpanSummary> AddCommonLayers(
    Report* report, const std::vector<Span>& spans,
    const TracingHandler::ClassCounters& reads, const TracingHandler::ClassCounters& writes) {
  std::map<std::string, SpanSummary> by_name = SummarizeSpans(spans);
  for (const auto& [name, summary] : by_name) {
    AddSpanLayer(report, "span." + name + ".self_us", "us", summary.self_ns);
    if (name.starts_with("core.exec.")) {
      AddSpanLayer(report, "core.exec_us." + name.substr(10), "us", summary.self_ns);
    }
  }
  for (const char* name : {"protocol.decode", "protocol.encode", "server.read", "server.write",
                           "krb.auth"}) {
    AddSpanLayer(report, std::string(name) + "_us", "us", SelfOf(by_name, name));
  }
  if (reads.requests > 0) {
    double n = static_cast<double>(reads.requests);
    AddCountLayer(report, "protocol.reply_bytes_per_read",
                  static_cast<double>(reads.reply_bytes) / n, "bytes", reads.requests);
    AddCountLayer(report, "db.rows_examined_per_read",
                  static_cast<double>(reads.db.rows_examined) / n, "rows", reads.requests);
    AddCountLayer(report, "db.rows_emitted_per_read",
                  static_cast<double>(reads.db.rows_emitted) / n, "rows", reads.requests);
    AddCountLayer(report, "db.full_scans_per_read",
                  static_cast<double>(reads.db.full_scans) / n, "scans", reads.requests);
  }
  if (writes.requests > 0) {
    AddCountLayer(report, "db.rows_examined_per_write",
                  static_cast<double>(writes.db.rows_examined) /
                      static_cast<double>(writes.requests),
                  "rows", writes.requests);
  }
  return by_name;
}

Figure EndToEnd(const Report& report, const std::string& metric, bool untraced) {
  Figure figure;
  if (metric == "setup_s" || metric == "peak_rss_mb") {
    if (untraced) {
      return figure;  // not a property of the measured phase
    }
    return metric == "setup_s"
               ? Figure{Median(report.setup_s), report.setup_s.size(), !report.setup_s.empty()}
               : Figure{PeakRssMb(), 1, true};
  }
  if (metric == "ops_per_s") {
    double value = untraced ? report.untraced_ops_per_s : report.ops_per_s;
    return Figure{value, report.ops_measured, value > 0};
  }
  // <stem>_p<percentile>_<unit>
  size_t p_at = metric.find("_p");
  size_t unit_at = metric.rfind('_');
  if (p_at == std::string::npos || unit_at <= p_at) {
    return figure;
  }
  std::string stem = metric.substr(0, p_at);
  double percentile = std::stod(metric.substr(p_at + 2, unit_at - p_at - 2));
  const std::map<std::string, Series>& series =
      untraced ? report.untraced_series : report.series;
  auto it = series.find(stem);
  if (it == series.end()) {
    return figure;
  }
  std::optional<double> value = Percentile(it->second.values, percentile);
  figure.samples = it->second.values.size();
  if (value.has_value()) {
    figure.value = *value;
    figure.valid = true;
  }
  return figure;
}

std::optional<std::string> ResultLine(const Report& report) {
  std::string result = std::string("{\"correct\": ") +
                       (report.ledger.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.ledger.attempted()) +
                       ", \"failed\": " + std::to_string(report.ledger.failed()) +
                       ", \"metrics\": {";
  const char* sep = "";
  const std::vector<std::pair<std::string, std::string>>& names =
      report.options.trace ? kContractPerLayer : kContractEndToEnd;
  for (const auto& [name, unit] : names) {
    double value;
    if (report.options.trace) {
      auto it = report.layers.find(name);
      if (it == report.layers.end()) {
        return std::nullopt;
      }
      value = it->second.value;
    } else {
      Figure figure = EndToEnd(report, name);
      if (!figure.valid) {
        return std::nullopt;
      }
      value = figure.value;
    }
    result += sep;
    result += "\"" + name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" + unit + "\"}";
    sep = ", ";
  }
  return result + "}}";
}

bool PrintReport(const Report& report) {
  const std::string& w = report.workload;
  for (const auto& [key, value] : report.meta) {
    std::printf("meta %s %s=%s\n", w.c_str(), key.c_str(), value.c_str());
  }
  std::printf("note %s the simulated cron wait between DCM passes is excluded from "
              "every timing\n",
              w.c_str());
  for (const std::string& metric : WorkloadMetrics().at(w)) {
    Figure figure = EndToEnd(report, metric);
    std::printf("metric %s %s %s %s n=%" PRIu64 "%s\n", w.c_str(), metric.c_str(),
                Number(figure.value).c_str(), UnitOf(metric).c_str(), figure.samples,
                figure.valid ? "" : " (too few samples beyond the percentile)");
    Figure untraced = EndToEnd(report, metric, /*untraced=*/true);
    if (report.options.trace && figure.valid && untraced.valid) {
      std::printf("overhead %s %s traced-untraced=%s %s (untraced %s, n=%" PRIu64 ")\n",
                  w.c_str(), metric.c_str(), Number(figure.value - untraced.value).c_str(),
                  UnitOf(metric).c_str(), Number(untraced.value).c_str(), untraced.samples);
    }
  }
  for (const auto& [query, samples] : report.details) {
    std::optional<double> p50 = Percentile(samples.values, 50);
    std::optional<double> p99 = Percentile(samples.values, 99);
    std::printf("detail %s %s p50=%s p99=%s us n=%zu\n", w.c_str(), query.c_str(),
                p50 ? Number(*p50).c_str() : "-", p99 ? Number(*p99).c_str() : "-",
                samples.values.size());
  }
  std::printf("ops %s attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n", w.c_str(),
              report.ledger.attempted(), report.ledger.failed(),
              report.ledger.correct() ? "true" : "false");
  for (const auto& [name, count] : report.ledger.classes()) {
    std::printf("failure %s %s %" PRIu64 "%s\n", w.c_str(), name.c_str(), count,
                ExpectedFailure(name) ? " (expected: a known defect)" : "");
  }
  for (const auto& [name, layer] : report.layers) {
    std::printf("layer %s %s %s %s n=%" PRIu64 "\n", w.c_str(), name.c_str(),
                Number(layer.value).c_str(), layer.unit.c_str(), layer.samples);
  }

  // The machine-readable report: every workload figure with its sample count
  // (null when there are too few samples for it).
  std::string json = "{\"workload\": \"" + w + "\", \"metrics\": {";
  const char* sep = "";
  for (const std::string& metric : WorkloadMetrics().at(w)) {
    Figure figure = EndToEnd(report, metric);
    json += sep;
    json += "\"" + metric + "\": {\"value\": " +
            (figure.valid ? Number(figure.value) : std::string("null")) + ", \"unit\": \"" +
            UnitOf(metric) + "\", \"samples\": " + std::to_string(figure.samples) + "}";
    sep = ", ";
  }
  json += "}, \"failures\": {";
  sep = "";
  for (const auto& [name, count] : report.ledger.classes()) {
    json += sep;
    json += "\"" + JsonEscape(name) + "\": " + std::to_string(count);
    sep = ", ";
  }
  json += "}}";
  std::printf("report %s\n", json.c_str());

  std::optional<std::string> result = ResultLine(report);
  if (result.has_value()) {
    std::printf("%s\n", result->c_str());
  }
  std::fflush(stdout);
  return result.has_value();
}

}  // namespace perfbench
