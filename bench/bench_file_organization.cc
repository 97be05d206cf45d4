// E1 — Reproduces the paper's File Organization table (section 5.1.G): per
// service, the generated files, their sizes, file counts, propagation counts,
// and update intervals, with the paper's 1988 numbers alongside.  Also
// benchmarks each generator at paper scale.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

struct PaperRow {
  const char* service;
  const char* file;
  long paper_size;
  int paper_number;
  int paper_propagations;
  const char* interval;
};

// The table exactly as printed in section 5.1.G.
constexpr PaperRow kPaperRows[] = {
    {"Hesiod", "cluster.db", 53656, 1, 1, "6 hours"},
    {"Hesiod", "filsys.db", 541482, 1, 1, "6 hours"},
    {"Hesiod", "gid.db", 341012, 1, 1, "6 hours"},
    {"Hesiod", "group.db", 453636, 1, 1, "6 hours"},
    {"Hesiod", "grplist.db", 357662, 1, 1, "6 hours"},
    {"Hesiod", "passwd.db", 712446, 1, 1, "6 hours"},
    {"Hesiod", "pobox.db", 415688, 1, 1, "6 hours"},
    {"Hesiod", "printcap.db", 4318, 1, 1, "6 hours"},
    {"Hesiod", "service.db", 9052, 1, 1, "6 hours"},
    {"Hesiod", "sloc.db", 3734, 1, 1, "6 hours"},
    {"Hesiod", "uid.db", 256381, 1, 1, "6 hours"},
    {"NFS", "<partition>.dirs", 2784, 20, 20, "12 hours"},
    {"NFS", "<partition>.quotas", 1205, 20, 20, "12 hours"},
    {"NFS", "credentials", 152648, 1, 20, "12 hours"},
    {"Mail", "/usr/lib/aliases", 445000, 1, 1, "24 hours"},
    {"Zephyr", "class.acl", 100, 6, 18, "24 hours"},
};

struct MeasuredRow {
  long size = 0;  // representative (average for per-host) size in bytes
  int number = 0;
  int propagations = 0;
};

void PrintTable() {
  BenchSite& site = PaperSite();
  std::printf("building paper-scale site: %zu users (%zu active)...\n",
              site.mc->users()->LiveCount(), site.builder->active_logins().size());
  DcmRunSummary summary = site.dcm->RunOnce();
  std::printf("DCM full cycle: %d services, %d distinct files, %d propagations, "
              "%lld bytes shipped\n\n",
              summary.services_generated, summary.files_generated, summary.propagations,
              static_cast<long long>(summary.bytes_propagated));

  const int nfs_hosts = static_cast<int>(site.builder->nfs_server_names().size());
  const int zephyr_hosts = static_cast<int>(site.builder->zephyr_server_names().size());

  std::map<std::string, MeasuredRow> measured;
  const GeneratorResult* hesiod = site.dcm->StagedPayload("HESIOD");
  for (const auto& [name, contents] : hesiod->common.members()) {
    measured[name] = {static_cast<long>(contents->size()), 1, 1};
  }
  const GeneratorResult* nfs = site.dcm->StagedPayload("NFS");
  long dirs_total = 0;
  long quotas_total = 0;
  long credentials_size = 0;
  for (const auto& [host, archive] : nfs->per_host) {
    for (const auto& [name, contents] : archive.members()) {
      if (name.ends_with(".dirs")) {
        dirs_total += static_cast<long>(contents->size());
      } else if (name.ends_with(".quotas")) {
        quotas_total += static_cast<long>(contents->size());
      } else if (name == "credentials") {
        credentials_size = static_cast<long>(contents->size());
      }
    }
  }
  measured["<partition>.dirs"] = {dirs_total / nfs_hosts, nfs_hosts, nfs_hosts};
  measured["<partition>.quotas"] = {quotas_total / nfs_hosts, nfs_hosts, nfs_hosts};
  measured["credentials"] = {credentials_size, 1, nfs_hosts};
  const GeneratorResult* mail = site.dcm->StagedPayload("SMTP");
  measured["/usr/lib/aliases"] = {
      static_cast<long>(mail->common.Find("aliases")->size()), 1, 1};
  const GeneratorResult* zephyr = site.dcm->StagedPayload("ZEPHYR");
  long acl_total = 0;
  int acl_count = 0;
  for (const auto& [name, contents] : zephyr->common.members()) {
    acl_total += static_cast<long>(contents->size());
    ++acl_count;
  }
  measured["class.acl"] = {acl_count > 0 ? acl_total / acl_count : 0, acl_count,
                           acl_count * zephyr_hosts};

  std::printf("%-8s %-20s %12s %12s %8s %8s %8s %8s %10s\n", "Service", "File",
              "paper-size", "ours-size", "paper-N", "ours-N", "paper-P", "ours-P",
              "Interval");
  int paper_files = 0;
  int paper_props = 0;
  int our_files = 0;
  int our_props = 0;
  for (const PaperRow& row : kPaperRows) {
    std::string key = row.file;
    if (key == "filsys.db") {
      key = "filsys.db";
    }
    const MeasuredRow& m = measured[key];
    std::printf("%-8s %-20s %12ld %12ld %8d %8d %8d %8d %10s\n", row.service, row.file,
                row.paper_size, m.size, row.paper_number, m.number,
                row.paper_propagations, m.propagations, row.interval);
    paper_files += row.paper_number;
    paper_props += row.paper_propagations;
    our_files += m.number;
    our_props += m.propagations;
  }
  // The mailhub /etc/passwd of section 5.8.2 is generated too but the paper's
  // table omits it; report it separately.
  std::printf("%-8s %-20s %12s %12ld %8s %8d %8s %8d %10s\n", "Mail", "/etc/passwd (5.8.2)",
              "-", static_cast<long>(mail->common.Find("passwd")->size()), "-", 1, "-", 1,
              "24 hours");
  std::printf("%-8s %-20s %12s %12s %8d %8d %8d %8d\n\n", "TOTAL", "", "", "",
              paper_files, our_files, paper_props, our_props);
  std::printf("paper TOTAL: 59 files, 90 propagations\n\n");
}

void BM_GenerateHesiod(benchmark::State& state) {
  BenchSite& site = PaperSite();
  for (auto _ : state) {
    GeneratorResult result;
    GenerateHesiod(*site.mc, &result);
    benchmark::DoNotOptimize(result.common.ContentBytes());
  }
}
BENCHMARK(BM_GenerateHesiod)->Unit(benchmark::kMillisecond);

void BM_GenerateNfs(benchmark::State& state) {
  BenchSite& site = PaperSite();
  for (auto _ : state) {
    GeneratorResult result;
    GenerateNfs(*site.mc, &result);
    benchmark::DoNotOptimize(result.per_host.size());
  }
}
BENCHMARK(BM_GenerateNfs)->Unit(benchmark::kMillisecond);

void BM_GenerateMail(benchmark::State& state) {
  BenchSite& site = PaperSite();
  for (auto _ : state) {
    GeneratorResult result;
    GenerateMail(*site.mc, &result);
    benchmark::DoNotOptimize(result.common.ContentBytes());
  }
}
BENCHMARK(BM_GenerateMail)->Unit(benchmark::kMillisecond);

void BM_GenerateZephyr(benchmark::State& state) {
  BenchSite& site = PaperSite();
  for (auto _ : state) {
    GeneratorResult result;
    GenerateZephyrAcls(*site.mc, &result);
    benchmark::DoNotOptimize(result.common.ContentBytes());
  }
}
BENCHMARK(BM_GenerateZephyr)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace moira

int main(int argc, char** argv) {
  moira::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
