// E8 — Hesiod service (paper section 5.8.2): the server loads the Moira-
// generated .db files into memory at startup and answers lookups from them.
// Benchmarks the load (the restart cost the install script pays) and steady-
// state lookups, including CNAME chases, at paper scale.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/dcm/generators.h"
#include "src/hesiod/hesiod.h"

namespace moira {
namespace {

std::vector<std::string>& PaperDbTexts() {
  static std::vector<std::string>* texts = [] {
    auto* out = new std::vector<std::string>;
    GeneratorResult result;
    GenerateHesiod(*PaperSite().mc, &result);
    for (const auto& [name, contents] : result.common.members()) {
      out->push_back(*contents);
    }
    return out;
  }();
  return *texts;
}

HesiodServer& LoadedServer() {
  static HesiodServer* server = [] {
    auto* s = new HesiodServer;
    s->Reload(PaperDbTexts());
    return s;
  }();
  return *server;
}

void BM_HesiodReload(benchmark::State& state) {
  std::vector<std::string>& texts = PaperDbTexts();
  HesiodServer server;
  for (auto _ : state) {
    int loaded = server.Reload(texts);
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["records"] = static_cast<double>(server.record_count());
}
BENCHMARK(BM_HesiodReload)->Unit(benchmark::kMillisecond);

void BM_HesiodPasswdLookup(benchmark::State& state) {
  HesiodServer& server = LoadedServer();
  const std::vector<std::string>& logins = PaperSite().builder->active_logins();
  SplitMix64 rng(7);
  for (auto _ : state) {
    const std::string& login = logins[rng.Below(logins.size())];
    benchmark::DoNotOptimize(server.Resolve(login, "passwd"));
  }
}
BENCHMARK(BM_HesiodPasswdLookup);

void BM_HesiodUidCnameChase(benchmark::State& state) {
  // uid lookups resolve through a CNAME to the passwd record.
  HesiodServer& server = LoadedServer();
  SplitMix64 rng(11);
  for (auto _ : state) {
    std::string uid = std::to_string(6500 + rng.Below(7000));
    benchmark::DoNotOptimize(server.Resolve(uid, "uid"));
  }
}
BENCHMARK(BM_HesiodUidCnameChase);

void BM_HesiodMissLookup(benchmark::State& state) {
  HesiodServer& server = LoadedServer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Resolve("no-such-user", "passwd"));
  }
}
BENCHMARK(BM_HesiodMissLookup);

void BM_HesiodClusterLookup(benchmark::State& state) {
  HesiodServer& server = LoadedServer();
  SplitMix64 rng(13);
  for (auto _ : state) {
    std::string machine = "W" + std::to_string(1 + rng.Below(120)) + ".MIT.EDU";
    benchmark::DoNotOptimize(server.Resolve(machine, "cluster"));
  }
}
BENCHMARK(BM_HesiodClusterLookup);

void PrintReport() {
  HesiodServer& server = LoadedServer();
  std::printf("E8 hesiod at paper scale: %zu records loaded from 11 .db files\n\n",
              server.record_count());
}

}  // namespace
}  // namespace moira

int main(int argc, char** argv) {
  moira::PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
