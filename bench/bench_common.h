// Shared fixture for the Moira benchmark harness: a paper-scale synthetic
// site (DESIGN.md experiment index) built once per process, the heap probe
// the memory reports use, and the header every BENCH_*.json report starts
// with.
#ifndef MOIRA_BENCH_BENCH_COMMON_H_
#define MOIRA_BENCH_BENCH_COMMON_H_

#include <malloc.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/core/schema.h"
#include "src/dcm/dcm.h"
#include "src/krb/kerberos.h"
#include "src/sim/population.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"

namespace moira {

// One fully-provisioned site: database, KDC, hosts, DCM.
struct BenchSite {
  explicit BenchSite(const SiteSpec& spec) : clock(568000000) {
    db = std::make_unique<Database>(&clock);
    CreateMoiraSchema(db.get());
    SeedMoiraDefaults(db.get());
    mc = std::make_unique<MoiraContext>(db.get());
    realm = std::make_unique<KerberosRealm>(&clock);
    builder = std::make_unique<SiteBuilder>(mc.get(), realm.get());
    builder->Build(spec);
    zephyr = std::make_unique<ZephyrBus>(&clock);
    hosts = CreateSimHosts(*mc, realm.get(), &directory);
    dcm = std::make_unique<Dcm>(mc.get(), realm.get(), zephyr.get(), &directory);
    ConfigureStandardServices(dcm.get());
    clock.Advance(kSecondsPerDay);
  }

  SimulatedClock clock;
  std::unique_ptr<Database> db;
  std::unique_ptr<MoiraContext> mc;
  std::unique_ptr<KerberosRealm> realm;
  std::unique_ptr<SiteBuilder> builder;
  std::unique_ptr<ZephyrBus> zephyr;
  HostDirectory directory;
  std::vector<std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<Dcm> dcm;
};

// The paper-scale site (10,000 users, 20 NFS servers), built lazily once.
inline BenchSite& PaperSite() {
  static BenchSite* site = new BenchSite(SiteSpec{});
  return *site;
}

// A small site for latency microbenchmarks.
inline BenchSite& SmallSite() {
  static BenchSite* site = new BenchSite(TestSiteSpec());
  return *site;
}

// Heap bytes in use, as mallinfo2 sees them (small chunks plus mmapped
// blocks).  A sanitizer's allocator keeps its heap out of mallinfo2, which
// then reads 0.
inline size_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Opens a BENCH_*.json object with the report's "benchmark" name and the
// machine it ran on: the online CPU count and the build type
// (bench/CMakeLists.txt defines MOIRA_BENCH_BUILD_TYPE).  The caller writes
// the report's arrays and closes the object.
inline void WriteBenchJsonHeader(std::FILE* f, const char* benchmark) {
  std::fprintf(f,
               "{\n  \"benchmark\": \"%s\",\n"
               "  \"machine\": {\"nproc\": %u, \"build_type\": \"%s\"},\n",
               benchmark, std::thread::hardware_concurrency(), MOIRA_BENCH_BUILD_TYPE);
}

}  // namespace moira

#endif  // MOIRA_BENCH_BENCH_COMMON_H_
