// A relaxed atomic counter that behaves like a plain int64_t field.
//
// One thread executes every request and bumps these counters, but other
// threads read them while it runs: a benchmark or test client polling
// MoiraServer::stats() or access_path_stats() on the server it drives.  So
// the counters are atomic, while everything that reads them — TBLSTATS
// materialization, benches, tests — wants plain integer semantics.  This
// wrapper gives both: relaxed fetch_add on writes, implicit load on reads,
// and a copying constructor so aggregate stats structs stay copyable.
// Counters are monotonic tallies, so relaxed ordering is sufficient — no
// reader derives control flow from cross-counter ordering.
#ifndef MOIRA_SRC_COMMON_STAT_COUNTER_H_
#define MOIRA_SRC_COMMON_STAT_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace moira {

class StatCounter {
 public:
  StatCounter(int64_t v = 0) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)
  StatCounter(const StatCounter& other) noexcept : v_(other.load()) {}
  StatCounter& operator=(const StatCounter& other) noexcept {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator int64_t() const noexcept { return load(); }  // NOLINT
  int64_t load() const noexcept { return v_.load(std::memory_order_relaxed); }

  StatCounter& operator++() noexcept {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<int64_t> v_;
};

}  // namespace moira

#endif  // MOIRA_SRC_COMMON_STAT_COUNTER_H_
