// In-memory span recorder and the decorators that place spans at Moira's
// public boundaries, for the traced run of the benchmark.
//
// A span records its name, start, end, the span that caused it (parent) and
// the request it belongs to; every span of one client request shares that
// request id, across threads too.  Spans stay in per-thread buffers while the
// run is measured and are merged once the workload's threads have ended.
// Nothing inside src/ is instrumented: every span wraps a call the benchmark
// makes into a module's public interface, or a decorator the benchmark
// installs through one (MessageHandler, ClientChannel, the DCM's generator
// and patch-builder hooks, SimHost install commands, the Hesiod resolver's
// transport).
#ifndef MOIRA_PERFBENCH_TRACE_H_
#define MOIRA_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/db/database.h"
#include "src/net/channel.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // 0: not part of a client request
};

// Self time of every span: its duration minus the part of its interval that
// its children cover (overlapping children are counted once; a child's time
// outside the parent's interval is not subtracted).  Indexed like `spans`.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// The process-wide span store.  Disabled by default; when disabled every
// call is a no-op returning 0, so the untraced run pays one branch per call.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread.  Its parent is the innermost span
  // still open on this thread; its request is `request` when nonzero, else
  // the parent's.
  uint64_t Begin(std::string name, uint64_t request = 0);
  // Closes the innermost open span, which must be `id`.
  void End(uint64_t id);
  // Closes the innermost open span `id` and drops it (used for pump rounds
  // that carried no frame).
  void Discard(uint64_t id);
  // Moves the start of open span `id` later (clamps a pump round to the
  // moment its frame was sent).
  void ClampStart(uint64_t id, uint64_t start_ns);

  // A fresh request id.
  uint64_t NewRequest() { return next_request_.fetch_add(1); }
  // Request of the innermost open span on this thread (0 if none).
  uint64_t CurrentRequest();

  // Every closed span from every thread.  Call only after the threads that
  // recorded spans have ended or are idle.
  std::vector<Span> Collect() const;

 private:
  struct ThreadBuffer {
    std::vector<Span> done;
    std::vector<Span> open;
  };
  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span; no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_ = 0;
};

// What a client thread publishes before each request so that a server
// handler running on another thread can join the request's spans.
struct RequestContext {
  std::atomic<uint64_t> request{0};
  std::atomic<uint64_t> send_done_ns{0};
};

// Database-wide sums of the access-path counters (Table::stats()).
struct DbCounters {
  uint64_t rows_examined = 0;
  uint64_t rows_emitted = 0;
  uint64_t full_scans = 0;
};
DbCounters SumTableStats(const moira::Database& db);

// Wraps a MessageHandler.  When tracing is on it records one span per request
// around the inner handler (server.read / server.write / server.auth /
// server.other, or repl.push on a replica endpoint), re-runs the public wire
// decode and encode on the request and reply (protocol.decode /
// protocol.encode spans, outside the handler span), takes Table::stats()
// deltas per request class, and queues each read for a re-run through
// QueryRegistry::Execute after its reply has gone out (RunDeferred).
class TracingHandler final : public moira::MessageHandler {
 public:
  // `db` is the database behind `inner`; `ctx` (optional) carries the request
  // id from a client on another thread.
  TracingHandler(moira::MessageHandler* inner, const moira::Database* db,
                 const RequestContext* ctx = nullptr)
      : inner_(inner), db_(db), ctx_(ctx) {}

  std::string OnMessage(uint64_t conn_id, std::string_view payload) override;
  void OnMessageBatch(std::vector<BatchItem>* batch) override;
  void OnConnect(uint64_t conn_id, std::string peer) override {
    inner_->OnConnect(conn_id, std::move(peer));
  }
  void OnDisconnect(uint64_t conn_id) override { inner_->OnDisconnect(conn_id); }

  // Principal whose reads the deferred re-runs execute as.
  void set_principal(std::string principal);

  // Re-executes the queued reads (core.exec.<query> spans) against `mc`;
  // call on the thread that owns the server, after the replies were sent.
  void RunDeferred(moira::MoiraContext& mc);

  struct ClassCounters {
    uint64_t requests = 0;
    DbCounters db;
    uint64_t reply_bytes = 0;
  };
  const ClassCounters& reads() const { return reads_; }
  const ClassCounters& writes() const { return writes_; }
  // Frames handled since the last call (the pump's per-round count).
  uint64_t TakeFrames() { return std::exchange(frames_, 0); }

 private:
  struct Deferred {
    std::string principal;
    std::string query;
    std::vector<std::string> args;
  };
  std::string Handle(uint64_t conn_id, std::string_view payload,
                     std::vector<BatchItem>* batch);

  moira::MessageHandler* inner_;
  const moira::Database* db_;
  const RequestContext* ctx_;
  std::mutex principal_mu_;  // guards principal_ (set by the client thread)
  std::string principal_;
  std::deque<Deferred> deferred_;
  ClassCounters reads_;
  ClassCounters writes_;
  uint64_t frames_ = 0;
  uint64_t encoded_bytes_ = 0;  // keeps the re-encode observable
};

// Wraps a client channel: net.send / net.recv spans, and publishes the
// request id and send time to `ctx` (optional) for a server on another
// thread.
class TracingChannel final : public moira::ClientChannel {
 public:
  TracingChannel(std::unique_ptr<moira::ClientChannel> inner, RequestContext* ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  int32_t Send(std::string_view framed) override;
  int32_t Recv(std::string* payload) override;

 private:
  std::unique_ptr<moira::ClientChannel> inner_;
  RequestContext* ctx_;
};

}  // namespace perfbench

#endif  // MOIRA_PERFBENCH_TRACE_H_
