#include "perfbench/trace.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/protocol/wire.h"

namespace perfbench {

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& span : spans) {
    auto it = index_of.find(span.parent);
    if (span.parent != 0 && it != index_of.end()) {
      children[it->second].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    uint64_t duration = span.end_ns - span.start_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    uint64_t covered = 0;
    uint64_t cursor = span.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = duration - std::min(covered, duration);
  }
  return self;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
  }
  return *local;
}

uint64_t Tracer::Begin(std::string name, uint64_t request) {
  if (!enabled()) {
    return 0;
  }
  ThreadBuffer& buffer = Local();
  Span span;
  span.name = std::move(name);
  span.id = next_id_.fetch_add(1);
  if (!buffer.open.empty()) {
    span.parent = buffer.open.back().id;
    span.request = buffer.open.back().request;
  }
  if (request != 0) {
    span.request = request;
  }
  span.start_ns = NowNs();
  buffer.open.push_back(std::move(span));
  return buffer.open.back().id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) {
    return;
  }
  uint64_t now = NowNs();
  ThreadBuffer& buffer = Local();
  if (buffer.open.empty() || buffer.open.back().id != id) {
    return;  // unbalanced: tracing was switched on mid-span
  }
  buffer.open.back().end_ns = now;
  buffer.done.push_back(std::move(buffer.open.back()));
  buffer.open.pop_back();
}

void Tracer::Discard(uint64_t id) {
  if (id == 0) {
    return;
  }
  ThreadBuffer& buffer = Local();
  if (!buffer.open.empty() && buffer.open.back().id == id) {
    buffer.open.pop_back();
  }
}

void Tracer::ClampStart(uint64_t id, uint64_t start_ns) {
  if (id == 0) {
    return;
  }
  for (Span& span : Local().open) {
    if (span.id == id && start_ns > span.start_ns) {
      span.start_ns = start_ns;
    }
  }
}

uint64_t Tracer::CurrentRequest() {
  if (!enabled()) {
    return 0;
  }
  ThreadBuffer& buffer = Local();
  return buffer.open.empty() ? 0 : buffer.open.back().request;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(std::string name, uint64_t request)
    : id_(Tracer::Get().Begin(std::move(name), request)) {}

ScopedSpan::~ScopedSpan() { Tracer::Get().End(id_); }

DbCounters SumTableStats(const moira::Database& db) {
  DbCounters sum;
  for (const std::string& name : db.TableNames()) {
    const moira::TableStats& stats = db.GetTable(name)->stats();
    sum.rows_examined += static_cast<uint64_t>(stats.rows_examined);
    sum.rows_emitted += static_cast<uint64_t>(stats.rows_emitted);
    sum.full_scans += static_cast<uint64_t>(stats.full_scans);
  }
  return sum;
}

namespace {

// The span name for one request, from its decoded header.
std::string RequestSpanName(const std::optional<moira::MrRequest>& request, bool* is_read) {
  *is_read = false;
  if (!request.has_value()) {
    return "server.other";
  }
  switch (request->major) {
    case moira::MajorRequest::kAuthenticate:
      return "server.auth";
    case moira::MajorRequest::kReplPush:
      return "repl.push";
    case moira::MajorRequest::kQuery:
    case moira::MajorRequest::kQueryTagged: {
      size_t name_at = request->major == moira::MajorRequest::kQuery ? 0 : 1;
      if (request->args.size() <= name_at) {
        return "server.other";
      }
      const moira::QueryDef* def =
          moira::QueryRegistry::Instance().Find(request->args[name_at]);
      if (def == nullptr) {
        return "server.other";
      }
      *is_read = def->qclass == moira::QueryClass::kRetrieve;
      return *is_read ? "server.read" : "server.write";
    }
    default:
      return "server.other";
  }
}

DbCounters Delta(const DbCounters& after, const DbCounters& before) {
  return DbCounters{after.rows_examined - before.rows_examined,
                    after.rows_emitted - before.rows_emitted,
                    after.full_scans - before.full_scans};
}

void Accumulate(DbCounters* into, const DbCounters& delta) {
  into->rows_examined += delta.rows_examined;
  into->rows_emitted += delta.rows_emitted;
  into->full_scans += delta.full_scans;
}

}  // namespace

void TracingHandler::set_principal(std::string principal) {
  std::lock_guard<std::mutex> lock(principal_mu_);
  principal_ = std::move(principal);
}

std::string TracingHandler::Handle(uint64_t conn_id, std::string_view payload,
                                   std::vector<BatchItem>* batch) {
  Tracer& tracer = Tracer::Get();
  uint64_t request = ctx_ != nullptr ? ctx_->request.load() : 0;
  std::optional<moira::MrRequest> decoded;
  {
    ScopedSpan span("protocol.decode", request);
    decoded = moira::DecodeRequest(payload);
  }
  bool is_read = false;
  std::string name = RequestSpanName(decoded, &is_read);
  DbCounters before = SumTableStats(*db_);
  std::string reply;
  uint64_t id = tracer.Begin(name, request);
  if (batch != nullptr) {
    inner_->OnMessageBatch(batch);
  } else {
    reply = inner_->OnMessage(conn_id, payload);
  }
  tracer.End(id);
  const std::string& out = batch != nullptr ? (*batch)[0].reply : reply;
  DbCounters delta = Delta(SumTableStats(*db_), before);

  // Re-encode the reply frames: decode untimed, then time the encoder.
  std::vector<moira::MrReply> frames;
  moira::FrameReader reader;
  reader.Feed(out);
  while (std::optional<std::string> frame = reader.Next()) {
    if (std::optional<moira::MrReply> parsed = moira::DecodeReply(*frame)) {
      frames.push_back(std::move(*parsed));
    }
  }
  {
    ScopedSpan span("protocol.encode", request);
    for (const moira::MrReply& frame : frames) {
      encoded_bytes_ += moira::EncodeReply(frame).size();
    }
  }

  ClassCounters* counters = nullptr;
  if (name == "server.read") {
    counters = &reads_;
  } else if (name == "server.write") {
    counters = &writes_;
  }
  if (counters != nullptr) {
    ++counters->requests;
    Accumulate(&counters->db, delta);
    counters->reply_bytes += out.size();
  }
  if (is_read && decoded.has_value() && !decoded->args.empty()) {
    std::lock_guard<std::mutex> lock(principal_mu_);
    deferred_.push_back(Deferred{
        principal_, decoded->args[0],
        std::vector<std::string>(decoded->args.begin() + 1, decoded->args.end())});
  }
  return reply;
}

std::string TracingHandler::OnMessage(uint64_t conn_id, std::string_view payload) {
  if (!Tracer::Get().enabled()) {
    return inner_->OnMessage(conn_id, payload);
  }
  ++frames_;
  return Handle(conn_id, payload, nullptr);
}

void TracingHandler::OnMessageBatch(std::vector<BatchItem>* batch) {
  if (!Tracer::Get().enabled()) {
    inner_->OnMessageBatch(batch);
    return;
  }
  frames_ += batch->size();
  if (batch->size() == 1) {
    Handle((*batch)[0].conn_id, (*batch)[0].payload, batch);
    return;
  }
  ScopedSpan span("server.batch", ctx_ != nullptr ? ctx_->request.load() : 0);
  inner_->OnMessageBatch(batch);
}

void TracingHandler::RunDeferred(moira::MoiraContext& mc) {
  const moira::QueryRegistry& registry = moira::QueryRegistry::Instance();
  while (!deferred_.empty()) {
    Deferred read = std::move(deferred_.front());
    deferred_.pop_front();
    ScopedSpan span("core.exec." + read.query);
    registry.Execute(mc, read.principal, "perfbench-trace", read.query, read.args,
                     [](moira::Tuple) {});
  }
}

int32_t TracingChannel::Send(std::string_view framed) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return inner_->Send(framed);
  }
  if (ctx_ != nullptr) {
    ctx_->request.store(tracer.CurrentRequest());
  }
  int32_t code;
  {
    ScopedSpan span("net.send");
    code = inner_->Send(framed);
  }
  if (ctx_ != nullptr) {
    ctx_->send_done_ns.store(NowNs());
  }
  return code;
}

int32_t TracingChannel::Recv(std::string* payload) {
  ScopedSpan span("net.recv");
  return inner_->Recv(payload);
}

}  // namespace perfbench
