// desk: interactive clients over loopback TCP to one moirad-style server.
//
// Two threads: this one is the client, one closed-loop connection at a time;
// the other pumps TcpServer::Poll.  The server is deployed as
// examples/moirad.cpp deploys it: default ServerOptions and the journal in
// directory mode on a fresh data directory, no replicas, no read pool.
#include <atomic>
#include <filesystem>
#include <thread>

#include "perfbench/site.h"
#include "src/backup/checkpoint.h"
#include "src/comerr/moira_errors.h"
#include "src/common/random.h"
#include "src/net/tcp.h"
#include "src/server/server.h"

namespace perfbench {
namespace {

using moira::MrClient;

// Calibrated so a 10-second run does about ten seconds of sessions on a
// 4-core box; the work is fixed by --seconds, never stopped by a timer.
constexpr double kSessionsPerSecond = 260;
constexpr int kRequestsPerSession = 10;
constexpr uint64_t kAdminEvery = 10;  // one session in ten is opsmgr's
// Reads: kinds below kSelfServiceReads are any session's; the rest are the
// administrator's errands.
enum ReadKind : uint64_t { kSelfServiceReads = 7, kUserByName = 7, kClusterMap, kPartitionQuotas };
// Writes: chsh, chfn, mailmaint (join then leave a public list), and the
// administrator's quota change.
enum WriteKind : uint64_t { kChsh, kChfn, kMailmaint, kAdminQuota };
constexpr const char* kShells[] = {"/bin/csh", "/bin/sh", "/bin/athena/tcsh", "/bin/bash"};

struct Deployment {
  moira::SystemClock clock;
  std::unique_ptr<Site> site;
  std::unique_ptr<moira::MoiraServer> server;
  std::unique_ptr<TracingHandler> handler;
  std::unique_ptr<moira::TcpServer> tcp;
  RequestContext ctx;
};

std::unique_ptr<Deployment> Deploy(const std::string& data_dir) {
  auto d = std::make_unique<Deployment>();
  moira::SiteSpec spec;
  spec.register_kerberos_principals = true;
  d->site = std::make_unique<Site>(spec, &d->clock);
  moira::ServerOptions options;
  options.data_dir = data_dir;
  d->server = std::make_unique<moira::MoiraServer>(d->site->mc.get(), d->site->realm.get(),
                                                   options);
  if (!moira::RecoverServerState(d->site->mc.get(), nullptr, &d->server->journal(), data_dir)
           .has_value()) {
    std::fprintf(stderr, "desk: cannot attach the journal at %s\n", data_dir.c_str());
    std::exit(1);
  }
  d->server->InvalidateAccessCaches();
  d->server->journal().set_rotate_threshold(512);
  d->handler = std::make_unique<TracingHandler>(d->server.get(), d->site->db.get(), &d->ctx);
  d->tcp = std::make_unique<moira::TcpServer>(d->handler.get());
  if (d->tcp->Listen(0) != moira::MR_SUCCESS) {
    std::fprintf(stderr, "desk: cannot listen on loopback\n");
    std::exit(1);
  }
  return d;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

// The session and request mix.  Everything random comes from `rng`, seeded
// by --seed.
class DeskClient {
 public:
  DeskClient(Deployment* d, SiteModel* site, Report* report, uint64_t seed)
      : d_(d), site_(site), report_(report), rng_(seed) {
    for (const std::string& name : site->list_names()) {
      if (name.starts_with("ml-")) {
        mail_lists_.push_back(name);
      }
    }
  }

  // Runs `sessions` sessions; latencies are kept only when `measure`.  With
  // `interleave`, every other block of kAdminEvery sessions (one of them the
  // administrator's) is traced.
  void Run(int sessions, bool measure, bool interleave = false) {
    measure_ = measure;
    for (int i = 0; i < sessions; ++i) {
      if (interleave) {
        Tracer::Get().set_enabled(i / kAdminEvery % 2 == 1);
      }
      Session();
    }
    Tracer::Get().set_enabled(false);
  }

  // Requests per second of client busy time (connects included), for the
  // untraced (0) or traced (1) sessions.
  double OpsPerSecond(bool traced) const {
    return busy_ns_[traced] == 0 ? 0
                                 : static_cast<double>(requests_[traced]) /
                                       (static_cast<double>(busy_ns_[traced]) / 1e9);
  }
  uint64_t requests() const { return requests_[0] + requests_[1]; }
  uint64_t acked_writes() const { return acked_writes_; }
  void ResetCounts() {
    requests_[0] = requests_[1] = 0;
    busy_ns_[0] = busy_ns_[1] = 0;
  }

 private:
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_.Below(from.size())];
  }

  void Session() {
    // Every tenth session is the administrator's, so each run has the same
    // share of the slow admin-only reads and the read p99 never straddles the
    // boundary between them and the rest.
    bool admin = sessions_++ % kAdminEvery == 0;
    const std::string principal =
        admin ? site_->admin() : Pick(site_->active_logins());
    d_->handler->set_principal(principal);
    uint16_t port = d_->tcp->port();
    RequestContext* ctx = &d_->ctx;
    MrClient client([port, ctx]() -> std::unique_ptr<moira::ClientChannel> {
      auto channel = std::make_unique<moira::TcpChannel>();
      if (channel->Connect(port) != moira::MR_SUCCESS) {
        return nullptr;
      }
      return std::make_unique<TracingChannel>(std::move(channel), ctx);
    });
    client.SetKerberosIdentity(d_->site->realm.get(), principal, "pw:" + principal);

    Tracer& tracer = Tracer::Get();
    uint64_t start = NowNs();
    int32_t code;
    {
      ScopedSpan span("client.connect", tracer.enabled() ? tracer.NewRequest() : 0);
      code = client.Connect();
    }
    if (code == moira::MR_SUCCESS) {
      ScopedSpan span("krb.auth", tracer.enabled() ? tracer.NewRequest() : 0);
      code = client.Auth("perfbench");
    }
    uint64_t connected = NowNs();
    busy_ns_[tracer.enabled()] += connected - start;
    report_->ledger.Record(code == moira::MR_SUCCESS
                               ? Check{}
                               : Check{Verdict::kRefused, "session.connect_refused"});
    if (code != moira::MR_SUCCESS) {
      client.Disconnect();
      return;
    }
    if (measure_) {
      report_->Samples("connect").push_back(Micros(start, connected));
    }
    int slot = 0;
    if (admin) {
      // The administrator's own errands: a wildcard user search, a cluster
      // map, a partition's quotas, and a quota change.
      for (uint64_t kind : {kUserByName, kClusterMap, kPartitionQuotas}) {
        Read(client, principal, admin, kind);
      }
      slot = 3 + Write(client, principal, kAdminQuota);
    }
    while (slot < kRequestsPerSession) {
      if (rng_.Below(10) == 0) {
        // chsh 2/5, chfn 2/5, mailmaint 1/5 (two requests): a third of the
        // writes each, so write_p50_us sits inside the chsh mode rather than
        // on the boundary between the cheap list edits and the user-row
        // updates.
        uint64_t draw = rng_.Below(5);
        uint64_t kind = draw < 2 ? kChsh : draw < 4 ? kChfn : kMailmaint;
        slot += Write(client, principal,
                      kind == kMailmaint && kRequestsPerSession - slot < 2 ? kChsh : kind);
      } else {
        Read(client, principal, admin, rng_.Below(kSelfServiceReads));
        ++slot;
      }
    }
    uint64_t before = NowNs();
    client.Disconnect();
    busy_ns_[tracer.enabled()] += NowNs() - before;
  }

  void Read(MrClient& client, const std::string& self, bool admin, uint64_t kind) {
    std::string query;
    std::vector<std::string> args;
    const std::string& anyone = Pick(site_->active_logins());
    const std::string& subject = admin ? anyone : self;
    switch (kind) {
      case 0:
        query = "get_user_by_login", args = {subject};
        break;
      case 1:
        query = "get_finger_by_login", args = {anyone};
        break;
      case 2:
        query = "get_pobox", args = {subject};
        break;
      case 3:
        // A home filesystem's label is its owner's login.
        query = "get_filesys_by_label", args = {subject};
        break;
      case 4:
        query = "get_lists_of_member", args = {"USER", subject};
        break;
      case 5:
        query = "get_list_info", args = {Pick(mail_lists_)};
        break;
      case 6:
        query = "get_members_of_list", args = {Pick(mail_lists_)};
        break;
      case kUserByName: {
        const UserInfo* who = site_->User(anyone);
        query = "get_user_by_name", args = {who->first, who->last.substr(0, 1) + "*"};
        break;
      }
      case kClusterMap:
        query = "get_machine_to_cluster_map", args = {"*", Pick(site_->clusters())};
        break;
      default: {
        const Partition& partition =
            site_->partitions()[rng_.Below(site_->partitions().size())];
        query = "get_nfs_quotas_by_partition", args = {partition.first, partition.second};
        break;
      }
    }
    uint64_t ns = 0;
    Answer answer = TimedQuery(client, query, args, &ns);
    Account(ns, "read");
    if (measure_) {
      report_->AddDetail(query, static_cast<double>(ns) / 1e3);
    }
    report_->ledger.Record(CheckRead(*site_, self, query, args, answer));
  }

  // One self-service (or admin) write; returns the request slots it used.
  int Write(MrClient& client, const std::string& self, uint64_t kind) {
    switch (kind) {
      case kChsh:
        Mutate(client, self, "update_user_shell",
               {self, kShells[rng_.Below(std::size(kShells))]});
        return 1;
      case kChfn: {
        std::string fullname = "Desk User " + std::to_string(rng_.Below(1000000));
        Mutate(client, self, "update_finger_by_login",
               {self, fullname, "", "", "", "", "", "", ""});
        return 1;
      }
      case kMailmaint: {
        // mailmaint: join a public list one is not on, then leave it again.
        const UserInfo* me = site_->User(self);
        std::string list;
        for (int tries = 0; tries < 8 && list.empty(); ++tries) {
          const std::string& candidate = Pick(site_->public_lists());
          if (!site_->List(candidate)->users.contains(me->users_id)) {
            list = candidate;
          }
        }
        if (list.empty()) {
          list = Pick(site_->public_lists());
        }
        Mutate(client, self, "add_member_to_list", {list, "USER", self});
        Mutate(client, self, "delete_member_from_list", {list, "USER", self});
        return 2;
      }
      default: {
        const std::string& login = Pick(site_->active_logins());
        Mutate(client, self, "update_nfs_quota",
               {login, login, std::to_string(200 + rng_.Below(600))});
        return 1;
      }
    }
  }

  void Mutate(MrClient& client, const std::string& self, const std::string& query,
              const std::vector<std::string>& args) {
    uint64_t ns = 0;
    Answer answer = TimedQuery(client, query, args, &ns);
    Account(ns, "write");
    if (measure_) {
      report_->AddDetail(query, static_cast<double>(ns) / 1e3);
    }
    if (answer.code == moira::MR_SUCCESS) {
      ++acked_writes_;
    }
    report_->ledger.Record(CheckWrite(site_, self, query, args, answer));
  }

  void Account(uint64_t ns, const char* series) {
    bool traced = Tracer::Get().enabled();
    busy_ns_[traced] += ns;
    ++requests_[traced];
    if (measure_) {
      report_->Samples(series).push_back(static_cast<double>(ns) / 1e3);
    }
  }

  Deployment* d_;
  SiteModel* site_;
  Report* report_;
  moira::SplitMix64 rng_;
  std::vector<std::string> mail_lists_;
  bool measure_ = false;
  uint64_t sessions_ = 0;
  uint64_t requests_[2] = {0, 0};  // untraced, traced
  uint64_t busy_ns_[2] = {0, 0};
  uint64_t acked_writes_ = 0;
};

// Per-layer figures of the traced phase.
void DeskLayers(Report* report, const std::vector<Span>& spans,
                const std::vector<uint64_t>& frames_per_round, Deployment& d,
                const moira::MoiraServer::Stats& stats_before,
                const moira::MoiraServer::AccessPathStats& paths_before, uint64_t journal_bytes,
                uint64_t acked_writes) {
  std::map<std::string, SpanSummary> by_name =
      AddCommonLayers(report, spans, d.handler->reads(), d.handler->writes());
  AddSpanLayer(report, "net.round_self_us", "us", SelfOf(by_name, "net.poll_round"));
  if (!frames_per_round.empty()) {
    double frames = 0;
    for (uint64_t f : frames_per_round) {
      frames += static_cast<double>(f);
    }
    AddCountLayer(report, "net.frames_per_round",
                  frames / static_cast<double>(frames_per_round.size()), "frames",
                  frames_per_round.size());
  }
  // net.wait: per request, the client's time in Recv minus the server's span.
  std::map<uint64_t, int64_t> wait;
  for (const Span& span : spans) {
    int64_t duration = static_cast<int64_t>(span.end_ns - span.start_ns);
    if (span.request == 0) {
      continue;
    }
    if (span.name == "net.recv") {
      wait[span.request] += duration;
    } else if (span.name.starts_with("server.")) {
      wait[span.request] -= duration;
    }
  }
  std::vector<uint64_t> wait_ns;
  for (const auto& [request, ns] : wait) {
    wait_ns.push_back(static_cast<uint64_t>(std::max<int64_t>(ns, 0)));
  }
  AddSpanLayer(report, "net.wait_us", "us", wait_ns);
  AddSpanLayer(report, "client.connect_us", "us", SelfOf(by_name, "client.connect"));

  const moira::MoiraServer::Stats& stats = d.server->stats();
  uint64_t checks = stats.access_checks - stats_before.access_checks;
  uint64_t hits = stats.access_cache_hits - stats_before.access_cache_hits;
  AddCountLayer(report, "server.access_cache_hit_ratio",
                checks == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(checks),
                "ratio", checks);
  AddCountLayer(report, "server.journal_bytes_per_write",
                acked_writes == 0 ? 0
                                  : static_cast<double>(journal_bytes) /
                                        static_cast<double>(acked_writes),
                "bytes", acked_writes);
  moira::MoiraServer::AccessPathStats paths = d.server->access_path_stats();
  uint64_t closure_hits = paths.closure_cache_hits - paths_before.closure_cache_hits;
  uint64_t closure_all = closure_hits + paths.closure_cache_misses -
                         paths_before.closure_cache_misses;
  AddCountLayer(report, "core.closure_hit_ratio",
                closure_all == 0 ? 0
                                 : static_cast<double>(closure_hits) /
                                       static_cast<double>(closure_all),
                "ratio", closure_all);
}

}  // namespace

Report RunDesk(const Options& options) {
  Report report;
  report.workload = "desk";
  report.options = options;

  const std::string data_dir = options.scratch_dir + "/desk-data";
  uint64_t setup_start = NowNs();
  std::unique_ptr<Deployment> d = Deploy(data_dir);
  report.setup_s.push_back(Seconds(setup_start, NowNs()));
  SiteModel site = SiteModel::Read(*d->site->mc, d->site->builder->admin_login());

  std::atomic<bool> stop{false};
  std::vector<uint64_t> frames_per_round;
  std::thread pump([&] {
    Tracer& tracer = Tracer::Get();
    while (!stop.load()) {
      uint64_t round = tracer.Begin("net.poll_round");
      d->tcp->Poll(200);
      uint64_t frames = d->handler->TakeFrames();
      if (round != 0 && frames > 0) {
        // The pump waits in poll(2) for the next request; the round starts
        // when the client finished sending it.
        tracer.ClampStart(round, d->ctx.send_done_ns.load());
        tracer.End(round);
        frames_per_round.push_back(frames);
      } else {
        tracer.Discard(round);
      }
      d->handler->RunDeferred(*d->site->mc);
    }
  });

  const int sessions = static_cast<int>(kSessionsPerSecond * options.seconds);
  const int warmup = static_cast<int>(sessions * kWarmupShare);
  const int measured = sessions - warmup;
  DeskClient client(d.get(), &site, &report, options.seed);
  client.Run(warmup, /*measure=*/false);
  client.ResetCounts();

  moira::MoiraServer::Stats stats_before = d->server->stats();
  moira::MoiraServer::AccessPathStats paths_before = d->server->access_path_stats();
  uint64_t bytes_before = DirBytes(data_dir);
  uint64_t acked_before = client.acked_writes();
  client.Run(measured, /*measure=*/true, /*interleave=*/options.trace);
  report.ops_measured = client.requests();
  report.ops_per_s = client.OpsPerSecond(options.trace);
  report.untraced_ops_per_s = client.OpsPerSecond(false);
  stop = true;
  pump.join();
  if (options.trace) {
    // The handler's class counters only count traced requests.
    DeskLayers(&report, Tracer::Get().Collect(), frames_per_round, *d, stats_before,
               paths_before, DirBytes(data_dir) - bytes_before,
               client.acked_writes() - acked_before);
  }

  report.meta["sessions"] = std::to_string(sessions);
  report.meta["warmup_sessions"] = std::to_string(warmup);
  report.meta["requests_per_session"] = std::to_string(kRequestsPerSession);
  report.meta["threads"] = "2 (client, TcpServer::Poll pump)";
  // Pinning the two threads (to distinct cores, or to one) widened the
  // spread in the tuning runs, so the scheduler places them (README.md).
  report.meta["pinned"] = "no";
  d.reset();
  std::filesystem::remove_all(data_dir);
  return report;
}

}  // namespace perfbench
