// term_start: the registration storm against a 3-node quorum cluster.
//
// One thread, no sockets.  The cluster is wired the way src/repl/cluster.cc
// wires ReplCluster (in-process loopback channels, node 0 promoted at epoch
// 1, all-to-all peers), except that every endpoint is a TracingHandler, and
// every node is loaded with the same 10,000-user site.  Write quorum is 2 of
// 3.  Each student runs userreg against the primary's registration server,
// then a first session on the primary, then the admin writes the quorum gate
// must ack: a mailing-list add and report_quota_usage lines drained from a
// fileserver's usage churn, sent through the client library.
#include <algorithm>

#include "perfbench/site.h"
#include "src/comerr/moira_errors.h"
#include "src/common/random.h"
#include "src/dcm/generators.h"
#include "src/krb/crypt.h"
#include "src/nfsd/nfs_server.h"
#include "src/reg/regserver.h"
#include "src/repl/replica.h"
#include "src/update/sim_host.h"

namespace perfbench {
namespace {

using moira::MrClient;

constexpr moira::UnixTime kStartTime = 568000000;
// Calibrated so the measured phase takes about --seconds on a 4-core box;
// capped by the students on the registrar's tape.
constexpr double kStudentsPerSecond = 150;
constexpr int kQuotaLinesPerStudent = 3;
// Every this many students the last quota line is delivered twice (the
// at-least-once transport); the duplicate must be absorbed as MR_EXISTS.
constexpr int kDuplicateEvery = 8;

struct Cluster {
  Cluster();
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  moira::ReplicaServer& primary() { return *nodes[0]; }

  moira::SimulatedClock clock{kStartTime};
  std::unique_ptr<moira::KerberosRealm> realm;
  std::vector<std::unique_ptr<moira::ReplicaServer>> nodes;
  std::vector<std::unique_ptr<TracingHandler>> endpoints;
  std::unique_ptr<moira::SiteBuilder> builder;  // the primary's
  std::unique_ptr<moira::RegistrationServer> reg;
  std::unique_ptr<moira::UserregClient> userreg;
  moira::HostDirectory directory;
  std::vector<std::unique_ptr<moira::SimHost>> hosts;
  std::map<std::string, std::unique_ptr<moira::NfsServerSim>> nfs;  // by machine
  std::unique_ptr<MrClient> admin;
};

MrClient::Connector LoopbackTo(moira::MessageHandler* handler, bool traced) {
  return [handler, traced]() -> std::unique_ptr<moira::ClientChannel> {
    auto channel = std::make_unique<moira::LoopbackChannel>(handler);
    if (!traced) {
      return channel;
    }
    return std::make_unique<TracingChannel>(std::move(channel), nullptr);
  };
}

Cluster::Cluster() {
  realm = std::make_unique<moira::KerberosRealm>(&clock);
  realm->AddPrincipal("root", "rootpw");
  const std::vector<std::string> names = {"n0", "n1", "n2"};
  for (const std::string& name : names) {
    moira::ReplicaOptions options;
    options.name = name;
    options.start_time = kStartTime;
    options.server_options.write_quorum = 2;
    options.server_options.cluster_size = static_cast<int>(names.size());
    nodes.push_back(std::make_unique<moira::ReplicaServer>(realm.get(), options));
    endpoints.push_back(
        std::make_unique<TracingHandler>(nodes.back().get(), &nodes.back()->db()));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (i != j) {
        nodes[i]->AddPeer(names[j], LoopbackTo(endpoints[j].get(), false));
      }
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->SetPrimaryLink(LoopbackTo(endpoints[0].get(), false), "root", "rootpw");
  }
  nodes[0]->PromoteWithEpoch(1);

  // The same site on every node, so the replicas start from the primary's
  // state.
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto site_builder = std::make_unique<moira::SiteBuilder>(&nodes[i]->context(), realm.get());
    site_builder->Build(moira::SiteSpec{});
    if (i == 0) {
      builder = std::move(site_builder);
    }
  }
  reg = std::make_unique<moira::RegistrationServer>(&primary().context(), realm.get());
  userreg = std::make_unique<moira::UserregClient>(reg.get(), realm.get());

  // Fileservers holding the generated quota files, whose usage churn is
  // reported back.
  hosts = moira::CreateSimHosts(primary().context(), realm.get(), &directory);
  moira::GeneratorResult generated;
  moira::GenerateNfs(primary().context(), &generated);
  for (const std::string& machine : builder->nfs_server_names()) {
    moira::SimHost* host = directory.Find(machine);
    for (const auto& [name, contents] : generated.ForHost(machine).members()) {
      host->WriteFileDirect("/site/moira/" + name, contents);
    }
    auto server = std::make_unique<moira::NfsServerSim>(host);
    server->ApplyMoiraFiles("/site/moira");
    nfs[machine] = std::move(server);
  }

  admin = std::make_unique<MrClient>(LoopbackTo(endpoints[0].get(), true));
  admin->SetKerberosIdentity(realm.get(), builder->admin_login(),
                             "pw:" + builder->admin_login());
  if (admin->Connect() != moira::MR_SUCCESS || admin->Auth("perfbench") != moira::MR_SUCCESS) {
    std::fprintf(stderr, "term_start: the admin cannot authenticate to the primary\n");
    std::exit(1);
  }
}

Cluster::~Cluster() {
  admin.reset();
  // Loopback channels hold raw handler pointers into sibling nodes: close
  // them all while every node is alive (as ReplCluster's destructor does).
  for (const auto& node : nodes) {
    node->DisconnectAll();
  }
}

uint64_t ReplicaApplyFailures(Cluster& c) {
  uint64_t failures = 0;
  for (size_t i = 1; i < c.nodes.size(); ++i) {
    failures += c.nodes[i]->stats().apply_failures;
  }
  return failures;
}

class Storm {
 public:
  Storm(Cluster* c, SiteModel* site, Report* report, uint64_t seed)
      : c_(c), site_(site), report_(report), rng_(seed) {
    for (const std::string& name : site->list_names()) {
      if (name.starts_with("ml-")) {
        mail_lists_.push_back(name);
      }
    }
    tape_ = site->unregistered();
    // Students arrive in a seeded order.
    for (size_t i = tape_.size(); i > 1; --i) {
      std::swap(tape_[i - 1], tape_[rng_.Below(i)]);
    }
  }

  size_t tape_size() const { return tape_.size(); }

  // Registers `students` students; latencies are kept only when `measure`.
  // With `interleave`, every other student is traced.
  void Run(int students, bool measure, bool interleave = false) {
    measure_ = measure;
    for (int i = 0; i < students && next_ < tape_.size(); ++i) {
      if (interleave) {
        Tracer::Get().set_enabled(i % 2 == 1);
      }
      Student(tape_[next_++]);
    }
    Tracer::Get().set_enabled(false);
  }

  // Counters over the measured phase.
  uint64_t registrations = 0;
  uint64_t journal_entries = 0;
  uint64_t quota_reports = 0;
  uint64_t quota_lines = 0;
  uint64_t duplicates_absorbed = 0;

 private:
  void Student(int index) {
    const UserInfo* tape = site_->UserByIndex(index);
    const std::string login = "u" + std::to_string(index);
    const std::string password = "pw:" + login;
    const std::string id_number = std::to_string(910000000 + index);

    // 1. userreg: verify -> grab login -> set password.
    uint64_t seq_before = c_->primary().server().journal().last_seq();
    uint64_t start = NowNs();
    int32_t code = Tracer::Get().enabled()
                       ? TracedRegister(*tape, id_number, login, password)
                       : c_->userreg->Register(tape->first, tape->middle, tape->last,
                                               id_number, login, password);
    uint64_t elapsed = NowNs() - start;
    uint64_t journalled = c_->primary().server().journal().last_seq() - seq_before;
    ++registrations;
    journal_entries += journalled;
    if (measure_) {
      report_->Samples("register").push_back(static_cast<double>(elapsed) / 1e3);
    }
    if (code != moira::MR_SUCCESS) {
      report_->ledger.Record(Check{Verdict::kRefused, "register.refused"});
      return;
    }
    site_->Register(index, login);
    // A registration is a change every replica and every restart must see;
    // one that never reaches the journal is lost to both.
    report_->ledger.Record(journalled > 0 ? Check{}
                                          : Check{Verdict::kRefused, "register.not_journalled"});

    // 2. The student's first session on the primary.
    MrClient session(LoopbackTo(c_->endpoints[0].get(), true));
    session.SetKerberosIdentity(c_->realm.get(), login, password);
    c_->endpoints[0]->set_principal(login);
    code = session.Connect();
    if (code == moira::MR_SUCCESS) {
      ScopedSpan span("krb.auth", Tracer::Get().enabled() ? Tracer::Get().NewRequest() : 0);
      code = session.Auth("perfbench");
    }
    report_->ledger.Record(code == moira::MR_SUCCESS
                               ? Check{}
                               : Check{Verdict::kRefused, "session.auth_refused"});
    if (code == moira::MR_SUCCESS) {
      Read(session, login, "get_user_by_login", {login});
      Read(session, login, "get_pobox", {login});
      Read(session, login, "get_filesys_by_label", {login});
    }
    session.Disconnect();

    // 3. Admin writes through the quorum gate.
    c_->endpoints[0]->set_principal(site_->admin());
    Write("add_member_to_list", {mail_lists_[rng_.Below(mail_lists_.size())], "USER", login});
    ReportQuota();
  }

  int32_t TracedRegister(const UserInfo& tape, const std::string& id_number,
                         const std::string& login, const std::string& password) {
    // The userreg conversation, phase by phase through the typed calls.
    std::string hash = moira::HashMitId(id_number, tape.first, tape.last);
    moira::RegReply reply;
    {
      ScopedSpan span("reg.verify", Tracer::Get().NewRequest());
      reply = c_->reg->VerifyUser(tape.first, tape.last,
                                  moira::BuildRegAuthenticator(id_number, hash, ""));
    }
    if (reply.code != moira::MR_SUCCESS) {
      return reply.code;
    }
    moira::Ticket probe;
    if (c_->realm->GetInitialTickets(login, "", moira::kMoiraServiceName, &probe) !=
        moira::MR_KRB_NO_PRINC) {
      return moira::MR_REG_LOGIN_TAKEN;
    }
    {
      ScopedSpan span("reg.grab", Tracer::Get().NewRequest());
      reply = c_->reg->GrabLogin(tape.first, tape.last,
                                 moira::BuildRegAuthenticator(id_number, hash, login));
    }
    if (reply.code != moira::MR_SUCCESS) {
      return reply.code;
    }
    ScopedSpan span("reg.setpw", Tracer::Get().NewRequest());
    return c_->reg
        ->SetPassword(tape.first, tape.last, moira::BuildRegAuthenticator(id_number, hash, password))
        .code;
  }

  void Read(MrClient& session, const std::string& self, const std::string& query,
            const std::vector<std::string>& args) {
    uint64_t ns = 0;
    Answer answer = TimedQuery(session, query, args, &ns);
    if (measure_) {
      report_->Samples("read").push_back(static_cast<double>(ns) / 1e3);
      report_->AddDetail(query, static_cast<double>(ns) / 1e3);
    }
    report_->ledger.Record(CheckRead(*site_, self, query, args, answer));
    c_->endpoints[0]->RunDeferred(c_->primary().context());
  }

  // One acked-by-quorum admin write.  `expected` is the code the rules imply
  // (a redelivered quota line must be absorbed as MR_EXISTS).
  void Write(const std::string& query, const std::vector<std::string>& args,
             int32_t expected = moira::MR_SUCCESS) {
    uint64_t failures_before = ReplicaApplyFailures(*c_);
    uint64_t ns = 0;
    Answer answer = TimedQuery(*c_->admin, query, args, &ns);
    if (measure_) {
      report_->Samples("write").push_back(static_cast<double>(ns) / 1e3);
      report_->AddDetail(query, static_cast<double>(ns) / 1e3);
    }
    Check check;
    if (query == "report_quota_usage") {
      if (answer.code != expected) {
        check = Check{answer.code == moira::MR_SUCCESS ? Verdict::kWrong : Verdict::kRefused,
                      "report_quota_usage.unexpected_code"};
      } else if (expected == moira::MR_EXISTS) {
        ++duplicates_absorbed;
      }
    } else {
      check = CheckWrite(site_, site_->admin(), query, args, answer);
    }
    if (check.verdict == Verdict::kOk && answer.code == moira::MR_SUCCESS &&
        ReplicaApplyFailures(*c_) != failures_before) {
      // Acknowledged as held by a quorum, but a replica could not apply it.
      check = Check{Verdict::kRefused, query + ".replica_apply_failed"};
    }
    report_->ledger.Record(check);
  }

  void ReportQuota() {
    const Partition& partition = site_->partitions()[rng_.Below(site_->partitions().size())];
    moira::NfsServerSim& server = *c_->nfs.at(partition.first);
    const std::map<std::string, int64_t>& holders = site_->Quotas(partition);
    if (holders.empty()) {
      return;
    }
    for (int i = 0; i < kQuotaLinesPerStudent; ++i) {
      auto it = std::next(holders.begin(), static_cast<long>(rng_.Below(holders.size())));
      int64_t uid = site_->User(it->first)->uid;
      server.SetUsage(uid, server.UsageFor(uid) + rng_.Between(1, 40));
    }
    std::vector<moira::UsageReportLine> lines = server.DrainUsageReports();
    ++quota_reports;
    quota_lines += lines.size();
    for (const moira::UsageReportLine& line : lines) {
      Write("report_quota_usage", LineArgs(partition.first, line));
    }
    if (!lines.empty() && registrations % kDuplicateEvery == 0) {
      Write("report_quota_usage", LineArgs(partition.first, lines.back()), moira::MR_EXISTS);
    }
  }

  static std::vector<std::string> LineArgs(const std::string& machine,
                                           const moira::UsageReportLine& line) {
    return {machine, line.partition, std::to_string(line.uid), std::to_string(line.delta),
            std::to_string(line.seq)};
  }

  Cluster* c_;
  SiteModel* site_;
  Report* report_;
  moira::SplitMix64 rng_;
  std::vector<std::string> mail_lists_;
  std::vector<int> tape_;
  size_t next_ = 0;
  bool measure_ = false;
};

// What the traced run reports, summed over the run's storms: counters cover
// every measured student (traced and untraced alike), span figures the
// traced ones.
struct Totals {
  uint64_t registrations = 0;
  uint64_t journal_entries = 0;
  uint64_t quota_reports = 0;
  uint64_t quota_lines = 0;
  uint64_t duplicates_absorbed = 0;
  uint64_t quorum_writes = 0;
  uint64_t push_rounds = 0;
  uint64_t quorum_timeouts = 0;
  uint64_t apply_failures = 0;
  TracingHandler::ClassCounters reads;
  TracingHandler::ClassCounters writes;
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

void TermStartLayers(Report* report, const std::vector<Span>& spans, const Totals& t) {
  std::map<std::string, SpanSummary> by_name = AddCommonLayers(report, spans, t.reads, t.writes);
  for (const char* name : {"reg.verify", "reg.grab", "reg.setpw", "repl.push"}) {
    AddSpanLayer(report, std::string(name) + "_us", "us", SelfOf(by_name, name));
  }
  AddCountLayer(report, "reg.journal_entries_per_registration",
                Ratio(t.journal_entries, t.registrations), "entries", t.registrations);
  AddCountLayer(report, "repl.pushes_per_write", Ratio(t.push_rounds, t.quorum_writes),
                "pushes", t.quorum_writes);
  AddCountLayer(report, "repl.quorum_timeouts", static_cast<double>(t.quorum_timeouts),
                "count", t.quorum_writes);
  AddCountLayer(report, "repl.apply_failures", static_cast<double>(t.apply_failures), "count",
                t.quorum_writes);
  AddCountLayer(report, "quota.lines_per_report", Ratio(t.quota_lines, t.quota_reports),
                "lines", t.quota_reports);
  AddCountLayer(report, "quota.duplicates_absorbed",
                static_cast<double>(t.duplicates_absorbed), "count", t.quota_reports);
}

void Add(TracingHandler::ClassCounters* into, const TracingHandler::ClassCounters& from) {
  into->requests += from.requests;
  into->reply_bytes += from.reply_bytes;
  into->db.rows_examined += from.db.rows_examined;
  into->db.rows_emitted += from.db.rows_emitted;
  into->db.full_scans += from.db.full_scans;
}

}  // namespace

Report RunTermStart(const Options& options) {
  Report report;
  report.workload = "term_start";
  report.options = options;

  // The registrar's tape holds about 1,930 students; a run that asks for
  // more registers them on fresh clusters, one storm after another, so the
  // run's work keeps growing with --seconds.  Each storm's cluster set-up is
  // one setup_s sample.
  const int target = static_cast<int>(kStudentsPerSecond * options.seconds);
  Totals totals;
  int registered = 0;
  int storms = 0;
  size_t tape_size = 0;
  while (registered < target) {
    uint64_t start = NowNs();
    auto cluster = std::make_unique<Cluster>();
    report.setup_s.push_back(Seconds(start, NowNs()));
    SiteModel site =
        SiteModel::Read(cluster->primary().context(), cluster->builder->admin_login());
    Storm storm(cluster.get(), &site, &report, options.seed + (uint64_t{1} << 32) * storms);
    tape_size = storm.tape_size();
    const int students = std::min(target - registered, static_cast<int>(tape_size));
    const int warmup = static_cast<int>(students * kWarmupShare);
    storm.Run(warmup, /*measure=*/false);
    moira::MoiraServer::QuorumStats before = cluster->primary().server().quorum_stats();
    uint64_t apply_before = ReplicaApplyFailures(*cluster);
    storm.registrations = storm.journal_entries = 0;
    storm.quota_reports = storm.quota_lines = storm.duplicates_absorbed = 0;
    storm.Run(students - warmup, /*measure=*/true, /*interleave=*/options.trace);

    const moira::MoiraServer::QuorumStats& after = cluster->primary().server().quorum_stats();
    totals.registrations += storm.registrations;
    totals.journal_entries += storm.journal_entries;
    totals.quota_reports += storm.quota_reports;
    totals.quota_lines += storm.quota_lines;
    totals.duplicates_absorbed += storm.duplicates_absorbed;
    totals.quorum_writes += after.quorum_writes - before.quorum_writes;
    totals.push_rounds += after.push_rounds - before.push_rounds;
    totals.quorum_timeouts += after.quorum_timeouts - before.quorum_timeouts;
    totals.apply_failures += ReplicaApplyFailures(*cluster) - apply_before;
    // The handler's class counters only count traced requests.
    Add(&totals.reads, cluster->endpoints[0]->reads());
    Add(&totals.writes, cluster->endpoints[0]->writes());
    registered += students;
    ++storms;
  }
  if (options.trace) {
    TermStartLayers(&report, Tracer::Get().Collect(), totals);
  }

  report.meta["students"] = std::to_string(registered);
  report.meta["storms"] = std::to_string(storms);
  report.meta["registrar_tape"] = std::to_string(tape_size);
  report.meta["warmup_share"] = "0.1 of each storm";
  report.meta["cluster"] = "3 nodes, write quorum 2, loopback channels";
  report.meta["threads"] = "1";
  return report;
}

}  // namespace perfbench
