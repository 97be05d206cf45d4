// propagate: commit to consumer visibility.
//
// One thread, no sockets.  A MoiraServer's journal is attached to the DCM
// (incremental mode); the site's sim hosts carry live Hesiod, NFS and Zephyr
// consumers wired as examples/full_site.cpp wires them.  Each round commits
// ten changes (the paper's 0.1% churn at 10,000 users) through a loopback
// MrClient, advances the simulated clock six hours, runs one Dcm::RunOnce,
// and looks every change up at the consumer that serves it.  The cron wait
// is simulated, so it costs no wall-clock time and is in no figure.
#include <set>

#include "perfbench/site.h"
#include "src/comerr/moira_errors.h"
#include "src/common/random.h"
#include "src/core/schema.h"
#include "src/dcm/dcm.h"
#include "src/hesiod/hesiod.h"
#include "src/hesiod/resolver.h"
#include "src/nfsd/nfs_server.h"
#include "src/server/server.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"
#include "src/zephyrd/zephyr_server.h"

namespace perfbench {
namespace {

using moira::MrClient;

constexpr int kChangesPerRound = 10;
constexpr moira::UnixTime kCronInterval = 6 * moira::kSecondsPerHour;
// One cycle of the standard services' intervals (6, 12, 24 h) at 6 h per
// round: every run measures whole cycles so the mix of passes is identical.
constexpr int kRoundsPerCycle = 4;
// Calibrated so a run takes about --seconds of wall time, set-up included,
// on a 4-vCPU box (a round with its pass takes about 0.43 s there).
constexpr double kRoundsPerSecond = 2.3;
constexpr const char* kShells[] = {"/bin/csh", "/bin/sh", "/bin/athena/tcsh", "/bin/bash"};

// Wraps a callable in a span named `name`.
template <typename Fn>
auto Traced(std::string name, Fn fn) {
  return [name = std::move(name), fn = std::move(fn)](auto&&... args) {
    ScopedSpan span(name);
    return fn(std::forward<decltype(args)>(args)...);
  };
}

}  // namespace

// The relevant tables, scripts and delta predicates must stay identical to
// the ones in ConfigureStandardServices; only the hooks are decorated.
// perfbench_checks fails when the two configurations' passes differ.
void ConfigureTracedServices(moira::Dcm* dcm) {
  using namespace moira;
  std::string hesiod_script;
  for (const char* file :
       {"cluster.db", "filsys.db", "gid.db", "group.db", "grplist.db", "passwd.db",
        "pobox.db", "printcap.db", "service.db", "sloc.db", "uid.db"}) {
    hesiod_script += std::string("extract ") + file + " /etc/athena/hesiod/" + file + "\n";
    hesiod_script += std::string("install /etc/athena/hesiod/") + file + "\n";
  }
  hesiod_script += "exec restart_hesiod\n";
  dcm->ConfigureService(
      "HESIOD",
      DcmServiceConfig{GeneratorFn(Traced("dcm.generate.HESIOD", GenerateHesiod)),
                       {kUsersTable, kMachineTable, kClusterTable, kMcmapTable, kSvcTable,
                        kListTable, kMembersTable, kFilesysTable, kPrintcapTable,
                        kServicesTable, kServerHostsTable},
                       hesiod_script,
                       PatchBuilderFn(Traced("dcm.patch.HESIOD", BuildHesiodPatch)),
                       [](const DeltaPlan& plan) {
                         return !plan.users.empty() || !plan.lists.empty() ||
                                plan.clusters_dirty || plan.filsys_dirty ||
                                plan.printcaps_dirty || plan.services_dirty ||
                                plan.sloc_dirty;
                       }});
  dcm->ConfigureService(
      "NFS", DcmServiceConfig{GeneratorFn(Traced("dcm.generate.NFS", GenerateNfs)),
                              {kUsersTable, kListTable, kMembersTable, kFilesysTable,
                               kNfsPhysTable, kNfsQuotaTable, kServerHostsTable},
                              "syncdir /site/moira\nexec update_lockers\n",
                              PatchBuilderFn(Traced("dcm.patch.NFS", BuildNfsPatch)),
                              [](const DeltaPlan& plan) {
                                return !plan.users.empty() || !plan.quotas.empty();
                              }});
  dcm->ConfigureService(
      "SMTP", DcmServiceConfig{GeneratorFn(Traced("dcm.generate.SMTP", GenerateMail)),
                               {kUsersTable, kListTable, kMembersTable, kMachineTable,
                                kStringsTable},
                               "syncdir /usr/lib/moira.staged\n",
                               PatchBuilderFn(Traced("dcm.patch.SMTP", BuildMailPatch)),
                               [](const DeltaPlan& plan) {
                                 return !plan.users.empty() || !plan.lists.empty();
                               }});
  dcm->ConfigureService(
      "ZEPHYR",
      DcmServiceConfig{GeneratorFn(Traced("dcm.generate.ZEPHYR", GenerateZephyrAcls)),
                       {kZephyrTable, kListTable, kMembersTable, kUsersTable},
                       "syncdir /etc/athena/zephyr/acl\nexec restart_zephyrd\n", nullptr,
                       [](const DeltaPlan& plan) { return plan.zephyr_dirty; }});
}

namespace {

struct Pipeline {
  explicit Pipeline(bool traced);
  ~Pipeline() { admin.reset(); }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  moira::SimulatedClock clock{568000000};
  std::unique_ptr<Site> site;
  std::unique_ptr<moira::ZephyrBus> zephyr;
  moira::HostDirectory directory;
  std::vector<std::unique_ptr<moira::SimHost>> hosts;
  std::unique_ptr<moira::Dcm> dcm;
  std::unique_ptr<moira::MoiraServer> server;
  std::unique_ptr<TracingHandler> handler;
  moira::HesiodServer hesiod;
  std::unique_ptr<moira::HesiodProtocolServer> hesiod_protocol;
  std::unique_ptr<moira::HesiodResolver> resolver;
  std::map<std::string, std::unique_ptr<moira::NfsServerSim>> nfs;  // by machine
  std::vector<std::unique_ptr<moira::ZephyrServerSim>> zephyr_servers;
  std::unique_ptr<MrClient> admin;
  moira::DcmRunSummary priming;
  // Called with the host's name right after a Hesiod or NFS consumer has
  // installed new files: the moment it can first answer with the change.
  std::function<void(const std::string&)> on_install;
};

Pipeline::Pipeline(bool traced) {
  site = std::make_unique<Site>(moira::SiteSpec{}, &clock);
  moira::MoiraContext& mc = *site->mc;
  zephyr = std::make_unique<moira::ZephyrBus>(&clock);
  hosts = moira::CreateSimHosts(mc, site->realm.get(), &directory);
  dcm = std::make_unique<moira::Dcm>(&mc, site->realm.get(), zephyr.get(), &directory);
  if (traced) {
    ConfigureTracedServices(dcm.get());
  } else {
    moira::ConfigureStandardServices(dcm.get());
  }

  // Consumers, with the install commands examples/full_site.cpp registers
  // (restart_hesiod as there; update_lockers and restart_zephyrd as
  // InstallNfsUpdateCommand and InstallZephyrReloadCommand register them),
  // each in a span and followed by the visibility hook.
  moira::HesiodServer* hes = &hesiod;
  Pipeline* self = this;
  directory.Find(site->builder->hesiod_server_name())
      ->RegisterCommand("restart_hesiod", [hes, self](moira::SimHost& host) {
        int status;
        {
          ScopedSpan span("hesiod.reload");
          std::vector<std::string> texts;
          for (const std::string& path : host.ListFiles()) {
            if (path.starts_with("/etc/athena/hesiod/") && path.ends_with(".db")) {
              texts.push_back(*host.ReadFile(path));
            }
          }
          status = hes->Reload(texts) >= 0 ? 0 : 1;
        }
        if (self->on_install) {
          self->on_install(host.name());
        }
        return status;
      });
  for (const std::string& name : site->builder->nfs_server_names()) {
    moira::SimHost* host = directory.Find(name);
    auto nfsd = std::make_unique<moira::NfsServerSim>(host);
    moira::NfsServerSim* sim = nfsd.get();
    host->RegisterCommand("update_lockers", [sim, self](moira::SimHost& installed) {
      int status;
      {
        ScopedSpan span("nfsd.install");
        status = sim->ApplyMoiraFiles("/site/moira");
      }
      if (self->on_install) {
        self->on_install(installed.name());
      }
      return status;
    });
    nfs[name] = std::move(nfsd);
  }
  for (const std::string& name : site->builder->zephyr_server_names()) {
    moira::SimHost* host = directory.Find(name);
    zephyr_servers.push_back(std::make_unique<moira::ZephyrServerSim>(host));
    moira::ZephyrServerSim* zephyrd = zephyr_servers.back().get();
    host->RegisterCommand("restart_zephyrd", Traced("zephyrd.reload", [zephyrd](moira::SimHost&) {
                            return zephyrd->ReloadAcls("/etc/athena/zephyr/acl");
                          }));
  }
  hesiod_protocol = std::make_unique<moira::HesiodProtocolServer>(&hesiod);
  moira::HesiodProtocolServer* proto = hesiod_protocol.get();
  resolver = std::make_unique<moira::HesiodResolver>([proto](std::string_view packet) {
    ScopedSpan span("hesiod.resolve");
    return proto->HandleQuery(packet);
  });

  server = std::make_unique<moira::MoiraServer>(&mc, site->realm.get());
  dcm->AttachJournal(&server->journal());
  handler = std::make_unique<TracingHandler>(server.get(), site->db.get());
  moira::MessageHandler* h = handler.get();
  admin = std::make_unique<MrClient>([h]() -> std::unique_ptr<moira::ClientChannel> {
    return std::make_unique<TracingChannel>(std::make_unique<moira::LoopbackChannel>(h),
                                            nullptr);
  });
  const std::string& login = site->builder->admin_login();
  admin->SetKerberosIdentity(site->realm.get(), login, "pw:" + login);
  if (admin->Connect() != moira::MR_SUCCESS || admin->Auth("perfbench") != moira::MR_SUCCESS) {
    std::fprintf(stderr, "propagate: the admin cannot authenticate\n");
    std::exit(1);
  }

  // The priming full pass: every service generated and every host installed.
  clock.Advance(moira::kSecondsPerDay);
  priming = dcm->RunOnce();
}

// True when `service` will be generated by a pass run at `at`: the DCM's
// own due rule (dfcheck + interval) read from the servers relation.
bool DueAt(moira::MoiraContext& mc, const char* service, moira::UnixTime at) {
  moira::RowRef row = mc.ExactOne(mc.servers(), "name", moira::Value(service), moira::MR_NO_MATCH);
  if (row.code != moira::MR_SUCCESS) {
    return false;
  }
  int64_t dfcheck = moira::MoiraContext::IntCell(mc.servers(), row.row, "dfcheck");
  int64_t interval = moira::MoiraContext::IntCell(mc.servers(), row.row, "update_int");
  return at >= dfcheck + interval * moira::kSecondsPerMinute;
}

struct Change {
  enum Kind { kShell, kGroup, kQuota } kind = kShell;
  std::string login;
  std::string value;     // the new shell, the group, or the new quota
  bool joined = false;   // kGroup: added (true) or removed
  std::string consumer;  // the host whose consumer serves the change
  uint64_t acked_ns = 0;
  bool seen = false;     // a consumer has answered with the change
};

// The kinds of one round's ten changes, in commit order: s(hell),
// g(roup membership), q(uota).  The three kinds are as even as the passes
// allow: quota changes ride only on rounds whose pass runs NFS (every other
// round), so a pair of rounds commits 7 shells, 7 group changes and 6 quotas.
constexpr char kNfsRound[] = "qsqgqsqgqq";
constexpr char kHesiodRound[] = "sgsgsgsgsg";
static_assert(sizeof(kNfsRound) - 1 == kChangesPerRound &&
              sizeof(kHesiodRound) - 1 == kChangesPerRound);

class Rounds {
 public:
  Rounds(Pipeline* p, SiteModel* site, Report* report, uint64_t seed)
      : p_(p), site_(site), report_(report), rng_(seed) {}

  // Runs `rounds` rounds; latencies are kept only when `measure`.  With
  // `interleave`, every other cycle of rounds is traced (whole cycles, so both
  // halves see the same mix of passes).
  void Run(int rounds, bool measure, bool interleave = false) {
    measure_ = measure;
    for (int i = 0; i < rounds; ++i) {
      if (interleave) {
        Tracer::Get().set_enabled(i / kRoundsPerCycle % 2 == 1);
      }
      Round();
    }
    Tracer::Get().set_enabled(false);
  }

  // Traced-round accumulators.
  std::vector<moira::DcmRunSummary> summaries;
  std::vector<uint64_t> pass_rows;

 private:
  void Round() {
    // The round's changes in a fixed pattern of kinds (quota changes only
    // when the coming pass runs NFS, by the DCM's own due rule), each on a
    // different user, so every run has the same mix of writes and of
    // visibility paths.
    moira::UnixTime next_pass = p_->clock.Now() + kCronInterval;
    const char* pattern = DueAt(*p_->site->mc, "NFS", next_pass) ? kNfsRound : kHesiodRound;
    pending_.clear();
    std::set<std::string> used;
    for (const char* kind = pattern; *kind != '\0'; ++kind) {
      pending_.push_back(Commit(*kind == 's'   ? Change::kShell
                                : *kind == 'g' ? Change::kGroup
                                               : Change::kQuota,
                                &used));
    }

    p_->clock.Advance(kCronInterval);
    DbCounters before = SumTableStats(*p_->site->db);
    moira::DcmRunSummary summary;
    {
      ScopedSpan span("dcm.pass");
      summary = p_->dcm->RunOnce();
    }
    if (Tracer::Get().enabled()) {
      summaries.push_back(summary);
      pass_rows.push_back(SumTableStats(*p_->site->db).rows_examined - before.rows_examined);
    }

    // Changes the consumers did not show as they installed get one more
    // lookup now; one still missing after its pass is a failure.
    static const char* kNames[] = {"passwd", "grplist", "quota"};
    for (Change& change : pending_) {
      if (!change.seen && Visible(change)) {
        Seen(&change);
      }
      report_->ledger.Record(change.seen ? Check{}
                                         : Check{Verdict::kWrong,
                                                 std::string("visible.") + kNames[change.kind] +
                                                     ".not_visible_after_pass"});
    }
  }

 public:
  // The visibility hook: a consumer on `host` has just installed new files.
  void OnInstall(const std::string& host) {
    for (Change& change : pending_) {
      if (!change.seen && change.consumer == host && Visible(change)) {
        Seen(&change);
      }
    }
  }

 private:
  void Seen(Change* change) {
    change->seen = true;
    if (measure_) {
      report_->Samples("visible").push_back(static_cast<double>(NowNs() - change->acked_ns) /
                                            1e6);
    }
  }

  Change Commit(Change::Kind kind, std::set<std::string>* used) {
    Change change;
    change.kind = kind;
    do {
      change.login = site_->active_logins()[rng_.Below(site_->active_logins().size())];
    } while (!used->insert(change.login).second);
    change.consumer = kind == Change::kQuota ? site_->HomePartition(change.login)->first
                                             : p_->site->builder->hesiod_server_name();
    std::string query;
    std::vector<std::string> args;
    const UserInfo* user = site_->User(change.login);
    switch (change.kind) {
      case Change::kShell: {
        std::string shell = kShells[rng_.Below(std::size(kShells))];
        if (shell == user->shell) {
          shell = kShells[(rng_.Below(std::size(kShells) - 1) + 1) % std::size(kShells)];
          if (shell == user->shell) {
            shell = "/bin/ksh";
          }
        }
        change.value = shell;
        query = "update_user_shell", args = {change.login, shell};
        break;
      }
      case Change::kGroup: {
        const std::vector<std::string>& groups = site_->group_lists();
        change.value = groups[rng_.Below(groups.size())];
        change.joined = !site_->List(change.value)->users.contains(user->users_id);
        query = change.joined ? "add_member_to_list" : "delete_member_from_list";
        args = {change.value, "USER", change.login};
        break;
      }
      case Change::kQuota: {
        const Partition* home = site_->HomePartition(change.login);
        int64_t current = home == nullptr ? 0 : site_->Quotas(*home).at(change.login);
        int64_t quota = 200 + static_cast<int64_t>(rng_.Below(600));
        if (quota == current) {
          ++quota;
        }
        change.value = std::to_string(quota);
        query = "update_nfs_quota", args = {change.login, change.login, change.value};
        break;
      }
    }
    uint64_t ns = 0;
    Answer answer = TimedQuery(*p_->admin, query, args, &ns);
    change.acked_ns = NowNs();
    if (measure_) {
      report_->Samples("write").push_back(static_cast<double>(ns) / 1e3);
      report_->AddDetail(query, static_cast<double>(ns) / 1e3);
    }
    report_->ledger.Record(CheckWrite(site_, site_->admin(), query, args, answer));
    return change;
  }

  // The consumer's first answer after the pass: does it reflect the change?
  bool Visible(const Change& change) {
    std::vector<std::string> answers;
    switch (change.kind) {
      case Change::kShell:
        return p_->resolver->Resolve(change.login, "passwd", &answers) ==
                   moira::HesiodRcode::kNoError &&
               answers.size() == 1 && answers[0].ends_with(":" + change.value);
      case Change::kGroup: {
        if (p_->resolver->Resolve(change.login, "grplist", &answers) !=
                moira::HesiodRcode::kNoError ||
            answers.size() != 1) {
          return false;
        }
        bool listed = (answers[0] + ":").find(":" + change.value + ":") != std::string::npos;
        return listed == change.joined;
      }
      case Change::kQuota: {
        const Partition* home = site_->HomePartition(change.login);
        std::optional<int64_t> quota =
            home == nullptr ? std::nullopt
                            : p_->nfs.at(home->first)->QuotaFor(site_->User(change.login)->uid);
        return quota.has_value() && std::to_string(*quota) == change.value;
      }
    }
    return false;
  }

  Pipeline* p_;
  SiteModel* site_;
  Report* report_;
  moira::SplitMix64 rng_;
  bool measure_ = false;
  std::vector<Change> pending_;  // this round's changes
};

void PropagateLayers(Report* report, const std::vector<Span>& spans, const Rounds& rounds,
                     Pipeline& p) {
  std::map<std::string, SpanSummary> by_name =
      AddCommonLayers(report, spans, p.handler->reads(), p.handler->writes());
  for (const auto& [name, summary] : by_name) {
    if (name.starts_with("dcm.generate.") || name.starts_with("dcm.patch.")) {
      std::string kind = name.starts_with("dcm.generate.") ? "dcm.generate_ms." : "dcm.patch_ms.";
      AddSpanLayer(report, kind + name.substr(name.rfind('.') + 1), "ms", summary.total_ns);
    }
  }
  auto total_of = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? std::vector<uint64_t>{} : it->second.total_ns;
  };
  AddSpanLayer(report, "dcm.pass_ms", "ms", total_of("dcm.pass"));
  AddSpanLayer(report, "dcm.self_ms", "ms", SelfOf(by_name, "dcm.pass"));
  AddSpanLayer(report, "hesiod.reload_ms", "ms", total_of("hesiod.reload"));
  AddSpanLayer(report, "hesiod.resolve_us", "us", total_of("hesiod.resolve"));
  AddSpanLayer(report, "nfsd.install_ms", "ms", total_of("nfsd.install"));
  AddSpanLayer(report, "zephyrd.reload_ms", "ms", total_of("zephyrd.reload"));
  AddCountLayer(report, "hesiod.records", static_cast<double>(p.hesiod.record_count()),
                "records", 1);

  const std::vector<moira::DcmRunSummary>& s = rounds.summaries;
  auto per_pass = [&](const char* name, const std::string& unit, auto field) {
    double sum = 0;
    for (const moira::DcmRunSummary& summary : s) {
      sum += static_cast<double>(field(summary));
    }
    AddCountLayer(report, name, s.empty() ? 0 : sum / static_cast<double>(s.size()), unit,
                  s.size());
  };
  auto total = [&](const char* name, auto field) {
    double sum = 0;
    for (const moira::DcmRunSummary& summary : s) {
      sum += static_cast<double>(field(summary));
    }
    AddCountLayer(report, name, sum, "count", s.size());
  };
  double rows = 0;
  for (uint64_t r : rounds.pass_rows) {
    rows += static_cast<double>(r);
  }
  AddCountLayer(report, "dcm.rows_examined_per_pass",
                rounds.pass_rows.empty() ? 0 : rows / static_cast<double>(rounds.pass_rows.size()),
                "rows", rounds.pass_rows.size());
  per_pass("dcm.journal_entries_per_pass", "entries",
           [](const moira::DcmRunSummary& x) { return x.journal_entries_examined; });
  per_pass("dcm.bytes_shipped_per_pass", "bytes",
           [](const moira::DcmRunSummary& x) { return x.bytes_propagated; });
  total("dcm.patch_ships", [](const moira::DcmRunSummary& x) { return x.patch_ships; });
  total("dcm.patch_fallbacks", [](const moira::DcmRunSummary& x) { return x.patch_fallbacks; });
  total("dcm.full_regens", [](const moira::DcmRunSummary& x) { return x.full_regens; });
  per_pass("update.hosts_updated_per_pass", "hosts",
           [](const moira::DcmRunSummary& x) { return x.hosts_updated; });
  total("update.host_retries", [](const moira::DcmRunSummary& x) { return x.host_retries; });
}

}  // namespace

Report RunPropagate(const Options& options) {
  Report report;
  report.workload = "propagate";
  report.options = options;

  uint64_t setup_start = NowNs();
  auto pipeline = std::make_unique<Pipeline>(options.trace);
  report.setup_s.push_back(Seconds(setup_start, NowNs()));
  SiteModel site = SiteModel::Read(*pipeline->site->mc, pipeline->site->builder->admin_login());
  Rounds rounds(pipeline.get(), &site, &report, options.seed);
  pipeline->on_install = [&rounds](const std::string& host) { rounds.OnInstall(host); };

  const int cycles = std::max(
      2, static_cast<int>(kRoundsPerSecond * options.seconds / kRoundsPerCycle + 0.5));
  const int warmup = kRoundsPerCycle;
  const int measured = (cycles - 1) * kRoundsPerCycle;
  rounds.Run(warmup, /*measure=*/false);
  rounds.Run(measured, /*measure=*/true, /*interleave=*/options.trace);
  if (options.trace) {
    PropagateLayers(&report, Tracer::Get().Collect(), rounds, *pipeline);
  }

  report.meta["rounds"] = std::to_string(warmup + measured);
  report.meta["warmup_rounds"] = std::to_string(warmup);
  report.meta["changes_per_round"] = std::to_string(kChangesPerRound);
  report.meta["priming_pass_hosts_updated"] = std::to_string(pipeline->priming.hosts_updated);
  report.meta["threads"] = "1";
  return report;
}

}  // namespace perfbench
