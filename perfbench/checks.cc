// perfbench_checks: unit checks of the benchmark's own arithmetic and oracle.
//
//   - the percentile rule (a percentile is reported only with at least ten
//     samples beyond it);
//   - span self time (duration minus the union of the children's intervals,
//     clipped to the parent);
//   - the expected-answer oracle, against the program's answers on
//     TestSiteSpec();
//   - failure accounting (only the known defects' classes leave a run
//     correct) and the result line (none when a metric it must carry has no
//     valid figure);
//   - the traced DCM service configuration against the standard one: the
//     same files on every host and the same pass summaries.
//
// Exits non-zero on the first failed check.  run.py --self-test builds and
// runs it.
#include <cstdio>
#include <cstdlib>

#include "perfbench/oracle.h"
#include "perfbench/site.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "src/comerr/moira_errors.h"
#include "src/core/registry.h"
#include "src/dcm/dcm.h"
#include "src/dcm/delta.h"
#include "src/server/journal.h"
#include "src/update/sim_host.h"
#include "src/zephyrd/zephyr_bus.h"

namespace {

int checks = 0;

#define EXPECT(cond)                                                           \
  do {                                                                         \
    ++checks;                                                                  \
    if (!(cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                            \
    }                                                                          \
  } while (0)

using perfbench::Answer;
using perfbench::Check;
using perfbench::Verdict;

void PercentileRule() {
  using perfbench::HasTenBeyond;
  using perfbench::MinSamplesFor;
  using perfbench::Percentile;
  EXPECT(MinSamplesFor(50) == 20);
  EXPECT(MinSamplesFor(90) == 100);
  EXPECT(MinSamplesFor(99) == 1000);
  EXPECT(!HasTenBeyond(999, 99));
  EXPECT(HasTenBeyond(1000, 99));
  std::vector<double> values;
  for (int i = 1; i <= 19; ++i) {
    values.push_back(i);
  }
  EXPECT(!Percentile(values, 50).has_value());
  values.push_back(20);
  EXPECT(Percentile(values, 50).value() == 10);
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) {
    thousand.push_back(i);
  }
  EXPECT(Percentile(thousand, 99).value() == 990);
  EXPECT(Percentile(thousand, 90).value() == 900);
}

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, uint64_t start, uint64_t end) {
  perfbench::Span span;
  span.name = "s" + std::to_string(id);
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

void SelfTime() {
  // Parent [0,100]: children [10,30] and [20,50] overlap (40 covered once),
  // [90,120] is covered only up to the parent's end (10); the grandchild
  // counts against its own parent, not the root.
  std::vector<perfbench::Span> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 12, 18), MakeSpan(6, 0, 200, 210),
  };
  std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
  EXPECT(self[5] == 10);
  // A child wholly covering its parent leaves no self time.
  std::vector<uint64_t> covered =
      perfbench::SelfTimes({MakeSpan(1, 0, 5, 10), MakeSpan(2, 1, 0, 20)});
  EXPECT(covered[0] == 0);
}

Answer Ask(moira::MoiraContext& mc, const std::string& principal, const std::string& query,
           const std::vector<std::string>& args) {
  Answer answer;
  answer.code = moira::QueryRegistry::Instance().Execute(
      mc, principal, "perfbench-checks", query, args,
      [&](moira::Tuple tuple) { answer.tuples.push_back(std::move(tuple)); });
  return answer;
}

void Oracle() {
  moira::SimulatedClock clock(568000000);
  perfbench::Site site(moira::TestSiteSpec(), &clock);
  moira::MoiraContext& mc = *site.mc;
  // TestSiteSpec() has no hidden list: hide ml-1 before the model is read.
  moira::RowRef hidden = mc.ListByName("ml-1");
  EXPECT(hidden.code == moira::MR_SUCCESS);
  moira::MoiraContext::SetCell(mc.list(), hidden.row, "hidden", moira::Value(int64_t{1}));
  perfbench::SiteModel model = perfbench::SiteModel::Read(mc, site.builder->admin_login());
  const std::string admin = model.admin();
  EXPECT(model.active_logins().size() >= 3);
  const std::string alice = model.active_logins()[0];
  const std::string bob = model.active_logins()[1];
  EXPECT(!model.unregistered().empty());

  // Own records: answered, and the answer matches the model.
  Answer own = Ask(mc, alice, "get_user_by_login", {alice});
  EXPECT(perfbench::CheckRead(model, alice, "get_user_by_login", {alice}, own).verdict ==
         Verdict::kOk);
  // Someone else's: refused, which is the expected outcome.
  Answer other = Ask(mc, alice, "get_user_by_login", {bob});
  EXPECT(other.code == moira::MR_PERM);
  EXPECT(perfbench::CheckRead(model, alice, "get_user_by_login", {bob}, other).verdict ==
         Verdict::kOk);
  // A doctored answer is a wrong answer.
  Answer doctored = own;
  doctored.tuples[0][2] = "/bin/false";
  EXPECT(perfbench::CheckRead(model, alice, "get_user_by_login", {alice}, doctored).verdict ==
         Verdict::kWrong);
  // An answer that should have been refused is wrong too.
  EXPECT(perfbench::CheckRead(model, alice, "get_user_by_login", {bob}, own).verdict ==
         Verdict::kWrong);

  // The hidden list: a non-member is refused (expected), its ACE sees it,
  // and the administrator should see it but is refused today.
  const perfbench::ListInfo* list = model.List("ml-1");
  EXPECT(list != nullptr && list->hidden);
  const perfbench::UserInfo* owner = model.UserById(list->ace_user);
  EXPECT(owner != nullptr);
  std::string outsider = owner->login == alice ? bob : alice;
  for (const char* query : {"get_list_info", "get_members_of_list"}) {
    Answer refused = Ask(mc, outsider, query, {"ml-1"});
    EXPECT(refused.code == moira::MR_PERM || refused.code == moira::MR_NO_MATCH);
    EXPECT(perfbench::CheckRead(model, outsider, query, {"ml-1"}, refused).verdict ==
           Verdict::kOk);
    Answer seen = Ask(mc, owner->login, query, {"ml-1"});
    EXPECT(perfbench::CheckRead(model, owner->login, query, {"ml-1"}, seen).verdict ==
           Verdict::kOk);
    Answer by_admin = Ask(mc, admin, query, {"ml-1"});
    Check check = perfbench::CheckRead(model, admin, query, {"ml-1"}, by_admin);
    if (by_admin.code == moira::MR_SUCCESS) {
      EXPECT(check.verdict == Verdict::kOk);
    } else {
      EXPECT(check.verdict == Verdict::kRefused);
      EXPECT(check.failure_class == "admin_hidden_list.refused");
    }
  }

  // Writes: acknowledged self-service changes update the model, and later
  // reads are checked against the new value.
  Answer chsh = Ask(mc, alice, "update_user_shell", {alice, "/bin/bash"});
  EXPECT(perfbench::CheckWrite(&model, alice, "update_user_shell", {alice, "/bin/bash"}, chsh)
             .verdict == Verdict::kOk);
  EXPECT(model.User(alice)->shell == "/bin/bash");
  Answer after = Ask(mc, alice, "get_user_by_login", {alice});
  EXPECT(perfbench::CheckRead(model, alice, "get_user_by_login", {alice}, after).verdict ==
         Verdict::kOk);
  Answer denied = Ask(mc, alice, "update_user_shell", {bob, "/bin/bash"});
  EXPECT(perfbench::CheckWrite(&model, alice, "update_user_shell", {bob, "/bin/bash"}, denied)
             .verdict == Verdict::kOk);
  EXPECT(model.User(bob)->shell != "/bin/bash" || denied.code == moira::MR_SUCCESS);

  // Joining a public list, then the member-of answer includes it.
  EXPECT(!model.public_lists().empty());
  const std::string pub = model.public_lists()[0];
  if (!model.List(pub)->users.contains(model.User(alice)->users_id)) {
    Answer join = Ask(mc, alice, "add_member_to_list", {pub, "USER", alice});
    EXPECT(perfbench::CheckWrite(&model, alice, "add_member_to_list", {pub, "USER", alice}, join)
               .verdict == Verdict::kOk);
  }
  Answer lists = Ask(mc, alice, "get_lists_of_member", {"USER", alice});
  EXPECT(perfbench::CheckRead(model, alice, "get_lists_of_member", {"USER", alice}, lists)
             .verdict == Verdict::kOk);
  EXPECT(model.ListsOf(model.User(alice)->users_id).contains(pub));
}

void FailureAccounting() {
  // The ledger counts every attempt and classes every failure; the known
  // defects' classes are failures that leave the run correct.
  perfbench::Ledger ledger;
  ledger.Record(Check{});
  ledger.Record(Check{Verdict::kRefused, "admin_hidden_list.refused"});
  ledger.Record(Check{Verdict::kRefused, "register.not_journalled"});
  ledger.Record(Check{Verdict::kRefused, "add_member_to_list.replica_apply_failed"});
  EXPECT(ledger.attempted() == 4 && ledger.failed() == 3 && ledger.correct());
  EXPECT(ledger.classes().at("admin_hidden_list.refused") == 1);
  // Any other failure makes the run incorrect: wrong data, a refusal the
  // rules do not imply, a change its consumer does not serve after the pass.
  for (const Check& check :
       {Check{Verdict::kWrong, "get_user_by_login.wrong_answer"},
        Check{Verdict::kRefused, "register.refused"},
        Check{Verdict::kRefused, "session.auth_refused"},
        Check{Verdict::kRefused, "update_user_shell.refused"},
        Check{Verdict::kWrong, "visible.passwd.not_visible_after_pass"}}) {
    perfbench::Ledger one;
    one.Record(check);
    EXPECT(one.failed() == 1 && !one.correct());
  }
}

bool Contains(const std::optional<std::string>& line, const std::string& text) {
  return line.has_value() && line->find(text) != std::string::npos;
}

void ResultLineRule() {
  perfbench::Report report;
  report.workload = "term_start";
  // No set-up timed, no writes measured (say every registration was refused,
  // so no student reached the admin writes): no result line, rather than a
  // 0 that reads as a fast run.
  EXPECT(!perfbench::ResultLine(report).has_value());
  report.setup_s = {1.5, 0.5, 1.0};
  EXPECT(!perfbench::ResultLine(report).has_value());
  std::vector<double>& writes = report.series["write"].values;
  for (int i = 1; i <= 19; ++i) {
    writes.push_back(i);
  }
  EXPECT(!perfbench::ResultLine(report).has_value());  // p50 needs 20 samples
  writes.push_back(20);
  std::optional<std::string> line = perfbench::ResultLine(report);
  EXPECT(Contains(line, "\"correct\": true"));
  EXPECT(Contains(line, "\"setup_s\": {\"value\": 1, \"unit\": \"s\"}"));
  EXPECT(Contains(line, "\"write_p50_us\": {\"value\": 10, \"unit\": \"us\"}"));
  // An expected failure keeps the run correct, any other turns it incorrect.
  report.ledger.Record(Check{Verdict::kRefused, "register.not_journalled"});
  EXPECT(Contains(perfbench::ResultLine(report), "\"correct\": true, \"attempted\": 1, "
                                                 "\"failed\": 1"));
  report.ledger.Record(Check{Verdict::kRefused, "register.refused"});
  EXPECT(Contains(perfbench::ResultLine(report), "\"correct\": false"));

  // A traced run's line carries the per-layer metrics; one missing: no line.
  report.options.trace = true;
  EXPECT(!perfbench::ResultLine(report).has_value());
  for (const char* name : {"server.write_us", "protocol.decode_us", "protocol.encode_us"}) {
    perfbench::AddCountLayer(&report, name, 2.5, "us", 40);
  }
  EXPECT(!perfbench::ResultLine(report).has_value());
  perfbench::AddCountLayer(&report, "db.rows_examined_per_write", 7, "rows", 40);
  line = perfbench::ResultLine(report);
  EXPECT(Contains(line, "\"db.rows_examined_per_write\": {\"value\": 7, \"unit\": \"rows\"}"));
  EXPECT(!Contains(line, "write_p50_us"));
}

// One DCM on TestSiteSpec() under the standard or the traced service
// configuration, with or without the journal attached: a priming pass, then
// twelve 6-hour rounds (three cycles of the services' 6/12/24 h intervals).
// Each round commits changes of the kinds in kRoundKinds: s(hell), g(roup
// list add), q(uota).  The first two cycles give some NFS and SMTP passes a
// single kind of change, so a delta predicate that drifted skips a pass the
// other configuration runs.
constexpr const char* kRoundKinds[] = {"g",   "q",   "g",   "q",   "s",   "s",
                                       "q",   "q",   "sgq", "sgq", "sgq", "sgq"};

struct Passes {
  std::vector<moira::DcmRunSummary> summaries;
  std::map<std::string, std::map<std::string, std::string>> files;  // host -> path -> bytes
  std::map<std::string, std::vector<std::string>> commands;         // host -> executed
};

std::vector<int64_t> Fields(const moira::DcmRunSummary& s) {
  return {s.ran,
          s.services_considered,
          s.services_generated,
          s.services_no_change,
          s.generation_hard_errors,
          s.hosts_updated,
          s.host_soft_failures,
          s.host_hard_failures,
          s.bytes_propagated,
          s.files_generated,
          s.propagations,
          s.host_retries,
          s.update_timeouts,
          s.breaker_opens,
          s.breaker_skips,
          s.probe_successes,
          s.probe_failures,
          s.directory_outages,
          s.services_patched,
          s.services_delta_skipped,
          s.full_regens,
          s.truncation_fallbacks,
          s.patch_ships,
          s.patch_fallbacks,
          s.journal_entries_examined,
          s.generation_rows_primary,
          s.generation_rows_replica};
}

Passes RunPasses(bool traced, bool journalled) {
  moira::SimulatedClock clock(568000000);
  perfbench::Site site(moira::TestSiteSpec(), &clock);
  moira::MoiraContext& mc = *site.mc;
  moira::ZephyrBus zephyr(&clock);
  moira::HostDirectory directory;
  std::vector<std::unique_ptr<moira::SimHost>> hosts =
      moira::CreateSimHosts(mc, site.realm.get(), &directory);
  moira::Dcm dcm(&mc, site.realm.get(), &zephyr, &directory);
  if (traced) {
    perfbench::ConfigureTracedServices(&dcm);
  } else {
    moira::ConfigureStandardServices(&dcm);
  }
  moira::Journal journal;
  if (journalled) {
    dcm.AttachJournal(&journal);
  }
  perfbench::Tracer::Get().set_enabled(traced);

  Passes passes;
  clock.Advance(moira::kSecondsPerDay);
  passes.summaries.push_back(dcm.RunOnce());
  perfbench::SiteModel model = perfbench::SiteModel::Read(mc, site.builder->admin_login());
  auto commit = [&](const std::string& query, const std::vector<std::string>& args) {
    EXPECT(moira::ExecuteJournaled(mc, &journal, model.admin(), "perfbench-checks", query,
                                   args) == moira::MR_SUCCESS);
  };
  size_t next = 0;
  for (const char* kinds : kRoundKinds) {
    for (const char* kind = kinds; *kind != '\0'; ++kind) {
      const std::string* login = nullptr;
      while (login == nullptr) {
        const std::string& candidate = model.active_logins().at(next++);
        if (model.HomePartition(candidate) != nullptr) {
          login = &candidate;
        }
      }
      if (*kind == 's') {
        commit("update_user_shell", {*login, "/bin/check-shell"});
      } else if (*kind == 'q') {
        commit("update_nfs_quota", {*login, *login, "1234"});
      } else {
        int64_t users_id = model.User(*login)->users_id;
        for (const std::string& list : model.group_lists()) {
          if (!model.List(list)->users.contains(users_id)) {
            commit("add_member_to_list", {list, "USER", *login});
            model.AddMember(list, users_id);
            break;
          }
        }
      }
    }
    clock.Advance(6 * moira::kSecondsPerHour);
    passes.summaries.push_back(dcm.RunOnce());
  }
  perfbench::Tracer::Get().set_enabled(false);
  for (const auto& host : hosts) {
    for (const std::string& path : host->ListFiles()) {
      passes.files[host->name()][path] = *host->ReadFile(path);
    }
    passes.commands[host->name()] = host->executed_commands();
  }
  return passes;
}

void TracedServicesMatchStandard() {
  for (bool journalled : {true, false}) {
    Passes standard = RunPasses(/*traced=*/false, journalled);
    Passes traced = RunPasses(/*traced=*/true, journalled);
    EXPECT(standard.summaries.size() == 1 + std::size(kRoundKinds));
    EXPECT(standard.summaries.size() == traced.summaries.size());
    int patch_ships = 0;
    for (size_t pass = 0; pass < standard.summaries.size(); ++pass) {
      EXPECT(Fields(standard.summaries[pass]) == Fields(traced.summaries[pass]));
      patch_ships += standard.summaries[pass].patch_ships;
    }
    EXPECT(!standard.files.empty());
    EXPECT(standard.files == traced.files);
    EXPECT(standard.commands == traced.commands);
    // In journal mode the rounds shipped patches, so the patch builders were
    // compared too, not only the generators.
    EXPECT(!journalled || patch_ships > 0);
  }
  EXPECT(!perfbench::Tracer::Get().Collect().empty());
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  Oracle();
  FailureAccounting();
  ResultLineRule();
  TracedServicesMatchStandard();
  std::printf("perfbench_checks: %d checks passed\n", checks);
  return 0;
}
