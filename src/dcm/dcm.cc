#include "src/dcm/dcm.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "src/common/checksum.h"
#include "src/common/strutil.h"
#include "src/db/exec.h"

namespace moira {
namespace {

// Total rows examined across every table of a context's database: the
// generation-read ledger the replica-offload counters are built from.
int64_t DbRowsExamined(MoiraContext& mc) {
  int64_t total = 0;
  for (const std::string& name : mc.db().TableNames()) {
    const Table* table = mc.db().GetTable(name);
    total += table->stats().rows_examined;
  }
  return total;
}

// Splits a script into trimmed lines.
std::vector<std::string> ScriptLines(const std::string& script) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < script.size()) {
    size_t nl = script.find('\n', pos);
    std::string_view line(script.data() + pos,
                          (nl == std::string::npos ? script.size() : nl) - pos);
    pos = nl == std::string::npos ? script.size() : nl + 1;
    std::string_view trimmed = TrimWhitespace(line);
    if (!trimmed.empty()) {
      lines.emplace_back(trimmed);
    }
  }
  return lines;
}

// The install path of an archive member under a service's script: an
// "extract <member> <dest>" line pins it exactly, a "syncdir <dir>" line
// maps the whole archive to <dir>/<member>.
struct InstallPaths {
  std::map<std::string, std::string> by_member;
  std::string sync_dir;

  explicit InstallPaths(const std::string& script) {
    for (const std::string& line : ScriptLines(script)) {
      std::vector<std::string> words = Split(line, ' ');
      if (words.size() == 3 && words[0] == "extract") {
        by_member[words[1]] = words[2];
      } else if (words.size() == 2 && words[0] == "syncdir") {
        sync_dir = words[1];
      }
    }
  }

  std::string For(const std::string& member) const {
    auto it = by_member.find(member);
    if (it != by_member.end()) {
      return it->second;
    }
    return sync_dir.empty() ? member : sync_dir + "/" + member;
  }
};

// Derives the patch-apply script from a service's install script: the
// extract/install/syncdir file plumbing collapses into one applypatch
// instruction (the patch carries its own install paths); the exec/signal
// tail is preserved so daemons still restart after a patched install.
std::string PatchScript(const std::string& script) {
  std::string out = "applypatch\n";
  for (const std::string& line : ScriptLines(script)) {
    std::vector<std::string> words = Split(line, ' ');
    if (words[0] == "extract" || words[0] == "install" || words[0] == "syncdir") {
      continue;
    }
    out += line + "\n";
  }
  return out;
}

// Regenerate-and-diff fallback for services without a patch builder: every
// member whose bytes changed becomes a whole-file replace edit.  Machines
// absent from the old result are skipped — their hosts fail the
// lts >= base_dfgen gate and take the full archive.
ServicePatch DiffResults(const GeneratorResult& old_result,
                         const GeneratorResult& fresh) {
  ServicePatch sp;
  auto diff_archive = [](const Archive& old_archive, const Archive& new_archive,
                         std::map<std::string, MemberEdit>* edits) {
    for (const auto& [member, contents] : new_archive.members()) {
      const std::string* old_contents = old_archive.Find(member);
      if (old_contents == nullptr || *old_contents != *contents) {
        MemberEdit edit;
        edit.replace = true;
        edit.replacement = *contents;
        (*edits)[member] = std::move(edit);
      }
    }
  };
  diff_archive(old_result.common, fresh.common, &sp.common);
  for (const auto& [machine, archive] : fresh.per_host) {
    auto it = old_result.per_host.find(machine);
    if (it == old_result.per_host.end()) {
      continue;
    }
    std::map<std::string, MemberEdit> edits;
    diff_archive(it->second, archive, &edits);
    if (!edits.empty()) {
      sp.per_host[machine] = std::move(edits);
    }
  }
  return sp;
}

// The number of distinct generated files in a result: members of one name
// with equal bytes (the credentials file of every unrestricted NFS server)
// count once.  Each distinct buffer is CRC'd once.
int CountDistinctFiles(const GeneratorResult& result) {
  std::map<const std::string*, uint32_t> crcs;
  std::set<std::pair<std::string_view, uint32_t>> distinct;
  auto add = [&](const Archive& archive) {
    for (const auto& [name, contents] : archive.members()) {
      auto [it, fresh] = crcs.emplace(contents.get(), 0);
      if (fresh) {
        it->second = Crc32(*contents);
      }
      distinct.emplace(name, it->second);
    }
  };
  add(result.common);
  for (const auto& [host, archive] : result.per_host) {
    add(archive);
  }
  return static_cast<int>(distinct.size());
}

}  // namespace

// One edit resolved in a service's pass, kept so that a host with an equal
// edit on the same base buffer reuses its result.
struct Dcm::ResolvedEdit {
  std::string member;
  FileBytes base;         // held, so its address is not reused in the pass
  const MemberEdit* edit; // owned by the pass's ServicePatch
  FileBytes result;       // null: the edit left the bytes as they were
  FilePatch patch;        // set when result is
};

// Snapshot of one servers-relation row the DCM works from.
struct Dcm::ServiceRow {
  size_t row = 0;
  std::string name;
  int64_t interval_minutes = 0;
  std::string target;
  int64_t dfgen = 0;
  int64_t dfcheck = 0;
  std::string type;
  bool enable = false;
  bool harderror = false;
};

Dcm::Dcm(MoiraContext* mc, KerberosRealm* realm, ZephyrBus* zephyr, HostDirectory* hosts)
    : mc_(mc),
      zephyr_(zephyr),
      hosts_(hosts),
      update_client_(realm, kDcmPrincipal, "dcm-service-password") {
  // Register the DCM's own principal so it can obtain update tickets.
  realm->AddPrincipal(kDcmPrincipal, "dcm-service-password");
  set_resilience(resilience_);
}

void Dcm::set_resilience(const DcmResilienceConfig& config) {
  resilience_ = config;
  update_client_.set_retry_policy(config.enabled ? config.retry : RetryPolicy{});
  update_client_.set_deadlines(config.enabled ? config.deadlines : UpdateDeadlines{});
}

void Dcm::ConfigureService(const std::string& service, DcmServiceConfig config) {
  configs_[ToUpperCopy(service)] = std::move(config);
}

void Dcm::SetReadSource(MoiraContext* replica,
                        std::function<bool(uint64_t)> catch_up) {
  read_mc_ = replica;
  catch_up_ = std::move(catch_up);
  read_source_ok_ = false;
}

MoiraContext& Dcm::GenContext() {
  return read_source_ok_ && read_mc_ != nullptr ? *read_mc_ : *mc_;
}

void Dcm::ChargeGenerationRows(MoiraContext& gen, int64_t rows_before,
                               DcmRunSummary* summary) {
  int64_t delta = DbRowsExamined(gen) - rows_before;
  if (&gen == mc_) {
    summary->generation_rows_primary += delta;
  } else {
    summary->generation_rows_replica += delta;
  }
}

bool Dcm::ResolveEdits(const std::map<std::string, MemberEdit>& edits,
                       const std::string& script, Archive* archive,
                       ArchivePatch* out, EditMemo* memo) {
  static const std::string kEmptyBase;
  InstallPaths paths(script);
  for (const auto& [member, edit] : edits) {
    FileBytes base = archive->Share(member);
    // A keyed edit needs the member's current bytes; only whole-file
    // replacements may introduce a member (hosts that already carry a stale
    // copy fail the base CRC and take the full archive).
    if (base == nullptr && !edit.replace) {
      return false;
    }
    auto [first, last] = memo->equal_range(base.get());
    auto repeat = std::find_if(first, last, [&](const auto& entry) {
      return entry.second.member == member && *entry.second.edit == edit;
    });
    if (repeat != last) {
      if (repeat->second.result != nullptr) {
        out->Add(repeat->second.patch);
        archive->Add(member, repeat->second.result);
      }
      continue;
    }
    const std::string& old_contents = base != nullptr ? *base : kEmptyBase;
    std::string fresh;
    if (edit.replace) {
      fresh = edit.replacement;
    } else {
      std::optional<std::string> spliced =
          SpliceKeyedOps(old_contents, edit.rule, edit.ops);
      if (!spliced.has_value()) {
        return false;  // the staged member is not canonical: regenerate
      }
      fresh = std::move(*spliced);
    }
    ResolvedEdit& resolved =
        memo->emplace(base.get(), ResolvedEdit{member, base, &edit, nullptr, {}})->second;
    if (fresh == old_contents) {
      continue;  // the mutation had no effect on this member's bytes
    }
    FilePatch& patch = resolved.patch;
    patch.member = member;
    patch.path = paths.For(member);
    patch.key_rule = edit.rule;
    patch.base_crc = Crc32(old_contents);
    patch.result_crc = Crc32(fresh);
    patch.replace = edit.replace;
    if (edit.replace) {
      patch.contents = edit.replacement;
    } else {
      patch.ops = edit.ops;
    }
    resolved.result = MakeFileBytes(std::move(fresh));
    out->Add(patch);
    archive->Add(member, resolved.result);
  }
  return true;
}

const GeneratorResult* Dcm::StagedPayload(const std::string& service) const {
  auto it = staged_.find(ToUpperCopy(service));
  return it != staged_.end() ? &it->second : nullptr;
}

bool Dcm::GenerationDue(const ServiceRow& service) const {
  return mc_->Now() >= service.dfcheck + service.interval_minutes * kSecondsPerMinute;
}

bool Dcm::TablesChangedSince(const DcmServiceConfig& config, UnixTime since) const {
  for (const std::string& table_name : config.relevant_tables) {
    const Table* table = mc_->db().GetTable(table_name);
    if (table != nullptr && table->stats().modtime > since) {
      return true;
    }
  }
  return false;
}

void Dcm::ReportHardError(const std::string& where, const std::string& message) {
  // Paper section 5.7.1: a zephyr message is sent to class MOIRA instance
  // DCM indicating the error.
  zephyr_->Send("MOIRA", "DCM", "dcm", where + ": " + message);
}

void Dcm::GeneratePhase(const ServiceRow& service, DcmRunSummary* summary) {
  auto config_it = configs_.find(service.name);
  Table* servers = mc_->servers();
  ScopedLock lock(&locks_, "service:" + service.name, LockManager::Mode::kExclusive);
  if (!lock.held()) {
    return;  // another DCM is generating this service right now
  }
  MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(int64_t{1}));
  const UnixTime now = mc_->Now();
  if (journal_ != nullptr) {
    // Journal mode: delta extraction and patch staging replace the
    // table-modtime check entirely.
    JournalGenerate(service, config_it->second, now, summary);
    MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(int64_t{0}));
    return;
  }
  // Incremental check: only rebuild if a relevant table changed since the
  // files were last generated (paper section 5.1.E).
  if (staged_.contains(service.name) &&
      !TablesChangedSince(config_it->second, service.dfgen)) {
    MoiraContext::SetCellInternal(servers, service.row, "dfcheck", Value(now));
    ++summary->services_no_change;
    MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(int64_t{0}));
    return;
  }
  GeneratorResult result;
  int32_t code = config_it->second.generator(*mc_, &result);
  if (code != MR_SUCCESS) {
    MoiraContext::SetCellInternal(servers, service.row, "harderror", Value(int64_t{code}));
    MoiraContext::SetCellInternal(servers, service.row, "errmsg", Value(ErrorMessage(code)));
    ReportHardError("generator " + service.name, ErrorMessage(code));
    ++summary->generation_hard_errors;
    MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(int64_t{0}));
    return;
  }
  summary->files_generated += CountDistinctFiles(result);
  staged_[service.name] = std::move(result);
  MoiraContext::SetCellInternal(servers, service.row, "dfgen", Value(now));
  MoiraContext::SetCellInternal(servers, service.row, "dfcheck", Value(now));
  ++summary->services_generated;
  MoiraContext::SetCellInternal(servers, service.row, "inprogress", Value(int64_t{0}));
}

void Dcm::JournalGenerate(const ServiceRow& service, const DcmServiceConfig& config,
                          UnixTime now, DcmRunSummary* summary) {
  Table* servers = mc_->servers();
  MoiraContext& gen = GenContext();
  const int64_t rows_before = DbRowsExamined(gen);
  const uint64_t last_gen = static_cast<uint64_t>(
      MoiraContext::IntCell(servers, service.row, "last_gen_seq"));
  const uint64_t high = pass_high_seq_;

  // Advances the consumed-journal marker (and dfgen when fresh files were
  // staged, so hosts become due).
  auto advance = [&](bool bump_dfgen) {
    if (bump_dfgen) {
      MoiraContext::SetCellInternal(servers, service.row, "dfgen", Value(now));
    }
    MoiraContext::SetCellInternal(servers, service.row, "dfcheck", Value(now));
    MoiraContext::SetCellInternal(servers, service.row, "last_gen_seq",
                                  Value(static_cast<int64_t>(high)));
  };

  auto skip_pass = [&] {
    advance(/*bump_dfgen=*/false);
    ++summary->services_no_change;
    ++summary->services_delta_skipped;
  };

  // Full regeneration: first pass, truncated journal, unbounded mutation
  // reach, or a patch build that could not complete.  Clears the patch state
  // so every host takes the full archive.
  auto full_regen = [&](bool truncated) {
    patch_state_.erase(service.name);
    ++summary->full_regens;
    if (truncated) {
      ++summary->truncation_fallbacks;
    }
    GeneratorResult result;
    int32_t code = config.generator(gen, &result);
    if (code != MR_SUCCESS) {
      MoiraContext::SetCellInternal(servers, service.row, "harderror",
                                    Value(int64_t{code}));
      MoiraContext::SetCellInternal(servers, service.row, "errmsg",
                                    Value(ErrorMessage(code)));
      ReportHardError("generator " + service.name, ErrorMessage(code));
      ++summary->generation_hard_errors;
      return;
    }
    summary->files_generated += CountDistinctFiles(result);
    staged_[service.name] = std::move(result);
    advance(/*bump_dfgen=*/true);
    ++summary->services_generated;
  };

  auto run = [&] {
    if (!staged_.contains(service.name)) {
      // First journal-mode pass (or a restarted DCM): no staged base to
      // patch against.
      full_regen(/*truncated=*/false);
      return;
    }
    if (journal_->base_seq() > last_gen) {
      // Entries (last_gen, base_seq] were pruned past a checkpoint: the
      // delta cannot be reconstructed, so regenerate — never ship a gapped
      // patch (same contract as the replica snapshot fallback).
      full_regen(/*truncated=*/true);
      return;
    }
    if (high <= last_gen) {
      skip_pass();
      return;
    }
    std::vector<JournalEntry> entries = journal_->EntriesFromSeq(last_gen + 1);
    while (!entries.empty() && entries.back().seq > high) {
      entries.pop_back();  // appended after this pass's high-water snapshot
    }
    summary->journal_entries_examined += static_cast<int64_t>(entries.size());
    DeltaPlan plan = ExtractDeltaPlan(gen, entries);
    if (plan.FullFor(service.name)) {
      full_regen(/*truncated=*/false);
      return;
    }
    if (config.delta_affected ? !config.delta_affected(plan) : plan.entries == 0) {
      skip_pass();
      return;
    }

    GeneratorResult& staged = staged_[service.name];
    std::set<std::string> old_machines;
    for (const auto& [machine, archive] : staged.per_host) {
      old_machines.insert(machine);
    }
    ServicePatch sp;
    GeneratorResult fresh;
    bool have_fresh = false;
    if (config.patch_builder) {
      if (config.patch_builder(gen, plan, staged, &sp) != MR_SUCCESS) {
        full_regen(/*truncated=*/false);
        return;
      }
    } else {
      // No keyed builder: regenerate and diff, shipping only changed members.
      if (config.generator(gen, &fresh) != MR_SUCCESS) {
        full_regen(/*truncated=*/false);
        return;
      }
      sp = DiffResults(staged, fresh);
      have_fresh = true;
    }

    PatchState ps;
    ps.base_dfgen = MoiraContext::IntCell(servers, service.row, "dfgen");
    ps.script = PatchScript(config.script);
    int total_files = 0;
    // The edits resolved in this pass, emptied when the pass ends.
    EditMemo memo;
    ArchivePatch common_patch;
    if (!ResolveEdits(sp.common, config.script, &staged.common, &common_patch, &memo)) {
      full_regen(/*truncated=*/false);
      return;
    }
    if (!common_patch.empty()) {
      total_files += static_cast<int>(common_patch.size());
      ps.per_host[""] =
          HostPatch{common_patch.Serialize(), static_cast<int>(common_patch.size())};
    }
    for (const auto& [machine, edits] : sp.per_host) {
      auto archive_it = staged.per_host.find(machine);
      if (archive_it == staged.per_host.end()) {
        full_regen(/*truncated=*/false);
        return;
      }
      ArchivePatch host_patch;
      if (!ResolveEdits(edits, config.script, &archive_it->second, &host_patch, &memo)) {
        full_regen(/*truncated=*/false);
        return;
      }
      if (!host_patch.empty()) {
        total_files += static_cast<int>(host_patch.size());
        ps.per_host[machine] =
            HostPatch{host_patch.Serialize(), static_cast<int>(host_patch.size())};
      }
    }
    if (have_fresh) {
      staged_[service.name] = std::move(fresh);
    }
    if (total_files == 0) {
      // Every recomputed block matched the staged bytes: the mutations had
      // no effect on this service's files.
      skip_pass();
      return;
    }
    // Hosts whose per-host archive was untouched this pass still need their
    // lts bumped; they get an empty (verify-nothing) patch.
    std::string empty_patch = ArchivePatch().Serialize();
    for (const std::string& machine : old_machines) {
      if (!ps.per_host.contains(machine)) {
        ps.per_host[machine] = HostPatch{empty_patch, 0};
      }
    }
    patch_state_[service.name] = std::move(ps);
    advance(/*bump_dfgen=*/true);
    summary->files_generated += total_files;
    ++summary->services_generated;
    ++summary->services_patched;
  };
  run();
  ChargeGenerationRows(gen, rows_before, summary);
}

void Dcm::HostScanPhase(const ServiceRow& service, DcmRunSummary* summary) {
  auto staged_it = staged_.find(service.name);
  if (staged_it == staged_.end()) {
    // Nothing staged (e.g. the DCM restarted): regenerate on demand without
    // touching dfgen so host due-ness is preserved.  In journal mode
    // last_gen_seq is also left alone — the staged files simply reflect a
    // state at least as new, which idempotent keyed recomputes tolerate.
    auto config_it = configs_.find(service.name);
    MoiraContext& gen = GenContext();
    const int64_t rows_before = DbRowsExamined(gen);
    GeneratorResult result;
    int32_t code = config_it->second.generator(gen, &result);
    ChargeGenerationRows(gen, rows_before, summary);
    if (code != MR_SUCCESS) {
      return;
    }
    staged_it = staged_.emplace(service.name, std::move(result)).first;
  }
  // Replicated services are locked exclusively during the host scan; unique
  // services share the lock (paper section 5.7.1).
  LockManager::Mode mode = service.type == "REPLICAT" ? LockManager::Mode::kExclusive
                                                      : LockManager::Mode::kShared;
  ScopedLock service_lock(&locks_, "service:" + service.name, mode);
  if (!service_lock.held()) {
    return;
  }
  Table* servers = mc_->servers();
  Table* sh = mc_->serverhosts();
  const UnixTime dfgen = MoiraContext::IntCell(servers, service.row, "dfgen");
  // The patch staged for this service, if its last generating pass was
  // incremental.
  const PatchState* patch_state = nullptr;
  if (journal_ != nullptr) {
    auto ps_it = patch_state_.find(service.name);
    if (ps_it != patch_state_.end()) {
      patch_state = &ps_it->second;
    }
  }
  // A host needs an update when it is eligible (enabled, no standing hard
  // error) and either stale — last success predates the current data files
  // (lts < dfgen) — or explicitly forced via the override flag.  Both arms
  // are planned predicates rather than opaque in-loop checks, so the planner
  // picks the most selective index for each; Rows() is storage-ordered and
  // deduplicated, so the two arms merge with a set union.
  auto eligible = [&] {
    return From(sh)
        .WhereEq("service", Value(service.name))
        .WhereGe("enable", Value(int64_t{1}))
        .WhereEq("hosterror", Value(int64_t{0}));
  };
  std::vector<size_t> stale = eligible().WhereLt("lts", Value(dfgen)).Rows();
  std::vector<size_t> forced = eligible().WhereGe("override", Value(int64_t{1})).Rows();
  std::vector<size_t> host_rows;
  host_rows.reserve(stale.size() + forced.size());
  std::set_union(stale.begin(), stale.end(), forced.begin(), forced.end(),
                 std::back_inserter(host_rows));
  bool replicated_halt = false;
  for (size_t row : host_rows) {
    if (replicated_halt) {
      break;
    }
    RowRef mach = mc_->ExactOne(mc_->machine(), "mach_id",
                                Value(MoiraContext::IntCell(sh, row, "mach_id")),
                                MR_MACHINE);
    if (mach.code != MR_SUCCESS) {
      continue;
    }
    const std::string& machine_name =
        MoiraContext::StrCell(mc_->machine(), mach.row, "name");
    ScopedLock host_lock(&locks_, "host:" + machine_name, LockManager::Mode::kExclusive);
    if (!host_lock.held()) {
      continue;
    }
    // Circuit breaker: an open breaker quarantines the host — skipped
    // outright, consuming zero update attempts — until its cool-down
    // expires, after which one half-open probe attempt decides whether to
    // close it again.
    bool half_open_probe = false;
    if (resilience_.enabled) {
      int64_t breaker = MoiraContext::IntCell(sh, row, "breaker");
      if (breaker == kBreakerOpen) {
        if (mc_->Now() < MoiraContext::IntCell(sh, row, "breaker_until")) {
          ++summary->breaker_skips;
          continue;
        }
        MoiraContext::SetCellInternal(sh, row, "breaker", Value(kBreakerHalfOpen));
        half_open_probe = true;
      } else if (breaker == kBreakerHalfOpen) {
        // A previous DCM died mid-probe; probe again rather than trust it.
        half_open_probe = true;
      }
    }
    MoiraContext::SetCellInternal(sh, row, "inprogress", Value(int64_t{1}));
    const UnixTime now = mc_->Now();
    MoiraContext::SetCellInternal(sh, row, "ltt", Value(now));
    const Archive& archive = staged_it->second.ForHost(machine_name);
    // Patch eligibility: the host installed the previous payload (lts at
    // least the patch's base dfgen) and is not explicitly forced.  Forced
    // hosts and stragglers receive the full archive.
    const HostPatch* host_patch = nullptr;
    if (patch_state != nullptr &&
        MoiraContext::IntCell(sh, row, "override") == 0 &&
        MoiraContext::IntCell(sh, row, "lts") >= patch_state->base_dfgen) {
      auto hp_it = patch_state->per_host.find(machine_name);
      if (hp_it == patch_state->per_host.end()) {
        hp_it = patch_state->per_host.find("");
      }
      if (hp_it != patch_state->per_host.end()) {
        host_patch = &hp_it->second;
      }
    }
    bool use_patch = host_patch != nullptr;
    std::string payload = use_patch ? host_patch->bytes : archive.Serialize();
    UpdateOutcome outcome;
    if (hosts_->down()) {
      // Hesiod outage: the machine cannot be resolved right now.  That is a
      // transient directory failure, not a missing serverhosts entry — defer
      // softly instead of hard-failing the host.
      ++summary->directory_outages;
      outcome = UpdateOutcome{MR_UPDATE_CONN, /*hard=*/false,
                              "directory server unreachable", 0, 0, UpdatePhase::kNone};
    } else {
      outcome = update_client_.Update(
          hosts_->Find(machine_name), service.target, payload,
          use_patch ? patch_state->script : configs_[service.name].script,
          /*single_attempt=*/half_open_probe);
      if (outcome.code == MR_UPDATE_PATCH && use_patch) {
        // The host's installed base did not match the patch (missed pass,
        // torn write, manual edit): reship the full archive in the same pass
        // so it self-heals instead of drifting.
        ++summary->patch_fallbacks;
        use_patch = false;
        payload = archive.Serialize();
        outcome = update_client_.Update(hosts_->Find(machine_name), service.target,
                                        payload, configs_[service.name].script,
                                        /*single_attempt=*/half_open_probe);
      }
    }
    if (outcome.attempts > 1) {
      summary->host_retries += outcome.attempts - 1;
    }
    if (outcome.code == MR_UPDATE_TIMEOUT) {
      ++summary->update_timeouts;
    }
    if (outcome.code == MR_SUCCESS) {
      MoiraContext::SetCellInternal(sh, row, "success", Value(int64_t{1}));
      MoiraContext::SetCellInternal(sh, row, "lts", Value(now));
      MoiraContext::SetCellInternal(sh, row, "override", Value(int64_t{0}));
      MoiraContext::SetCellInternal(sh, row, "hosterrmsg", Value(""));
      MoiraContext::SetCellInternal(sh, row, "consec_soft", Value(int64_t{0}));
      if (MoiraContext::IntCell(sh, row, "breaker") != kBreakerClosed) {
        MoiraContext::SetCellInternal(sh, row, "breaker", Value(kBreakerClosed));
        MoiraContext::SetCellInternal(sh, row, "breaker_until", Value(int64_t{0}));
      }
      if (half_open_probe) {
        ++summary->probe_successes;
      }
      ++summary->hosts_updated;
      if (use_patch) {
        ++summary->patch_ships;
        summary->propagations += host_patch->files;
      } else {
        summary->propagations += static_cast<int>(archive.size());
      }
      summary->bytes_propagated += static_cast<int64_t>(payload.size());
    } else if (!outcome.hard) {
      // Soft failure: record the message, retry on a later pass.
      MoiraContext::SetCellInternal(sh, row, "success", Value(int64_t{0}));
      MoiraContext::SetCellInternal(sh, row, "hosterrmsg", Value(outcome.message));
      ++summary->host_soft_failures;
      const int64_t consec = MoiraContext::IntCell(sh, row, "consec_soft") + 1;
      MoiraContext::SetCellInternal(sh, row, "consec_soft", Value(consec));
      if (resilience_.enabled) {
        // In-pass backoffs may have advanced the clock; the cool-down starts
        // from when the attempt actually ended.
        const UnixTime after = mc_->Now();
        if (half_open_probe) {
          MoiraContext::SetCellInternal(sh, row, "breaker", Value(kBreakerOpen));
          MoiraContext::SetCellInternal(sh, row, "breaker_until",
                                        Value(after + resilience_.breaker_cooldown));
          ++summary->probe_failures;
        } else if (consec >= resilience_.breaker_threshold) {
          MoiraContext::SetCellInternal(sh, row, "breaker", Value(kBreakerOpen));
          MoiraContext::SetCellInternal(sh, row, "breaker_until",
                                        Value(after + resilience_.breaker_cooldown));
          MoiraContext::SetCellInternal(
              sh, row, "breaker_opens",
              Value(MoiraContext::IntCell(sh, row, "breaker_opens") + 1));
          ++summary->breaker_opens;
          // Escalate once per quarantine, not once per skipped pass.
          ReportHardError("quarantine " + service.name + "/" + machine_name,
                          outcome.message + " (" + std::to_string(consec) +
                              " consecutive soft failures)");
        }
      }
    } else {
      // Hard failure: record, notify via zephyr and mail, and for a
      // replicated service stop updating its other hosts.
      MoiraContext::SetCellInternal(sh, row, "success", Value(int64_t{0}));
      MoiraContext::SetCellInternal(sh, row, "hosterror", Value(int64_t{outcome.code}));
      MoiraContext::SetCellInternal(sh, row, "hosterrmsg", Value(outcome.message));
      ReportHardError("update " + service.name + "/" + machine_name, outcome.message);
      zephyr_->Send("MAIL", "moira-maintainers", "dcm",
                    "update failed hard: " + service.name + "/" + machine_name);
      ++summary->host_hard_failures;
      if (service.type == "REPLICAT") {
        MoiraContext::SetCellInternal(servers, service.row, "harderror",
                              Value(int64_t{outcome.code}));
        MoiraContext::SetCellInternal(servers, service.row, "errmsg", Value(outcome.message));
        replicated_halt = true;
      }
    }
    MoiraContext::SetCellInternal(sh, row, "inprogress", Value(int64_t{0}));
  }
}

DcmRunSummary Dcm::RunOnce() {
  DcmRunSummary summary;
  // Disable file and dcm_enable state variable (paper section 5.7.1).
  if (nodcm_) {
    return summary;
  }
  int64_t dcm_enable = 0;
  if (mc_->GetValue("dcm_enable", &dcm_enable) != MR_SUCCESS || dcm_enable == 0) {
    return summary;
  }
  summary.ran = true;
  // Journal mode: fix the pass's high-water seq, and try to bring the read
  // replica (if any) up to it so generation reads can be offloaded.  All
  // writes (dfgen/lts/last_gen_seq bookkeeping) stay on the primary.
  pass_high_seq_ = journal_ != nullptr ? journal_->last_seq() : 0;
  read_source_ok_ = journal_ != nullptr && read_mc_ != nullptr &&
                    catch_up_ && catch_up_(pass_high_seq_);
  Table* servers = mc_->servers();
  std::vector<ServiceRow> services;
  From(servers).Emit([&](const std::vector<size_t>& rows) {
    size_t row = rows[0];
    ServiceRow service;
    service.row = row;
    service.name = MoiraContext::StrCell(servers, row, "name");
    service.interval_minutes = MoiraContext::IntCell(servers, row, "update_int");
    service.target = MoiraContext::StrCell(servers, row, "target_file");
    service.dfgen = MoiraContext::IntCell(servers, row, "dfgen");
    service.dfcheck = MoiraContext::IntCell(servers, row, "dfcheck");
    service.type = MoiraContext::StrCell(servers, row, "type");
    service.enable = MoiraContext::IntCell(servers, row, "enable") != 0;
    service.harderror = MoiraContext::IntCell(servers, row, "harderror") != 0;
    services.push_back(std::move(service));
  });
  for (const ServiceRow& service : services) {
    // Qualify: enabled, no hard errors, non-zero interval, generator exists.
    if (!service.enable || service.harderror || service.interval_minutes <= 0 ||
        !configs_.contains(service.name)) {
      continue;
    }
    ++summary.services_considered;
    if (GenerationDue(service)) {
      GeneratePhase(service, &summary);
    }
    // The hosts are scanned for every qualified service, regardless of
    // whether it was time to build data files (paper section 5.7.1).
    ServiceRow refreshed = service;
    refreshed.dfgen = MoiraContext::IntCell(servers, service.row, "dfgen");
    if (MoiraContext::IntCell(servers, service.row, "harderror") != 0) {
      continue;  // generation just failed hard
    }
    HostScanPhase(refreshed, &summary);
  }
  return summary;
}

void ConfigureStandardServices(Dcm* dcm) {
  // HESIOD: 11 .db files extracted one at a time and swapped in atomically,
  // then the name server is killed and restarted to reload them.
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
      DcmServiceConfig{GenerateHesiod,
                       {kUsersTable, kMachineTable, kClusterTable, kMcmapTable, kSvcTable,
                        kListTable, kMembersTable, kFilesysTable, kPrintcapTable,
                        kServicesTable, kServerHostsTable},
                       hesiod_script, BuildHesiodPatch,
                       [](const DeltaPlan& plan) {
                         return !plan.users.empty() || !plan.lists.empty() ||
                                plan.clusters_dirty || plan.filsys_dirty ||
                                plan.printcaps_dirty || plan.services_dirty ||
                                plan.sloc_dirty;
                       }});

  // NFS: partition files and credentials, then the quota/locker script runs.
  dcm->ConfigureService(
      "NFS", DcmServiceConfig{GenerateNfs,
                              {kUsersTable, kListTable, kMembersTable, kFilesysTable,
                               kNfsPhysTable, kNfsQuotaTable, kServerHostsTable},
                              "syncdir /site/moira\nexec update_lockers\n",
                              BuildNfsPatch, [](const DeltaPlan& plan) {
                                return !plan.users.empty() || !plan.quotas.empty();
                              }});

  // SMTP (mail hub): the aliases file is staged but not auto-installed — the
  // mail spool must be disabled during the switchover (paper section 5.8.2).
  dcm->ConfigureService(
      "SMTP", DcmServiceConfig{GenerateMail,
                               {kUsersTable, kListTable, kMembersTable, kMachineTable,
                                kStringsTable},
                               "syncdir /usr/lib/moira.staged\n", BuildMailPatch,
                               [](const DeltaPlan& plan) {
                                 return !plan.users.empty() || !plan.lists.empty();
                               }});

  // ZEPHYR: acl files installed and the servers restarted.
  // No patch builder: journal mode regenerates and diffs the acl files
  // (zephyr class membership expansion is not block-local).
  dcm->ConfigureService(
      "ZEPHYR", DcmServiceConfig{GenerateZephyrAcls,
                                 {kZephyrTable, kListTable, kMembersTable, kUsersTable},
                                 "syncdir /etc/athena/zephyr/acl\nexec restart_zephyrd\n",
                                 nullptr, [](const DeltaPlan& plan) {
                                   return plan.zephyr_dirty;
                                 }});
}

}  // namespace moira
