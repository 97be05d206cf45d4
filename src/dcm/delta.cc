#include "src/dcm/delta.h"

#include "src/db/exec.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

// Marks a login dirty.  Missing users escalate to a full regeneration: the
// entry range says the login was touched, but the row is gone (or renamed)
// and the reach of its old blocks cannot be reconstructed.
void DirtyUser(MoiraContext& mc, DeltaPlan* plan, const std::string& login) {
  if (mc.UserByLogin(login).code == MR_SUCCESS) {
    plan->users.insert(login);
  } else {
    plan->full_all = true;
  }
}

// Marks every login in a list's (post-state) expansion dirty — the users
// whose group closures changed when the list gained or lost a member.
void DirtyListExpansion(MoiraContext& mc, DeltaPlan* plan,
                        const std::string& list_name) {
  RowRef list = mc.ListByName(list_name);
  if (list.code != MR_SUCCESS) {
    plan->full_all = true;
    return;
  }
  int64_t list_id = MoiraContext::IntCell(mc.list(), list.row, "list_id");
  for (const std::string& login :
       ExpandListToUserLogins(mc, list_id, /*active_only=*/true)) {
    if (mc.UserByLogin(login).code == MR_SUCCESS) {
      plan->users.insert(login);
    }
  }
}

// Lists whose alias line carries this user as a *direct* member (a status
// flip adds or removes the login from those lines).
void DirtyDirectLists(MoiraContext& mc, DeltaPlan* plan,
                      const std::string& login) {
  RowRef user = mc.UserByLogin(login);
  if (user.code != MR_SUCCESS) {
    plan->full_all = true;
    return;
  }
  int64_t users_id = MoiraContext::IntCell(mc.users(), user.row, "users_id");
  Table* members = mc.members();
  int list_col = members->ColumnIndex("list_id");
  for (size_t row : From(members)
                        .WhereEq("member_type", Value("USER"))
                        .WhereEq("member_id", Value(users_id))
                        .Rows()) {
    RowRef list = mc.ListById(members->Cell(row, list_col).AsInt());
    if (list.code == MR_SUCCESS) {
      plan->lists.insert(MoiraContext::StrCell(mc.list(), list.row, "name"));
    }
  }
}

void ApplyEntry(MoiraContext& mc, const JournalEntry& entry, DeltaPlan* plan) {
  const std::string& q = entry.query;
  const std::vector<std::string>& args = entry.args;
  auto arg = [&args](size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i < args.size() ? args[i] : kEmpty;
  };

  // --- user-keyed mutations: recompute that login's blocks ---
  if (q == "add_user" || q == "update_user_shell" ||
      q == "update_finger_by_login" || q == "set_pobox" ||
      q == "set_pobox_pop" || q == "delete_pobox") {
    DirtyUser(mc, plan, arg(0));
    return;
  }
  if (q == "update_user_status") {
    // The login's own blocks, the alias lines of lists carrying it directly,
    // and every expansion-based ACL.
    DirtyUser(mc, plan, arg(0));
    DirtyDirectLists(mc, plan, arg(0));
    plan->zephyr_dirty = true;
    return;
  }

  // --- list/membership mutations ---
  if (q == "add_list") {
    plan->lists.insert(arg(0));
    return;
  }
  if (q == "add_member_to_list" || q == "delete_member_from_list") {
    plan->lists.insert(arg(0));
    plan->zephyr_dirty = true;
    if (arg(1) == "USER") {
      DirtyUser(mc, plan, arg(2));
    } else if (arg(1) == "LIST") {
      DirtyListExpansion(mc, plan, arg(2));
    }
    // STRING members only appear verbatim on the list's own alias line.
    return;
  }

  // --- quota mutations: recompute one (filesystem, login) block ---
  if (q == "add_nfs_quota" || q == "update_nfs_quota" ||
      q == "delete_nfs_quota" || q == "set_quota_limits") {
    plan->quotas.emplace(arg(0), arg(1));
    plan->quota_state_dirty = true;
    return;
  }

  // --- quota accounting: no generated-file footprint (the shipped .quotas
  // files carry only the hard limits), but the sweep's idle-skip cares ---
  if (q == "report_quota_usage") {
    plan->quota_state_dirty = true;
    return;
  }
  if (q == "process_quota_sweep") {
    return;  // flag/counter bookkeeping only
  }

  // --- dirty-file rebuilds (small or rarely-touched members) ---
  if (q == "add_cluster" || q == "update_cluster" || q == "delete_cluster" ||
      q == "add_cluster_data" || q == "delete_cluster_data" ||
      q == "add_machine_to_cluster" || q == "delete_machine_from_cluster") {
    plan->clusters_dirty = true;
    return;
  }
  if (q == "add_printcap" || q == "delete_printcap") {
    plan->printcaps_dirty = true;
    return;
  }
  if (q == "add_service" || q == "delete_service") {
    plan->services_dirty = true;
    return;
  }
  if (q == "add_zephyr_class" || q == "update_zephyr_class" ||
      q == "delete_zephyr_class") {
    plan->zephyr_dirty = true;
    return;
  }

  // --- filesystem topology: full NFS regen, hesiod filsys.db rebuild ---
  if (q == "add_filesys" || q == "update_filesys" || q == "delete_filesys" ||
      q == "add_nfsphys" || q == "update_nfsphys" || q == "delete_nfsphys") {
    plan->full_services.insert("NFS");
    plan->filsys_dirty = true;
    return;
  }

  // --- serverhost topology: sloc.db + which hosts get which NFS files ---
  if (q == "add_server_host_info" || q == "update_server_host_info" ||
      q == "delete_server_host_info") {
    plan->sloc_dirty = true;
    plan->full_services.insert("NFS");
    return;
  }

  // --- mutations with no generated-file footprint ---
  if (q == "adjust_nfsphys_allocation" || q == "add_machine" ||
      q == "add_server_info" || q == "update_server_info" ||
      q == "delete_server_info" || q == "reset_server_error" ||
      q == "set_server_internal_flags" || q == "set_server_host_override" ||
      q == "set_server_host_internal" || q == "reset_server_host_error" ||
      q == "add_server_host_access" || q == "update_server_host_access" ||
      q == "delete_server_host_access" || q == "trigger_dcm" ||
      q == "add_alias" || q == "delete_alias" || q == "add_value" ||
      q == "update_value" || q == "delete_value") {
    return;
  }

  // Renames, deletes with cascades, uid/gid changes, registration (which
  // fans out to pobox + filesys + quota), and anything unrecognized: the old
  // blocks' reach cannot be bounded after the fact.
  plan->full_all = true;
}

}  // namespace

DeltaPlan ExtractDeltaPlan(MoiraContext& mc,
                           const std::vector<JournalEntry>& entries) {
  DeltaPlan plan;
  plan.entries = entries.size();
  for (const JournalEntry& entry : entries) {
    if (plan.full_all) {
      break;  // nothing left to refine
    }
    ApplyEntry(mc, entry, &plan);
  }
  return plan;
}

int32_t ExecuteJournaled(MoiraContext& mc, Journal* journal,
                         std::string_view principal, std::string_view client,
                         std::string_view query,
                         const std::vector<std::string>& args,
                         const TupleSink& emit) {
  const QueryRegistry& registry = QueryRegistry::Instance();
  int32_t code = registry.Execute(mc, principal, client, query, args, emit);
  const QueryDef* def = registry.Find(query);
  if (code == MR_SUCCESS && def != nullptr &&
      def->qclass != QueryClass::kRetrieve && journal != nullptr) {
    journal->Append(JournalEntry{0, mc.Now(), std::string(principal),
                                 std::string(client), std::string(def->name),
                                 args});
  }
  return code;
}

}  // namespace moira
