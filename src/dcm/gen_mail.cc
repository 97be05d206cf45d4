// Mail generator (paper section 5.8.2): the /usr/lib/aliases file (mailing
// lists and post office boxes) and the complete /etc/passwd shipped to the
// mail hub so its finger server knows about everybody.
//
// Both files are keyed on everything before the first ':' (alias name or
// login) and emitted through KeyedFile, one line per record from formatting
// functions the full build and the incremental patch path share, so the
// patch path recomputes single blocks byte-identically.  The full build
// reads each table once (src/dcm/gen_reads.h); the patch path probes for
// its dirty records.
#include <optional>
#include <string_view>

#include "src/common/strutil.h"
#include "src/db/exec.h"
#include "src/dcm/gen_reads.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

constexpr const char* kAliasesHeader =
    "# /usr/lib/aliases - generated by Moira; do not edit by hand.";

// --- per-record lines, shared by the full build and the patch builder ---

// "login: target" for a user whose post office box routes somewhere, else
// "": a POP box routes to login@<machine>.LOCAL when its machine resolves
// (`pop_machine`), an SMTP box to its address (`smtp_box`, the string
// box_id names).
std::string RouteAliasLine(const UserFields& user, std::optional<std::string_view> pop_machine,
                           std::string_view smtp_box) {
  if (user.potype == "POP") {
    if (!pop_machine.has_value()) {
      return "";
    }
    // ATHENA-PO-2.MIT.EDU -> ATHENA-PO-2.LOCAL
    return StrCat({user.login, ": ", user.login, "@",
                   pop_machine->substr(0, pop_machine->find('.')), ".LOCAL\n"});
  }
  if (user.potype == "SMTP" && !smtp_box.empty()) {
    return StrCat({user.login, ": ", smtp_box, "\n"});
  }
  return "";
}

// "owner-name: ace" for a maillist with a USER ace, else "".
std::string OwnerAliasLine(std::string_view list_name, std::string_view acl_type,
                           std::string_view ace_login) {
  if (acl_type != "USER") {
    return "";
  }
  return StrCat({"owner-", list_name, ": ", ace_login, "\n"});
}

// "name: member, member" over a list's direct members: users by login,
// sub-lists by name (sendmail resolves aliases transitively), strings
// verbatim.
std::string ListAliasLine(std::string_view name, const std::vector<std::string_view>& targets) {
  std::string line(name);
  line.append(": ");
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i != 0) {
      line.append(", ");
    }
    line.append(targets[i]);
  }
  line.append("\n");
  return line;
}

// --- the patch builder's probes ---

// A list's alias line, one probe per direct member: an active user's
// login, a sub-list's name, a string's text (any type but USER and LIST
// reads as a string).
std::string ProbedListAliasLine(MoiraContext& mc, size_t list_row) {
  Table* members = mc.members();
  int type_col = members->ColumnIndex("member_type");
  int id_col = members->ColumnIndex("member_id");
  int64_t list_id = MoiraContext::IntCell(mc.list(), list_row, "list_id");
  std::vector<std::string> targets;
  for (size_t m : From(members).WhereEq("list_id", Value(list_id)).Rows()) {
    std::string_view type = members->Cell(m, type_col).AsString();
    int64_t member_id = members->Cell(m, id_col).AsInt();
    if (type == "USER") {
      RowRef user = mc.ExactOne(mc.users(), "users_id", Value(member_id), MR_USER);
      if (user.code == MR_SUCCESS &&
          MoiraContext::IntCell(mc.users(), user.row, "status") == kUserActive) {
        targets.push_back(MoiraContext::StrCell(mc.users(), user.row, "login"));
      }
    } else if (type == "LIST") {
      RowRef sub = mc.ListById(member_id);
      if (sub.code == MR_SUCCESS) {
        targets.push_back(MoiraContext::StrCell(mc.list(), sub.row, "name"));
      }
    } else {
      targets.push_back(mc.StringById(member_id));
    }
  }
  return ListAliasLine(MoiraContext::StrCell(mc.list(), list_row, "name"),
                       std::vector<std::string_view>(targets.begin(), targets.end()));
}

std::string ProbedOwnerAliasLine(MoiraContext& mc, size_t list_row) {
  const std::string acl_type = MoiraContext::StrCell(mc.list(), list_row, "acl_type");
  const std::string ace_login =
      acl_type == "USER"
          ? mc.AceName(acl_type, MoiraContext::IntCell(mc.list(), list_row, "acl_id"))
          : std::string();
  return OwnerAliasLine(MoiraContext::StrCell(mc.list(), list_row, "name"), acl_type,
                        ace_login);
}

std::string ProbedRouteAliasLine(MoiraContext& mc, const UserFields& user) {
  std::optional<std::string_view> pop_machine;
  if (user.potype == "POP") {
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id", Value(user.pop_id), MR_MACHINE);
    if (mach.code == MR_SUCCESS) {
      pop_machine = mc.machine()->Cell(mach.row, mc.machine()->ColumnIndex("name")).AsString();
    }
  }
  const std::string smtp_box = user.potype == "SMTP" ? mc.StringById(user.box_id) : "";
  return RouteAliasLine(user, pop_machine, smtp_box);
}

// The aliases block a bare key owns: a same-named active maillist's line
// (lists come before users in the full build) followed by a same-named
// active user's route line.
std::string AliasBlockFor(MoiraContext& mc, const UserReader& read_user, const std::string& key) {
  std::string block;
  RowRef list = mc.ListByName(key);
  if (list.code == MR_SUCCESS &&
      MoiraContext::IntCell(mc.list(), list.row, "active") != 0 &&
      MoiraContext::IntCell(mc.list(), list.row, "maillist") != 0) {
    block += ProbedListAliasLine(mc, list.row);
  }
  RowRef user_ref = mc.UserByLogin(key);
  if (user_ref.code == MR_SUCCESS) {
    const UserFields user = read_user.Read(user_ref.row);
    if (user.status == kUserActive) {
      block += ProbedRouteAliasLine(mc, user);
    }
  }
  return block;
}

// --- the full build: one read of each table ---

// aliases: every active maillist's owner- and member lines, then every
// active user's route line.
KeyedFile BuildAliases(MoiraContext& mc, const IdRows& users) {
  const IdRows lists(mc.list(), "list_id");
  const ListMembers members(mc.members());
  const IdRows machines(mc.machine(), "mach_id");
  const IdRows strings(mc.strings(), "string_id");
  const Table* list = lists.table();
  const int list_name_col = list->ColumnIndex("name");
  const int active_col = list->ColumnIndex("active");
  const int maillist_col = list->ColumnIndex("maillist");
  const int acl_type_col = list->ColumnIndex("acl_type");
  const int acl_id_col = list->ColumnIndex("acl_id");
  const int list_id_col = list->ColumnIndex("list_id");
  const int login_col = users.table()->ColumnIndex("login");
  const int status_col = users.table()->ColumnIndex("status");
  const int mach_name_col = machines.table()->ColumnIndex("name");
  const int string_col = strings.table()->ColumnIndex("string");

  KeyedFile out(KeyRule::kUpToColon);
  out.AppendPrologue(kAliasesHeader);
  std::vector<std::string_view> targets;
  for (size_t row : lists.rows()) {
    if (list->Cell(row, active_col).AsInt() == 0 || list->Cell(row, maillist_col).AsInt() == 0) {
      continue;
    }
    std::string_view name = list->Cell(row, list_name_col).AsString();
    std::string owner =
        OwnerAliasLine(name, list->Cell(row, acl_type_col).AsString(),
                       users.StrOf(list->Cell(row, acl_id_col).AsInt(), login_col, "???"));
    if (!owner.empty()) {
      out.AppendLine(owner);
    }
    targets.clear();
    for (const ListMembers::Member& member : members.Of(list->Cell(row, list_id_col).AsInt())) {
      if (member.type == ListMembers::Type::kUser) {
        std::optional<size_t> user = users.Find(member.id);
        if (user.has_value() && users.table()->Cell(*user, status_col).AsInt() == kUserActive) {
          targets.push_back(users.table()->Cell(*user, login_col).AsString());
        }
      } else if (member.type == ListMembers::Type::kList) {
        if (std::optional<size_t> sub = lists.Find(member.id); sub.has_value()) {
          targets.push_back(list->Cell(*sub, list_name_col).AsString());
        }
      } else {
        targets.push_back(strings.StrOf(member.id, string_col, ""));
      }
    }
    out.AppendLine(ListAliasLine(name, targets));
  }

  const UserReader read_user(users.table());
  for (size_t row : users.rows()) {
    const UserFields user = read_user.Read(row);
    if (user.status != kUserActive) {
      continue;
    }
    std::optional<std::string_view> pop_machine;
    if (std::optional<size_t> mach = machines.Find(user.pop_id); mach.has_value()) {
      pop_machine = machines.table()->Cell(*mach, mach_name_col).AsString();
    }
    std::string route =
        RouteAliasLine(user, pop_machine, strings.StrOf(user.box_id, string_col, ""));
    if (!route.empty()) {
      out.AppendLine(route);
    }
  }
  return out;
}

KeyedFile BuildPasswd(const IdRows& users) {
  KeyedFile out(KeyRule::kUpToColon);
  const UserReader read_user(users.table());
  for (size_t row : users.rows()) {
    const UserFields user = read_user.Read(row);
    if (user.status == kUserActive) {
      out.AppendLine(PasswdLine(user));
    }
  }
  return out;
}

void Upsert(MemberEdit* edit, std::string key, std::string block) {
  edit->ops.push_back(PatchOp{PatchOp::kUpsert, std::move(key), std::move(block)});
}

void Delete(MemberEdit* edit, std::string key) {
  edit->ops.push_back(PatchOp{PatchOp::kDelete, std::move(key), ""});
}

// Recomputes a bare alias key into an upsert or delete op.
void AliasOpsFor(MoiraContext& mc, const UserReader& read_user, const std::string& key,
                 MemberEdit* edit) {
  std::string block = AliasBlockFor(mc, read_user, key);
  if (block.empty()) {
    Delete(edit, key);
  } else {
    Upsert(edit, key, std::move(block));
  }
}

}  // namespace

int32_t GenerateMail(MoiraContext& mc, GeneratorResult* out) {
  const IdRows users(mc.users(), "users_id");
  out->common.Add("aliases", BuildAliases(mc, users).Serialize());
  out->common.Add("passwd", BuildPasswd(users).Serialize());
  return MR_SUCCESS;
}

int32_t BuildMailPatch(MoiraContext& mc, const DeltaPlan& plan,
                       const GeneratorResult& staged, ServicePatch* out) {
  (void)staged;
  MemberEdit& aliases = out->common["aliases"];
  aliases.rule = KeyRule::kUpToColon;
  MemberEdit& passwd = out->common["passwd"];
  passwd.rule = KeyRule::kUpToColon;

  const UserReader read_user(mc.users());
  for (const std::string& login : plan.users) {
    RowRef user = mc.UserByLogin(login);
    if (user.code != MR_SUCCESS) {
      return user.code;
    }
    AliasOpsFor(mc, read_user, login, &aliases);
    const UserFields fields = read_user.Read(user.row);
    if (fields.status == kUserActive) {
      Upsert(&passwd, login, PasswdLine(fields) + "\n");
    } else {
      Delete(&passwd, login);
    }
  }

  for (const std::string& name : plan.lists) {
    RowRef list = mc.ListByName(name);
    if (list.code != MR_SUCCESS) {
      return list.code;
    }
    AliasOpsFor(mc, read_user, name, &aliases);
    std::string owner;
    if (MoiraContext::IntCell(mc.list(), list.row, "active") != 0 &&
        MoiraContext::IntCell(mc.list(), list.row, "maillist") != 0) {
      owner = ProbedOwnerAliasLine(mc, list.row);
    }
    if (owner.empty()) {
      Delete(&aliases, "owner-" + name);
    } else {
      Upsert(&aliases, "owner-" + name, std::move(owner));
    }
  }

  for (auto it = out->common.begin(); it != out->common.end();) {
    it = (it->second.ops.empty() && !it->second.replace) ? out->common.erase(it)
                                                         : std::next(it);
  }
  return MR_SUCCESS;
}

}  // namespace moira
