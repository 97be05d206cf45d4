// Mail generator (paper section 5.8.2): the /usr/lib/aliases file (mailing
// lists and post office boxes) and the complete /etc/passwd shipped to the
// mail hub so its finger server knows about everybody.
//
// Both files are keyed on everything before the first ':' (alias name or
// login) and emitted through KeyedFile, so the incremental patch path can
// recompute single blocks byte-identically.
#include "src/common/strutil.h"
#include "src/db/exec.h"
#include "src/dcm/generators.h"

namespace moira {
namespace {

constexpr const char* kAliasesHeader =
    "# /usr/lib/aliases - generated by Moira; do not edit by hand.";

// Post office box target for an active user: login@<pop-machine>.LOCAL.
std::string PoboxTarget(MoiraContext& mc, size_t user_row) {
  const Table* users = mc.users();
  const std::string& potype = MoiraContext::StrCell(users, user_row, "potype");
  const std::string& login = MoiraContext::StrCell(users, user_row, "login");
  if (potype == "POP") {
    RowRef mach = mc.ExactOne(mc.machine(), "mach_id",
                              Value(MoiraContext::IntCell(users, user_row, "pop_id")),
                              MR_MACHINE);
    if (mach.code != MR_SUCCESS) {
      return "";
    }
    std::string machine = MoiraContext::StrCell(mc.machine(), mach.row, "name");
    // ATHENA-PO-2.MIT.EDU -> ATHENA-PO-2.LOCAL
    size_t dot = machine.find('.');
    return login + "@" + machine.substr(0, dot) + ".LOCAL";
  }
  if (potype == "SMTP") {
    return mc.StringById(MoiraContext::IntCell(users, user_row, "box_id"));
  }
  return "";
}

// "owner-name: ace" for an active maillist with a USER ace, else "".
std::string OwnerAliasLine(MoiraContext& mc, size_t list_row) {
  Table* lists = mc.list();
  const std::string& ace_type = MoiraContext::StrCell(lists, list_row, "acl_type");
  if (ace_type != "USER") {
    return "";
  }
  return "owner-" + MoiraContext::StrCell(lists, list_row, "name") + ": " +
         mc.AceName(ace_type, MoiraContext::IntCell(lists, list_row, "acl_id")) + "\n";
}

// "name: member, member" over the list's direct members; sub-lists appear by
// name (sendmail resolves aliases transitively), strings verbatim.
std::string ListAliasLine(MoiraContext& mc, size_t list_row) {
  Table* lists = mc.list();
  Table* members = mc.members();
  int type_col = members->ColumnIndex("member_type");
  int id_col = members->ColumnIndex("member_id");
  int64_t list_id = MoiraContext::IntCell(lists, list_row, "list_id");
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
  return MoiraContext::StrCell(lists, list_row, "name") + ": " + Join(targets, ", ") +
         "\n";
}

// "login: target" for an active user with a resolvable pobox, else "".
std::string RouteAliasLine(MoiraContext& mc, size_t user_row) {
  std::string target = PoboxTarget(mc, user_row);
  if (target.empty()) {
    return "";
  }
  return MoiraContext::StrCell(mc.users(), user_row, "login") + ": " + target + "\n";
}

// The aliases block a bare key owns: a same-named active maillist's line
// (lists are scanned before users in the full build) followed by a
// same-named active user's route line.
std::string AliasBlockFor(MoiraContext& mc, const std::string& key) {
  std::string block;
  RowRef list = mc.ListByName(key);
  if (list.code == MR_SUCCESS &&
      MoiraContext::IntCell(mc.list(), list.row, "active") != 0 &&
      MoiraContext::IntCell(mc.list(), list.row, "maillist") != 0) {
    block += ListAliasLine(mc, list.row);
  }
  RowRef user = mc.UserByLogin(key);
  if (user.code == MR_SUCCESS &&
      MoiraContext::IntCell(mc.users(), user.row, "status") == kUserActive) {
    block += RouteAliasLine(mc, user.row);
  }
  return block;
}

KeyedFile BuildAliases(MoiraContext& mc) {
  KeyedFile out(KeyRule::kUpToColon);
  out.AppendPrologue(kAliasesHeader);
  // Mailing lists marked active, with owner- aliases for USER aces.
  Table* lists = mc.list();
  From(lists)
      .WhereNe("active", Value(int64_t{0}))
      .WhereNe("maillist", Value(int64_t{0}))
      .Emit([&](const std::vector<size_t>& lrows) {
        std::string owner = OwnerAliasLine(mc, lrows[0]);
        if (!owner.empty()) {
          out.AppendLine(owner);
        }
        out.AppendLine(ListAliasLine(mc, lrows[0]));
      });
  // Pobox routing entries for active users.
  Table* users = mc.users();
  From(users)
      .WhereEq("status", Value(int64_t{kUserActive}))
      .Emit([&](const std::vector<size_t>& rows) {
        std::string route = RouteAliasLine(mc, rows[0]);
        if (!route.empty()) {
          out.AppendLine(route);
        }
      });
  return out;
}

KeyedFile BuildPasswd(MoiraContext& mc) {
  KeyedFile out(KeyRule::kUpToColon);
  Table* users = mc.users();
  From(users)
      .WhereEq("status", Value(int64_t{kUserActive}))
      .Emit([&](const std::vector<size_t>& rows) {
        out.AppendLine(PasswdLine(mc, rows[0]));
      });
  return out;
}

void Upsert(MemberEdit* edit, std::string key, std::string block) {
  edit->ops.push_back(PatchOp{PatchOp::kUpsert, std::move(key), std::move(block)});
}

void Delete(MemberEdit* edit, std::string key) {
  edit->ops.push_back(PatchOp{PatchOp::kDelete, std::move(key), ""});
}

// Recomputes a bare alias key into an upsert or delete op.
void AliasOpsFor(MoiraContext& mc, const std::string& key, MemberEdit* edit) {
  std::string block = AliasBlockFor(mc, key);
  if (block.empty()) {
    Delete(edit, key);
  } else {
    Upsert(edit, key, std::move(block));
  }
}

}  // namespace

int32_t GenerateMail(MoiraContext& mc, GeneratorResult* out) {
  out->common.Add("aliases", BuildAliases(mc).Serialize());
  out->common.Add("passwd", BuildPasswd(mc).Serialize());
  return MR_SUCCESS;
}

int32_t BuildMailPatch(MoiraContext& mc, const DeltaPlan& plan,
                       const GeneratorResult& staged, ServicePatch* out) {
  (void)staged;
  MemberEdit& aliases = out->common["aliases"];
  aliases.rule = KeyRule::kUpToColon;
  MemberEdit& passwd = out->common["passwd"];
  passwd.rule = KeyRule::kUpToColon;

  for (const std::string& login : plan.users) {
    RowRef user = mc.UserByLogin(login);
    if (user.code != MR_SUCCESS) {
      return user.code;
    }
    AliasOpsFor(mc, login, &aliases);
    if (MoiraContext::IntCell(mc.users(), user.row, "status") == kUserActive) {
      Upsert(&passwd, login, PasswdLine(mc, user.row) + "\n");
    } else {
      Delete(&passwd, login);
    }
  }

  for (const std::string& name : plan.lists) {
    RowRef list = mc.ListByName(name);
    if (list.code != MR_SUCCESS) {
      return list.code;
    }
    AliasOpsFor(mc, name, &aliases);
    std::string owner;
    if (MoiraContext::IntCell(mc.list(), list.row, "active") != 0 &&
        MoiraContext::IntCell(mc.list(), list.row, "maillist") != 0) {
      owner = OwnerAliasLine(mc, list.row);
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
