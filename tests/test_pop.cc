// Tests for the post office substrate and the inc client: the complete mail
// path from the mailhub aliases file to a user's workstation.
#include "src/dcm/dcm.h"
#include "src/dcm/generators.h"
#include "src/mailhub/mailhub.h"
#include "src/mailhub/pop_server.h"
#include "src/sim/population.h"
#include "src/zephyrd/zephyr_bus.h"
#include "tests/test_env.h"

namespace moira {
namespace {

TEST(PopServer, DepositRetrieveDrainsBox) {
  PopServerSim po("ATHENA-PO-1.MIT.EDU");
  EXPECT_EQ(0u, po.waiting("babette"));
  po.Deposit("babette", "msg one");
  po.Deposit("babette", "msg two");
  EXPECT_EQ(2u, po.waiting("babette"));
  std::vector<std::string> mail = po.Retrieve("babette");
  ASSERT_EQ(2u, mail.size());
  EXPECT_EQ("msg one", mail[0]);
  EXPECT_EQ(0u, po.waiting("babette"));
  EXPECT_TRUE(po.Retrieve("babette").empty());
}

TEST(PopDirectory, RoutesLocalAddressesByShortName) {
  PopServerSim po1("ATHENA-PO-1.MIT.EDU");
  PopServerSim po2("ATHENA-PO-2.MIT.EDU");
  PopDirectory directory;
  directory.Register(&po1);
  directory.Register(&po2);
  EXPECT_TRUE(directory.DeliverLocal("babette@ATHENA-PO-2.LOCAL", "hi"));
  EXPECT_EQ(1u, po2.waiting("babette"));
  EXPECT_EQ(0u, po1.waiting("babette"));
  EXPECT_FALSE(directory.DeliverLocal("x@ATHENA-PO-9.LOCAL", "hi"));
  EXPECT_FALSE(directory.DeliverLocal("x@other.edu", "hi"));
  EXPECT_FALSE(directory.DeliverLocal("no-at-sign", "hi"));
}

class MailLoopTest : public MoiraEnv {
 protected:
  void SetUp() override {
    SiteBuilder builder(mc_.get(), realm_.get());
    builder.Build(TestSiteSpec());
    logins_ = builder.active_logins();
    pop_names_ = builder.pop_server_names();
    ZephyrBus zephyr(&clock_);
    hosts_ = CreateSimHosts(*mc_, realm_.get(), &directory_);
    Dcm dcm(mc_.get(), realm_.get(), &zephyr, &directory_);
    ConfigureStandardServices(&dcm);
    clock_.Advance(kSecondsPerDay);
    dcm.RunOnce();
    // Mailhub live, hesiod loaded, post offices up.
    mailhub_ = std::make_unique<MailhubSim>(directory_.Find("ATHENA.MIT.EDU"));
    ASSERT_GT(mailhub_->InstallStagedAliases(), 0);
    GeneratorResult hesiod_files;
    ASSERT_EQ(MR_SUCCESS, GenerateHesiod(*mc_, &hesiod_files));
    for (const auto& [name, contents] : hesiod_files.common.members()) {
      ASSERT_GE(hesiod_.LoadDb(*contents), 0);
    }
    protocol_ = std::make_unique<HesiodProtocolServer>(&hesiod_);
    resolver_ = std::make_unique<HesiodResolver>(
        [this](std::string_view packet) { return protocol_->HandleQuery(packet); });
    for (const std::string& name : pop_names_) {
      pop_servers_.push_back(std::make_unique<PopServerSim>(name));
      pops_.Register(pop_servers_.back().get());
    }
  }

  std::vector<std::string> logins_;
  std::vector<std::string> pop_names_;
  HostDirectory directory_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::unique_ptr<MailhubSim> mailhub_;
  HesiodServer hesiod_;
  std::unique_ptr<HesiodProtocolServer> protocol_;
  std::unique_ptr<HesiodResolver> resolver_;
  std::vector<std::unique_ptr<PopServerSim>> pop_servers_;
  PopDirectory pops_;
};

TEST_F(MailLoopTest, MailReachesTheRightPostOffice) {
  const std::string& login = logins_[0];
  std::vector<std::string> route = mailhub_->Route(login);
  ASSERT_EQ(1u, route.size());
  ASSERT_TRUE(pops_.DeliverLocal(route[0], "hello from the hub"));
  // Exactly one post office holds the message, and it is the one Moira
  // assigned (visible through hesiod's pobox record).
  std::vector<std::string> pobox = hesiod_.Resolve(login, "pobox");
  ASSERT_EQ(1u, pobox.size());
  int holding = 0;
  for (const auto& po : pop_servers_) {
    if (po->waiting(login) > 0) {
      ++holding;
      EXPECT_NE(pobox[0].find(po->name()), std::string::npos);
    }
  }
  EXPECT_EQ(1, holding);
}

TEST_F(MailLoopTest, IncFetchesViaHesiod) {
  const std::string& login = logins_[1];
  std::vector<std::string> route = mailhub_->Route(login);
  ASSERT_EQ(1u, route.size());
  ASSERT_TRUE(pops_.DeliverLocal(route[0], "note 1"));
  ASSERT_TRUE(pops_.DeliverLocal(route[0], "note 2"));
  std::vector<std::string> messages;
  ASSERT_EQ(MR_SUCCESS, IncFetchMail(*resolver_, pops_, login, &messages));
  ASSERT_EQ(2u, messages.size());
  EXPECT_EQ("note 1", messages[0]);
  // The box drains.
  ASSERT_EQ(MR_SUCCESS, IncFetchMail(*resolver_, pops_, login, &messages));
  EXPECT_TRUE(messages.empty());
}

TEST_F(MailLoopTest, IncForUnknownUserFails) {
  std::vector<std::string> messages;
  EXPECT_EQ(MR_NO_POBOX, IncFetchMail(*resolver_, pops_, "stranger", &messages));
}

TEST_F(MailLoopTest, MaillistFansOutToMemberBoxes) {
  // Deliver to a mailing list through the hub; each member's post office
  // receives a copy addressed to them.
  std::vector<Tuple> members;
  ASSERT_EQ(MR_SUCCESS, RunRoot("get_members_of_list", {"ml-2"}, &members));
  std::vector<std::string> route = mailhub_->Route("ml-2");
  ASSERT_GE(route.size(), 1u);
  int delivered = 0;
  for (const std::string& address : route) {
    if (pops_.DeliverLocal(address, "list traffic")) {
      ++delivered;
    }
  }
  EXPECT_EQ(static_cast<int>(route.size()), delivered);
}

}  // namespace
}  // namespace moira
