// TCP transport integration: the poll(2)-multiplexed server of paper section
// 5.4 serving real localhost connections.  Each TcpTest pumps the server on
// its own thread while the test thread plays the clients, so this suite is
// the TSan smoke set (scripts/check.sh --tsan-smoke).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "src/client/client.h"
#include "src/net/tcp.h"
#include "src/server/server.h"
#include "tests/test_env.h"

namespace moira {
namespace {

// Forwards everything to the MoiraServer and records the size of each
// round's batch (written on the pump thread, read on the test thread).
class RoundRecorder : public MessageHandler {
 public:
  explicit RoundRecorder(MessageHandler* inner) : inner_(inner) {}

  std::string OnMessage(uint64_t conn_id, std::string_view payload) override {
    return inner_->OnMessage(conn_id, payload);
  }
  void OnMessageBatch(std::vector<BatchItem>* batch) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      round_sizes_.push_back(batch->size());
    }
    inner_->OnMessageBatch(batch);
  }
  void OnConnect(uint64_t conn_id, std::string peer) override {
    inner_->OnConnect(conn_id, std::move(peer));
  }
  void OnDisconnect(uint64_t conn_id) override { inner_->OnDisconnect(conn_id); }

  std::vector<size_t> round_sizes() {
    std::lock_guard<std::mutex> lock(mu_);
    return round_sizes_;
  }

 private:
  MessageHandler* inner_;
  std::mutex mu_;
  std::vector<size_t> round_sizes_;
};

class TcpTest : public MoiraEnv {
 protected:
  void SetUp() override {
    moira_server_ = std::make_unique<MoiraServer>(mc_.get(), realm_.get());
    recorder_ = std::make_unique<RoundRecorder>(moira_server_.get());
    tcp_server_ = std::make_unique<TcpServer>(recorder_.get());
    int32_t listen_code = tcp_server_->Listen(0);
    if (listen_code != MR_SUCCESS) {
      GTEST_SKIP() << "cannot listen on localhost: " << listen_code;
    }
    AddActiveUser("tcpuser", 100);
    realm_->AddPrincipal("tcpuser", "pw");
    pump_ = std::thread([this] {
      while (!stop_.load()) {
        tcp_server_->Poll(10);
      }
    });
  }

  void TearDown() override {
    if (pump_.joinable()) {
      stop_.store(true);
      pump_.join();
    }
  }

  MrClient MakeClient() {
    return MrClient([this]() -> std::unique_ptr<ClientChannel> {
      auto channel = std::make_unique<TcpChannel>();
      if (channel->Connect(tcp_server_->port()) != MR_SUCCESS) {
        return nullptr;
      }
      return channel;
    });
  }

  std::unique_ptr<MoiraServer> moira_server_;
  std::unique_ptr<RoundRecorder> recorder_;
  std::unique_ptr<TcpServer> tcp_server_;
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

TEST_F(TcpTest, NoopOverRealSockets) {
  MrClient client = MakeClient();
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  EXPECT_EQ(MR_SUCCESS, client.Noop());
  EXPECT_EQ(MR_SUCCESS, client.Disconnect());
}

TEST_F(TcpTest, AuthenticatedQueryOverTcp) {
  MrClient client = MakeClient();
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  client.SetKerberosIdentity(realm_.get(), "tcpuser", "pw");
  ASSERT_EQ(MR_SUCCESS, client.Auth("tcptest"));
  EXPECT_EQ(MR_SUCCESS,
            client.Query("update_user_shell", {"tcpuser", "/bin/tcp"}, [](Tuple) {}));
  std::vector<Tuple> tuples;
  EXPECT_EQ(MR_SUCCESS, client.Query("get_user_by_login", {"tcpuser"}, [&](Tuple t) {
    tuples.push_back(std::move(t));
  }));
  ASSERT_EQ(1u, tuples.size());
  EXPECT_EQ("/bin/tcp", tuples[0][2]);
}

TEST_F(TcpTest, LargeResultStreamsCompletely) {
  // SUN RPC was rejected for not handling large return values (paper section
  // 5.4); verify a bulk retrieval streams fully over TCP.
  for (int i = 0; i < 300; ++i) {
    AddActiveUser("bulk" + std::to_string(i), 1000 + i);
  }
  MrClient client = MakeClient();
  ASSERT_EQ(MR_SUCCESS, client.Connect());
  int count = 0;
  EXPECT_EQ(MR_SUCCESS, client.Query("get_all_logins", {}, [&](Tuple) { ++count; }));
  EXPECT_EQ(301, count);
}

TEST_F(TcpTest, MultipleSimultaneousConnections) {
  std::vector<MrClient> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(MakeClient());
    ASSERT_EQ(MR_SUCCESS, clients.back().Connect());
  }
  for (MrClient& client : clients) {
    EXPECT_EQ(MR_SUCCESS, client.Noop());
  }
  for (MrClient& client : clients) {
    int count = 0;
    EXPECT_EQ(MR_SUCCESS, client.Query("get_all_logins", {}, [&](Tuple) { ++count; }));
    EXPECT_EQ(1, count);
  }
}

TEST_F(TcpTest, RepliesKeepPerConnectionOrder) {
  // Public lists: get_list_info on them is world_ok, so unauthenticated
  // connections get each list's tuple back.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(MR_SUCCESS, RunRoot("add_list", {"pub" + std::to_string(i), "1", "1", "0",
                                               "0", "0", "-1", "NONE", "NONE", "list"}));
  }
  // Each connection writes its whole run of requests at once, so a poll
  // round holds several of its frames.
  const std::vector<std::vector<std::string>> asked = {
      {"pub0", "pub2", "pub4", "pub6", "pub1"},
      {"pub7", "pub5", "pub3", "pub1", "pub6"},
  };
  std::vector<std::unique_ptr<TcpChannel>> conns;
  for (size_t c = 0; c < asked.size(); ++c) {
    conns.push_back(std::make_unique<TcpChannel>());
    ASSERT_EQ(MR_SUCCESS, conns.back()->Connect(tcp_server_->port()));
  }
  const int64_t requests_before = moira_server_->stats().requests;
  int64_t sent = 0;
  for (size_t c = 0; c < asked.size(); ++c) {
    std::string frames;
    for (const std::string& list : asked[c]) {
      frames += EncodeRequest(MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                                        {"get_list_info", list}});
      ++sent;
    }
    ASSERT_EQ(MR_SUCCESS, conns[c]->Send(frames));
  }
  // Watch the request counter from this thread while the pump thread bumps
  // it: the race StatCounter exists to make safe.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (moira_server_->stats().requests.load() < requests_before + sent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(requests_before + sent, moira_server_->stats().requests.load());

  for (size_t c = 0; c < asked.size(); ++c) {
    std::vector<std::string> answered;
    for (size_t r = 0; r < asked[c].size(); ++r) {
      while (true) {
        std::string payload;
        ASSERT_EQ(MR_SUCCESS, conns[c]->Recv(&payload));
        std::optional<MrReply> reply = DecodeReply(payload);
        ASSERT_TRUE(reply.has_value());
        if (reply->code != MR_MORE_DATA) {
          EXPECT_EQ(MR_SUCCESS, reply->code);
          break;
        }
        ASSERT_FALSE(reply->fields.empty());
        answered.push_back(reply->fields[0]);
      }
    }
    EXPECT_EQ(asked[c], answered) << "connection " << c;
  }
  std::vector<size_t> rounds = recorder_->round_sizes();
  ASSERT_FALSE(rounds.empty());
  EXPECT_GT(*std::max_element(rounds.begin(), rounds.end()), 1u)
      << "no round carried more than one frame";
}

// Transport-level handler for the limit tests: acknowledges every payload.
class TransportOnlyHandler : public MessageHandler {
 public:
  std::string OnMessage(uint64_t, std::string_view) override {
    return EncodeReply(MrReply{kMrProtocolVersion, MR_SUCCESS, {}});
  }
  void OnDisconnect(uint64_t) override { ++disconnects; }
  int disconnects = 0;
};

TEST(TcpServerLimits, IdleConnectionsSweptOnInjectedClock) {
  SimulatedClock clock(1000);
  TransportOnlyHandler handler;
  TcpServer server(&handler, &clock);
  server.set_idle_timeout(30);
  ASSERT_EQ(MR_SUCCESS, server.Listen(0));
  TcpChannel conn;
  ASSERT_EQ(MR_SUCCESS, conn.Connect(server.port()));
  for (int i = 0; i < 500 && server.connection_count() < 1; ++i) {
    server.Poll(10);
  }
  ASSERT_EQ(1u, server.connection_count());
  // Traffic within the window refreshes the idle clock.
  clock.Advance(20);
  ASSERT_EQ(MR_SUCCESS, conn.Send(EncodeRequest(MrRequest{})));
  std::string payload;
  for (int i = 0; i < 10; ++i) {
    server.Poll(10);
  }
  ASSERT_EQ(MR_SUCCESS, conn.Recv(&payload));
  clock.Advance(20);  // 20s since the last bytes arrived: still under 30
  server.Poll(10);
  EXPECT_EQ(1u, server.connection_count());
  clock.Advance(31);  // now 51s idle: over the limit
  server.Poll(10);
  EXPECT_EQ(0u, server.connection_count());
  EXPECT_EQ(1, server.idle_closes());
  EXPECT_EQ(1, handler.disconnects);
  // The idled client observes an orderly EOF.
  EXPECT_EQ(MR_ABORTED, conn.Recv(&payload));
}

TEST(TcpServerLimits, ExcessConnectionsShedGracefully) {
  TransportOnlyHandler handler;
  TcpServer server(&handler);
  server.set_max_connections(2);
  ASSERT_EQ(MR_SUCCESS, server.Listen(0));
  TcpChannel a, b, c;
  ASSERT_EQ(MR_SUCCESS, a.Connect(server.port()));
  ASSERT_EQ(MR_SUCCESS, b.Connect(server.port()));
  for (int i = 0; i < 500 && server.connection_count() < 2; ++i) {
    server.Poll(10);
  }
  ASSERT_EQ(2u, server.connection_count());
  // The kernel accepts the third into the backlog; the server sheds it.
  ASSERT_EQ(MR_SUCCESS, c.Connect(server.port()));
  for (int i = 0; i < 500 && server.shed_connections() < 1; ++i) {
    server.Poll(10);
  }
  EXPECT_EQ(1, server.shed_connections());
  EXPECT_EQ(2u, server.connection_count());
  // The shed client sees an orderly EOF, not a hang.
  std::string payload;
  EXPECT_EQ(MR_ABORTED, c.Recv(&payload));
  // Survivors keep working.
  ASSERT_EQ(MR_SUCCESS, a.Send(EncodeRequest(MrRequest{})));
  for (int i = 0; i < 10; ++i) {
    server.Poll(10);
  }
  EXPECT_EQ(MR_SUCCESS, a.Recv(&payload));
}

TEST_F(TcpTest, ServerSurvivesAbruptClientClose) {
  {
    MrClient client = MakeClient();
    ASSERT_EQ(MR_SUCCESS, client.Connect());
    ASSERT_EQ(MR_SUCCESS, client.Noop());
    // Client destructor closes the socket without a goodbye.
  }
  MrClient fresh = MakeClient();
  ASSERT_EQ(MR_SUCCESS, fresh.Connect());
  EXPECT_EQ(MR_SUCCESS, fresh.Noop());
}

}  // namespace
}  // namespace moira
