// Parallel reads must match serial execution exactly: the chunked full scan
// on a table's worker pool, concurrent readers of one table, and the
// server's parallel read batches.  Every test here runs on several threads;
// this suite is the TSan smoke set (scripts/check.sh --tsan-smoke).
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/comerr/moira_errors.h"
#include "src/common/clock.h"
#include "src/common/worker_pool.h"
#include "src/core/context.h"
#include "src/core/registry.h"
#include "src/core/schema.h"
#include "src/db/exec.h"
#include "src/krb/kerberos.h"
#include "src/protocol/wire.h"
#include "src/server/server.h"

namespace moira {
namespace {

// One flat table with an indexed id and name, the shape of the hot
// relations' id and name lookups.
struct TableVariant {
  SimulatedClock clock{568000000};
  Database db{&clock};
  Table* t = nullptr;

  TableVariant() {
    t = db.CreateTable(TableSchema{"t",
                                   {{"id", ColumnType::kInt},
                                    {"name", ColumnType::kString},
                                    {"grp", ColumnType::kInt},
                                    {"flags", ColumnType::kInt}}});
    t->CreateIndex("id");
    t->CreateIndex("name");
    t->CreateIndex("grp");
  }
};

TEST(ParallelReadsTest, ParallelScanMatchesSerial) {
  TableVariant serial;
  TableVariant parallel;
  WorkerPool pool(3);
  parallel.db.AttachWorkerPool(&pool);
  std::mt19937 rng(7);
  for (int i = 0; i < 20000; ++i) {
    int64_t id = static_cast<int64_t>(rng() % 100000);
    std::string name = "n" + std::to_string(rng() % 100);
    Row row{id, name, static_cast<int64_t>(rng() % 10),
            static_cast<int64_t>(rng() % 4)};
    serial.t->Append(row);
    parallel.t->Append(std::move(row));
  }
  // 20,000 slots is above the chunked-scan threshold, so the WhereNe full
  // scan runs in chunks on the pool; the index paths stay serial.
  const int64_t scans_before = parallel.t->stats().full_scans;
  EXPECT_EQ(From(serial.t).WhereNe("grp", Value(int64_t{3})).Rows(),
            From(parallel.t).WhereNe("grp", Value(int64_t{3})).Rows());
  EXPECT_EQ(scans_before + 1, parallel.t->stats().full_scans);
  EXPECT_EQ(From(serial.t).WhereEq("name", Value("n42")).Rows(),
            From(parallel.t).WhereEq("name", Value("n42")).Rows());
  EXPECT_EQ(From(serial.t)
                .WhereBetween("id", Value(int64_t{1000}), Value(int64_t{5000}))
                .Rows(),
            From(parallel.t)
                .WhereBetween("id", Value(int64_t{1000}), Value(int64_t{5000}))
                .Rows());

  // Concurrent readers on the same table, some of them scanning on the pool
  // themselves: every reader must see the same answer (this is the
  // read-read race the atomic counters exist for).
  std::vector<size_t> expect_eq =
      From(parallel.t).WhereEq("name", Value("n7")).Rows();
  std::vector<size_t> expect_scan =
      From(parallel.t).WhereNe("grp", Value(int64_t{5})).Rows();
  WorkerPool readers(4);
  std::vector<std::vector<size_t>> got(16);
  readers.ParallelFor(got.size(), [&](size_t i) {
    got[i] = i % 2 == 0 ? From(parallel.t).WhereEq("name", Value("n7")).Rows()
                        : From(parallel.t).WhereNe("grp", Value(int64_t{5})).Rows();
  });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(i % 2 == 0 ? expect_eq : expect_scan, got[i]) << "reader " << i;
  }
}

// --- server parallel read dispatch --------------------------------------

// Extracts the payload OnMessage expects (frame header stripped).
std::string Payload(const MrRequest& request) {
  FrameReader reader;
  reader.Feed(EncodeRequest(request));
  std::optional<std::string> payload = reader.Next();
  EXPECT_TRUE(payload.has_value());
  return payload.value_or(std::string());
}

struct ServerVariant {
  SimulatedClock clock{568000000};
  std::unique_ptr<Database> db;
  std::unique_ptr<MoiraContext> mc;
  std::unique_ptr<KerberosRealm> realm;
  std::unique_ptr<MoiraServer> server;

  explicit ServerVariant(WorkerPool* read_pool) {
    db = std::make_unique<Database>(&clock);
    CreateMoiraSchema(db.get());
    SeedMoiraDefaults(db.get());
    mc = std::make_unique<MoiraContext>(db.get());
    realm = std::make_unique<KerberosRealm>(&clock);
    ServerOptions options;
    options.read_pool = read_pool;
    server = std::make_unique<MoiraServer>(mc.get(), realm.get(), options);
    // Public, visible lists: get_list_info on them is world_ok, so the
    // batch's unauthenticated retrieves return real tuples.
    for (int i = 0; i < 8; ++i) {
      QueryRegistry::Instance().Execute(
          *mc, "root", "seed", "add_list",
          {"pub" + std::to_string(i), "1", "1", "0", "0", "0", "-1", "NONE", "NONE",
           "list " + std::to_string(i)},
          [](Tuple) {});
    }
    for (uint64_t conn = 1; conn <= 4; ++conn) {
      server->OnConnect(conn, "test:" + std::to_string(conn));
    }
  }
};

TEST(ParallelReadsTest, ServerBatchParallelRepliesMatchSerial) {
  WorkerPool pool(3);
  ServerVariant with_pool(&pool);
  ServerVariant without_pool(nullptr);

  // A round mixing parallel-safe retrieves with barrier requests: an
  // unauthorized mutation mid-batch and a server-state query near the end.
  std::vector<MessageHandler::BatchItem> batch;
  auto add = [&](uint64_t conn, MrRequest request) {
    batch.push_back(
        MessageHandler::BatchItem{conn, Payload(request), std::string()});
  };
  for (int i = 0; i < 5; ++i) {
    add(1 + static_cast<uint64_t>(i) % 4,
        MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                  {"get_list_info", "pub" + std::to_string(i)}});
  }
  add(2, MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                   {"add_machine", "box.mit.edu", "VAX"}});
  for (int i = 5; i < 8; ++i) {
    add(1 + static_cast<uint64_t>(i) % 4,
        MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                  {"get_list_info", "pub" + std::to_string(i)}});
  }
  add(3, MrRequest{kMrProtocolVersion, MajorRequest::kQuery, {"_list_users"}});
  add(3, MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                   {"get_list_info", "pub0"}});

  std::vector<MessageHandler::BatchItem> serial_batch = batch;
  with_pool.server->OnMessageBatch(&batch);
  without_pool.server->OnMessageBatch(&serial_batch);
  ASSERT_EQ(serial_batch.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(serial_batch[i].reply, batch[i].reply) << "item " << i;
    EXPECT_FALSE(batch[i].reply.empty()) << "item " << i;
  }
  // The pool server actually dispatched groups in parallel; the serial
  // server never did.
  EXPECT_GE(with_pool.server->stats().parallel_read_batches, 2u);
  EXPECT_GE(with_pool.server->stats().parallel_read_queries, 8u);
  EXPECT_EQ(0u, without_pool.server->stats().parallel_read_batches);
}

TEST(ParallelReadsTest, ServerBatchPreservesPerConnectionOrder) {
  WorkerPool pool(3);
  ServerVariant v(&pool);
  // One connection sends several distinguishable retrieves in one round;
  // replies must come back in send order.
  std::vector<MessageHandler::BatchItem> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(MessageHandler::BatchItem{
        1,
        Payload(MrRequest{kMrProtocolVersion, MajorRequest::kQuery,
                          {"get_list_info", "pub" + std::to_string(i)}}),
        std::string()});
  }
  v.server->OnMessageBatch(&batch);
  for (int i = 0; i < 6; ++i) {
    // Each reply is a tuple stream mentioning the list it asked for.
    EXPECT_NE(std::string::npos, batch[i].reply.find("pub" + std::to_string(i)))
        << "item " << i;
  }
}

}  // namespace
}  // namespace moira
