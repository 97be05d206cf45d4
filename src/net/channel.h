// Transport abstractions for the Moira RPC layer.
//
// The paper builds its RPC on the GDB library over BSD non-blocking TCP
// (section 5.4).  Here the server consumes framed messages through a
// MessageHandler, pumped either by the poll(2)-based TcpServer or directly by
// the in-process LoopbackChannel (which tests and benches use to run
// hermetically).
#ifndef MOIRA_SRC_NET_CHANNEL_H_
#define MOIRA_SRC_NET_CHANNEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace moira {

// Client side of a message stream.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  // Sends one framed message.  Returns MR_SUCCESS or MR_ABORTED.
  virtual int32_t Send(std::string_view framed) = 0;

  // Receives the next message payload (frame header stripped).  Returns
  // MR_SUCCESS or MR_ABORTED.
  virtual int32_t Recv(std::string* payload) = 0;
};

// Server side: consumes request payloads, returns framed reply bytes (a
// single request may produce several reply frames — tuple streaming).
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;

  virtual std::string OnMessage(uint64_t conn_id, std::string_view payload) = 0;

  // One request collected by a batching transport round.
  struct BatchItem {
    uint64_t conn_id = 0;
    std::string payload;
    std::string reply;  // filled in by OnMessageBatch
  };

  // Processes one transport round's worth of requests, filling each reply.
  // The default runs OnMessage on each item in arrival order, on the calling
  // thread; the transport then writes the replies back in batch order, so
  // each connection gets its replies in the order it sent the requests.  The
  // hook exists for the round boundary, not for concurrency: a decorator can
  // observe it (perfbench counts frames per round), and a group commit
  // would flush the journal once per round.
  virtual void OnMessageBatch(std::vector<BatchItem>* batch) {
    for (BatchItem& item : *batch) {
      item.reply = OnMessage(item.conn_id, item.payload);
    }
  }

  virtual void OnConnect(uint64_t conn_id, std::string peer) {
    (void)conn_id;
    (void)peer;
  }
  virtual void OnDisconnect(uint64_t conn_id) { (void)conn_id; }
};

// In-process channel: Send() synchronously dispatches into the handler and
// queues its replies for Recv().
class LoopbackChannel final : public ClientChannel {
 public:
  explicit LoopbackChannel(MessageHandler* handler);
  ~LoopbackChannel() override;

  int32_t Send(std::string_view framed) override;
  int32_t Recv(std::string* payload) override;

  uint64_t conn_id() const { return conn_id_; }

 private:
  MessageHandler* handler_;
  uint64_t conn_id_;
  std::string inbound_;   // frames queued for Recv
  size_t consumed_ = 0;
};

}  // namespace moira

#endif  // MOIRA_SRC_NET_CHANNEL_H_
