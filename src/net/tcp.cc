#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "src/comerr/moira_errors.h"

namespace moira {
namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

TcpServer::TcpServer(MessageHandler* handler, const Clock* clock)
    : handler_(handler), clock_(clock) {}

TcpServer::~TcpServer() { Stop(); }

int32_t TcpServer::Listen(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return errno;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);
  return MR_SUCCESS;
}

void TcpServer::Stop() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [conn_id, conn] : connections_) {
    ::close(conn.fd);
    handler_->OnDisconnect(conn_id);
  }
  connections_.clear();
}

void TcpServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  ::close(it->second.fd);
  connections_.erase(it);
  handler_->OnDisconnect(conn_id);
}

void TcpServer::SweepIdleConnections() {
  if (clock_ == nullptr || idle_timeout_ <= 0) {
    return;
  }
  const UnixTime now = clock_->Now();
  std::vector<uint64_t> stale;
  for (const auto& [conn_id, conn] : connections_) {
    if (now - conn.last_activity > idle_timeout_) {
      stale.push_back(conn_id);
    }
  }
  for (uint64_t conn_id : stale) {
    FlushWrites(conn_id);  // drain any pending reply before hanging up
    CloseConnection(conn_id);
    ++idle_closes_;
  }
}

void TcpServer::FlushWrites(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  Connection& conn = it->second;
  while (conn.out_consumed < conn.outbound.size()) {
    ssize_t n = ::send(conn.fd, conn.outbound.data() + conn.out_consumed,
                       conn.outbound.size() - conn.out_consumed, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_consumed += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // try again on the next poll round
    }
    CloseConnection(conn_id);
    return;
  }
  if (conn.out_consumed == conn.outbound.size()) {
    conn.outbound.clear();
    conn.out_consumed = 0;
  }
}

int TcpServer::Poll(int timeout_ms) {
  if (listen_fd_ < 0) {
    return -1;
  }
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  ids.push_back(0);
  for (const auto& [conn_id, conn] : connections_) {
    short events = POLLIN;
    if (conn.out_consumed < conn.outbound.size()) {
      events |= POLLOUT;
    }
    fds.push_back(pollfd{conn.fd, events, 0});
    ids.push_back(conn_id);
  }
  int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  // Idle connections produce no poll events, so the sweep must run even on a
  // timeout round.
  SweepIdleConnections();
  if (ready <= 0) {
    return ready;
  }
  int handled = 0;
  // Accept new connections.
  if ((fds[0].revents & POLLIN) != 0) {
    while (true) {
      sockaddr_in peer{};
      socklen_t len = sizeof(peer);
      int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
      if (fd < 0) {
        break;
      }
      if (max_connections_ != 0 && connections_.size() >= max_connections_) {
        // Shed gracefully: the client sees an orderly EOF instead of hanging
        // in the listen backlog behind a full server.
        ::close(fd);
        ++shed_connections_;
        ++handled;
        continue;
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      uint64_t conn_id = next_conn_id_++;
      char ip[INET_ADDRSTRLEN] = {0};
      ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
      std::string peer_name = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
      connections_[conn_id] =
          Connection{fd, FrameReader(), "", 0, peer_name,
                     clock_ != nullptr ? clock_->Now() : 0};
      handler_->OnConnect(conn_id, peer_name);
      ++handled;
    }
  }
  // Drain every readable connection first, collecting complete frames into
  // one batch, then hand the handler the whole round in one OnMessageBatch
  // call, so it sees where a round ends.  Replies are written back in batch
  // order, so each connection sees its replies in the order it sent the
  // requests.
  std::vector<MessageHandler::BatchItem> batch;
  struct Drained {
    uint64_t conn_id;
    bool close_after;
  };
  std::vector<Drained> drained;
  for (size_t i = 1; i < fds.size(); ++i) {
    uint64_t conn_id = ids[i];
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      continue;
    }
    if ((fds[i].revents & (POLLERR | POLLHUP)) != 0 && (fds[i].revents & POLLIN) == 0) {
      CloseConnection(conn_id);
      ++handled;
      continue;
    }
    bool close_after = false;
    if ((fds[i].revents & POLLIN) != 0) {
      char buf[16384];
      bool closed = false;
      while (true) {
        ssize_t n = ::recv(it->second.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          it->second.reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
          if (clock_ != nullptr) {
            it->second.last_activity = clock_->Now();
          }
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        closed = true;
        break;
      }
      while (std::optional<std::string> payload = it->second.reader.Next()) {
        batch.push_back(MessageHandler::BatchItem{conn_id, std::move(*payload), {}});
      }
      close_after = it->second.reader.corrupt() || closed;
      ++handled;
    }
    drained.push_back(Drained{conn_id, close_after});
  }
  if (!batch.empty()) {
    handler_->OnMessageBatch(&batch);
    for (MessageHandler::BatchItem& item : batch) {
      if (auto it = connections_.find(item.conn_id); it != connections_.end()) {
        it->second.outbound += item.reply;
      }
    }
  }
  for (const Drained& d : drained) {
    FlushWrites(d.conn_id);
    if (d.close_after) {
      CloseConnection(d.conn_id);
    }
  }
  return handled;
}

TcpChannel::~TcpChannel() { Close(); }

int32_t TcpChannel::Connect(uint16_t port) {
  if (fd_ >= 0) {
    return MR_ALREADY_CONNECTED;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return errno;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    Close();
    return err;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return MR_SUCCESS;
}

void TcpChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int32_t TcpChannel::Send(std::string_view framed) {
  if (fd_ < 0) {
    return MR_NOT_CONNECTED;
  }
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return MR_ABORTED;
    }
    sent += static_cast<size_t>(n);
  }
  return MR_SUCCESS;
}

int32_t TcpChannel::Recv(std::string* payload) {
  if (fd_ < 0) {
    return MR_NOT_CONNECTED;
  }
  while (true) {
    if (std::optional<std::string> next = reader_.Next()) {
      *payload = std::move(*next);
      return MR_SUCCESS;
    }
    if (reader_.corrupt()) {
      return MR_ABORTED;
    }
    char buf[16384];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      return MR_ABORTED;
    }
    reader_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

}  // namespace moira
