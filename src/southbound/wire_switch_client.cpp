#include "southbound/wire_switch_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace legosdn::southbound {

WireSwitchClient::WireSwitchClient(EventLoop& loop, Config cfg, DowncallFn downcall)
    : loop_(loop), cfg_(std::move(cfg)), downcall_(std::move(downcall)) {}

WireSwitchClient::~WireSwitchClient() { disconnect(); }

Status WireSwitchClient::connect(const std::string& addr, std::uint16_t port) {
  disconnect();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error{Error::Code::kIo, "socket: " + std::string(strerror(errno))};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  ::sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return Error{Error::Code::kParse, "bad address " + addr};
  }
  const int rc = ::connect(fd, reinterpret_cast<::sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return Error{Error::Code::kIo, "connect: " + std::string(strerror(err))};
  }
  conn_ = std::make_unique<OFConnection>(fd, cfg_.limits);
  connecting_ = rc != 0;
  // While connecting, EPOLLOUT signals completion; after that, reads drive.
  loop_.add(fd, connecting_ ? EPOLLOUT : (EPOLLIN | EPOLLRDHUP),
            [this](std::uint32_t events) { on_io(events); });
  return Status::success();
}

void WireSwitchClient::disconnect() {
  if (!conn_) return;
  loop_.remove(conn_->fd());
  conn_->close();
  teardown();
}

void WireSwitchClient::teardown() {
  conn_.reset();
  connecting_ = false;
  ready_ = false;
  want_writable_ = false;
}

bool WireSwitchClient::send(const of::Message& msg) {
  if (!conn_ || conn_->closed()) return false;
  enqueue(msg);
  service_out();
  return true;
}

void WireSwitchClient::enqueue(const of::Message& msg) {
  conn_->enqueue(of::wire10::encode(msg));
  stats_.frames_out += 1;
}

void WireSwitchClient::service_out() {
  if (!conn_ || conn_->closed() || connecting_) return;
  if (conn_->pending_out() > 0 &&
      conn_->flush() == OFConnection::IoStatus::kError) {
    disconnect();
    return;
  }
  const bool want = conn_->pending_out() > 0;
  if (want != want_writable_) {
    want_writable_ = want;
    loop_.modify(conn_->fd(),
                 EPOLLIN | EPOLLRDHUP | (want ? std::uint32_t{EPOLLOUT} : 0U));
  }
}

void WireSwitchClient::on_io(std::uint32_t events) {
  if (!conn_) return;
  if (connecting_) {
    int err = 0;
    ::socklen_t len = sizeof(err);
    ::getsockopt(conn_->fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLHUP | EPOLLERR))) {
      disconnect();
      return;
    }
    connecting_ = false;
    loop_.modify(conn_->fd(), EPOLLIN | EPOLLRDHUP);
    service_out(); // anything queued while the connect was in flight
    return;
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    disconnect();
    return;
  }
  if (events & EPOLLOUT) service_out();
  if (!conn_) return;
  if (events & (EPOLLIN | EPOLLRDHUP)) {
    const auto st = conn_->read_frames(
        [this](std::span<const std::uint8_t> f) { handle_frame(f); });
    if (!conn_) return; // a downcall disconnected us
    if (st == OFConnection::IoStatus::kPeerClosed ||
        st == OFConnection::IoStatus::kError ||
        st == OFConnection::IoStatus::kProtocol) {
      disconnect();
      return;
    }
    service_out();
  }
}

void WireSwitchClient::handle_frame(std::span<const std::uint8_t> frame) {
  auto decoded = of::wire10::decode(frame, cfg_.dpid);
  stats_.frames_in += 1;
  if (!decoded) {
    stats_.decode_errors += 1;
    return;
  }
  of::Message msg = std::move(decoded).value();

  if (msg.is<of::Hello>()) {
    // Answer the controller's HELLO with ours; version agreement is implicit
    // (both sides only speak 0x01).
    enqueue({next_xid_++, of::Hello{}});
    return;
  }
  if (msg.is<of::FeaturesRequest>()) {
    of::FeaturesReply reply = cfg_.features;
    reply.dpid = cfg_.dpid;
    enqueue({msg.xid, std::move(reply)});
    ready_ = true;
    return;
  }
  if (const auto* er = msg.get_if<of::EchoRequest>()) {
    enqueue({msg.xid, of::EchoReply{er->payload}});
    stats_.echo_replies += 1;
    return;
  }
  if (msg.is<of::EchoReply>()) return;

  stats_.downcalls += 1;
  if (downcall_) downcall_(msg);
}

} // namespace legosdn::southbound
