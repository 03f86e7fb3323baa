#include "southbound/of_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace legosdn::southbound {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The server whose poll() this thread is dispatching socket events for.
/// A send() made there (from an event callback, or a dispatcher lane's batch
/// run inline on this thread) lands before the same poll()'s flush sweep.
thread_local const OFServer* t_dispatching = nullptr;

} // namespace

OFServer::OFServer() = default;

OFServer::~OFServer() { close(); }

std::uint64_t OFServer::now_ms() const {
  return cfg_.now_ms ? cfg_.now_ms() : steady_ms();
}

Status OFServer::listen(OFServerConfig cfg, EventFn on_event) {
  if (!loop_.valid()) return Error{Error::Code::kIo, "epoll unavailable"};
  if (listen_fd_ >= 0) return Error{Error::Code::kConflict, "already listening"};
  cfg_ = std::move(cfg);
  on_event_ = std::move(on_event);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error{Error::Code::kIo, "socket: " + std::string(strerror(errno))};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{Error::Code::kParse, "bad bind address " + cfg_.bind_addr};
  }
  if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Error{Error::Code::kIo, "bind: " + std::string(strerror(err))};
  }
  if (::listen(fd, cfg_.backlog) != 0) {
    const int err = errno;
    ::close(fd);
    return Error{Error::Code::kIo, "listen: " + std::string(strerror(err))};
  }
  ::sockaddr_in bound{};
  ::socklen_t blen = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<::sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  last_sweep_ms_ = now_ms();
  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_listen_ready(); });
  return Status::success();
}

void OFServer::on_listen_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return; // EAGAIN or transient accept error: wait for the next wave
    }
    if (conns_.size() >= cfg_.max_connections) {
      ::close(fd);
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.accept_overflow += 1;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (cfg_.sndbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.sndbuf, sizeof(cfg_.sndbuf));

    auto c = std::make_shared<Conn>();
    c->io = std::make_unique<OFConnection>(fd, cfg_.limits);
    c->last_rx_ms = now_ms();
    conns_[fd] = c;
    loop_.add(fd, interest_of(*c),
              [this, fd](std::uint32_t events) { on_conn_io(fd, events); });
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.accepted += 1;
    }
    // Controller speaks first: HELLO opens the version negotiation.
    enqueue_msg(c, {c->next_xid++, of::Hello{}});
    work_ += 1;
  }
}

void OFServer::on_conn_io(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  auto c = it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    disconnect(c, true);
    return;
  }
  if (events & EPOLLOUT) {
    if (!service_out(c)) return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP)) {
    // Wire batching: every complete frame this read pass decodes lands in
    // pending_batch_, delivered as one span per readable socket below.
    const bool batching = static_cast<bool>(on_batch_);
    if (batching) batch_open_ = true;
    const auto st = c->io->read_frames(
        [this, &c](std::span<const std::uint8_t> f) { handle_frame(c, f); });
    work_ += 1;
    if (batching) {
      batch_open_ = false;
      if (!pending_batch_.empty()) {
        std::vector<ctl::Event> batch;
        batch.swap(pending_batch_);
        {
          std::lock_guard<std::mutex> lk(stats_mu_);
          stats_.event_batches += 1;
        }
        on_batch_(std::move(batch));
      }
    }
    if (c->io->closed() || conns_.find(fd) == conns_.end())
      return; // a frame handler tore the connection down
    switch (st) {
      case OFConnection::IoStatus::kOk:
        break;
      case OFConnection::IoStatus::kProtocol: {
        {
          std::lock_guard<std::mutex> lk(stats_mu_);
          stats_.protocol_errors += 1;
        }
        disconnect(c, true);
        return;
      }
      case OFConnection::IoStatus::kPeerClosed:
      case OFConnection::IoStatus::kError:
        disconnect(c, true);
        return;
    }
    service_out(c); // replies enqueued by frame handlers
  }
}

void OFServer::handle_frame(const std::shared_ptr<Conn>& c,
                            std::span<const std::uint8_t> frame) {
  c->last_rx_ms = now_ms();
  auto decoded = of::wire10::decode(frame, c->dpid);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.frames_in += 1;
    if (!decoded) stats_.decode_errors += 1;
  }
  if (!decoded) return; // unknown/garbled message: count it, keep the stream
  of::Message msg = std::move(decoded).value();

  // Liveness messages are state-independent.
  if (const auto* er = msg.get_if<of::EchoRequest>()) {
    enqueue_msg(c, {msg.xid, of::EchoReply{er->payload}});
    return;
  }
  if (msg.is<of::EchoReply>()) {
    c->echo_outstanding = false;
    return;
  }

  switch (c->state) {
    case HandshakeState::kAwaitHello: {
      if (!msg.is<of::Hello>()) {
        // Speaking before HELLO is a protocol violation (OF 1.0 §5.5.1).
        {
          std::lock_guard<std::mutex> lk(stats_mu_);
          stats_.protocol_errors += 1;
        }
        disconnect(c, false);
        return;
      }
      c->state = HandshakeState::kAwaitFeatures;
      enqueue_msg(c, {c->next_xid++, of::FeaturesRequest{}});
      return;
    }
    case HandshakeState::kAwaitFeatures: {
      const auto* fr = msg.get_if<of::FeaturesReply>();
      if (!fr) return; // e.g. retransmitted HELLO; keep waiting
      c->dpid = fr->dpid;
      c->state = HandshakeState::kSteady;
      std::shared_ptr<Conn> old;
      {
        std::lock_guard<std::mutex> lk(route_mu_);
        auto [it, inserted] = by_dpid_.try_emplace(c->dpid, c);
        if (!inserted) {
          old = it->second;
          it->second = c;
        }
        by_dpid_size_ = by_dpid_.size();
      }
      // A reconnecting switch replaces its stale connection (the common
      // takeover after an undetected half-open drop).
      if (old && old != c) disconnect(old, true);
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.handshakes += 1;
        stats_.events_out += 1;
      }
      emit_event(ctl::SwitchUp{c->dpid, *fr});
      return;
    }
    case HandshakeState::kSteady: {
      const bool is_event =
          msg.is<of::PacketIn>() || msg.is<of::PortStatus>() ||
          msg.is<of::FlowRemoved>() || msg.is<of::StatsReply>() ||
          msg.is<of::BarrierReply>() || msg.is<of::OfError>();
      if (!is_event) return; // hello retransmits etc. terminate here
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.events_out += 1;
      }
      std::visit(
          [&](auto&& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, of::PacketIn> ||
                          std::is_same_v<T, of::PortStatus> ||
                          std::is_same_v<T, of::FlowRemoved> ||
                          std::is_same_v<T, of::StatsReply> ||
                          std::is_same_v<T, of::BarrierReply> ||
                          std::is_same_v<T, of::OfError>) {
              emit_event(ctl::Event{std::move(m)});
            }
          },
          std::move(msg.body));
      return;
    }
  }
}

void OFServer::emit_event(ctl::Event e) {
  if (on_batch_) {
    if (batch_open_) {
      pending_batch_.push_back(std::move(e));
      return;
    }
    // Outside a read pass (e.g. idle-timeout SwitchDown from the timer
    // sweep): a batch of one keeps delivery uniform for the consumer.
    std::vector<ctl::Event> one;
    one.push_back(std::move(e));
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.event_batches += 1;
    }
    on_batch_(std::move(one));
    return;
  }
  if (on_event_) on_event_(std::move(e));
}

void OFServer::mark_dirty(const std::shared_ptr<Conn>& c, bool from_loop_thread) {
  bool first_dirty = false;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    if (!c->in_dirty) {
      c->in_dirty = true;
      first_dirty = dirty_.empty();
      dirty_.push_back(c);
    }
  }
  if (from_loop_thread || !first_dirty) return;
  // Cross-thread empty->non-empty transition: the loop may be parked in
  // epoll_wait. One eventfd poke covers every further send until the loop
  // wakes and clears wake_pending_ — repeated transitions within one poll
  // cycle (the sweep empties the list mid-cycle) no longer re-signal.
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.wakeups += 1;
    }
    loop_.wakeup();
  }
}

void OFServer::enqueue_msg(const std::shared_ptr<Conn>& c, const of::Message& msg) {
  c->io->enqueue(of::wire10::encode(msg));
  mark_dirty(c, /*from_loop_thread=*/true);
}

bool OFServer::service_out(const std::shared_ptr<Conn>& c) {
  if (c->io->closed() || conns_.find(c->io->fd()) == conns_.end()) return false;
  const std::size_t before = c->io->pending_out();
  if (before > 0) {
    if (c->io->flush() == OFConnection::IoStatus::kError) {
      disconnect(c, true);
      return false;
    }
    if (c->io->pending_out() < before) work_ += 1;
  }
  update_read_interest(c);
  return true;
}

std::uint32_t OFServer::interest_of(const Conn& c) const {
  std::uint32_t ev = EPOLLRDHUP;
  if (!c.reads_paused) ev |= EPOLLIN;
  if (c.want_writable) ev |= EPOLLOUT;
  return ev;
}

void OFServer::update_read_interest(const std::shared_ptr<Conn>& c) {
  const bool want_writable = c->io->pending_out() > 0;
  bool paused = c->reads_paused;
  if (!paused && c->io->should_pause_reads()) {
    paused = true;
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.reads_paused += 1;
  } else if (paused && c->io->should_resume_reads()) {
    paused = false;
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.reads_resumed += 1;
  }
  if (want_writable != c->want_writable || paused != c->reads_paused) {
    c->want_writable = want_writable;
    c->reads_paused = paused;
    loop_.modify(c->io->fd(), interest_of(*c));
  }
}

bool OFServer::send(DatapathId dpid, const of::Message& msg) {
  std::shared_ptr<Conn> c;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    auto it = by_dpid_.find(dpid);
    if (it != by_dpid_.end()) c = it->second;
  }
  auto drop = [this] {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.sends_dropped += 1;
    return false;
  };
  if (!c || c->io->closed()) return drop();
  if (!c->io->enqueue(of::wire10::encode(msg))) return drop();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.sends += 1;
  }
  // Per-conn buffering until the next flush sweep. From inside this
  // server's socket dispatch, that sweep is still ahead in the same poll()
  // and needs no poke; from any other thread (or later in the pass), at most
  // one eventfd poke per poll cycle (wake_pending_).
  mark_dirty(c, /*from_loop_thread=*/t_dispatching == this);
  return true;
}

void OFServer::wakeup() { loop_.wakeup(); }

int OFServer::poll(int timeout_ms) {
  work_ = 0;
  const OFServer* const outer = std::exchange(t_dispatching, this);
  work_ += loop_.poll(timeout_ms);
  t_dispatching = outer;
  // The loop is awake: the next cross-thread dirty transition needs a fresh
  // poke. Cleared before the sweep so a send landing mid-sweep re-signals.
  wake_pending_.store(false, std::memory_order_release);

  // Coalesced flush sweep: every connection that accumulated outbound
  // frames since the last pass gets one writev. The list is duplicate-free
  // (Conn::in_dirty), so no sort/dedup pass is needed; flags reset under the
  // same lock so a concurrent send() re-dirties for the *next* sweep.
  std::vector<std::shared_ptr<Conn>> dirty;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    dirty.swap(dirty_);
    for (auto& c : dirty) c->in_dirty = false;
  }
  for (auto& c : dirty) service_out(c);

  const std::uint64_t now = now_ms();
  if (now - last_sweep_ms_ >= cfg_.timer_sweep_ms) {
    last_sweep_ms_ = now;
    sweep_timers();
  }
  return work_;
}

void OFServer::sweep_timers() {
  const std::uint64_t now = now_ms();
  std::vector<std::shared_ptr<Conn>> snapshot;
  snapshot.reserve(conns_.size());
  for (auto& [fd, c] : conns_) snapshot.push_back(c);
  for (auto& c : snapshot) {
    if (c->io->closed()) continue;
    const std::uint64_t idle = now - c->last_rx_ms;
    if (cfg_.idle_timeout_ms && idle >= cfg_.idle_timeout_ms) {
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.echo_timeouts += 1;
      }
      disconnect(c, true);
      work_ += 1;
      continue;
    }
    if (cfg_.echo_interval_ms && c->state == HandshakeState::kSteady &&
        !c->echo_outstanding && idle >= cfg_.echo_interval_ms) {
      c->echo_outstanding = true;
      c->echo_sent_ms = now;
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.echo_probes += 1;
      }
      enqueue_msg(c, {c->next_xid++, of::EchoRequest{now}});
      work_ += 1;
    }
  }
}

void OFServer::disconnect(const std::shared_ptr<Conn>& c, bool emit_switch_down) {
  const int fd = c->io->fd();
  auto it = conns_.find(fd);
  if (it == conns_.end() || it->second != c) return; // already gone
  conns_.erase(it);
  loop_.remove(fd);

  bool was_owner = false;
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    auto r = by_dpid_.find(c->dpid);
    if (r != by_dpid_.end() && r->second == c) {
      by_dpid_.erase(r);
      was_owner = true;
    }
    by_dpid_size_ = by_dpid_.size();
  }
  // Fold the connection's I/O counters into the server totals before the
  // OFConnection goes away.
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.disconnects += 1;
    stats_.bytes_in += c->io->stats().bytes_in;
    stats_.bytes_out += c->io->stats().bytes_out;
  }
  c->io->close();
  work_ += 1;
  if (emit_switch_down && was_owner &&
      c->state == HandshakeState::kSteady && (on_event_ || on_batch_)) {
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.events_out += 1;
    }
    emit_event(ctl::SwitchDown{c->dpid});
  }
}

void OFServer::close() {
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(conns_.size());
  for (auto& [fd, c] : conns_) all.push_back(c);
  for (auto& c : all) {
    loop_.remove(c->io->fd());
    c->io->close();
  }
  conns_.clear();
  std::lock_guard<std::mutex> lk(route_mu_);
  by_dpid_.clear();
  by_dpid_size_ = 0;
  dirty_.clear();
}

OFServer::Stats OFServer::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  // Live connections' byte counters (folded in at disconnect otherwise).
  for (const auto& [fd, c] : conns_) {
    s.bytes_in += c->io->stats().bytes_in;
    s.bytes_out += c->io->stats().bytes_out;
  }
  return s;
}

} // namespace legosdn::southbound
