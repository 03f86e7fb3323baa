#include "appvisor/process_domain.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/log.hpp"

namespace legosdn::appvisor {
namespace {

std::unique_ptr<UdpChannel> make_channel(const FaultSpec& faults) {
  if (faults.enabled()) return std::make_unique<FaultyChannel>(faults);
  return std::make_unique<UdpChannel>();
}

} // namespace

// ---------------------------------------------------------------------------
// Stub (child side)
// ---------------------------------------------------------------------------

void run_stub(ctl::App& app, std::uint16_t proxy_port,
              const ProcessDomain::Config& cfg) {
  // The stub perturbs its own outgoing datagrams too, so fault injection
  // covers both directions of the exchange. Distinct seed: identical fault
  // sequences on both sides would correlate request and reply loss.
  FaultSpec stub_faults = cfg.faults;
  stub_faults.seed = cfg.faults.seed * 0x9E3779B97F4A7C15ULL + 1;
  std::unique_ptr<UdpChannel> chan_owner = make_channel(stub_faults);
  UdpChannel& chan = *chan_owner;
  if (!chan.open()) _exit(70);
  const PeerAddr proxy{0, proxy_port};

  // Register with the proxy: app name + subscriptions.
  RegisterPayload reg{app.name(), app.subscriptions()};
  RpcFrame frame{RpcType::kRegister, 0, encode_register(reg)};
  if (!chan.send_frame(proxy, encode_frame(frame))) _exit(71);

  // Wait for the ack; re-send a few times in case the proxy was not yet
  // in its receive loop (or the register/ack datagram was lost).
  bool acked = false;
  for (int attempt = 0; attempt < 50 && !acked; ++attempt) {
    auto rcv = chan.recv_frame(100);
    if (rcv) {
      auto f = decode_frame(rcv.value().frame);
      if (f && f.value().type == RpcType::kRegisterAck) acked = true;
      continue;
    }
    chan.send_frame(proxy, encode_frame(frame));
  }
  if (!acked) _exit(72);

  // Duplicate suppression: the proxy retransmits a silent request with the
  // same seq. Requests are strictly serialized, so one cached reply is
  // enough — a retransmit of the last handled request replays the cached
  // reply without re-executing the (non-idempotent) handler; anything older
  // was already answered and superseded, so it is dropped.
  std::uint64_t last_seq = 0;
  bool have_reply = false;
  std::vector<std::uint8_t> last_reply_wire;
  auto reply = [&](RpcFrame f) {
    last_seq = f.seq;
    last_reply_wire = encode_frame(f);
    have_reply = true;
    chan.send_frame(proxy, last_reply_wire);
  };

  // The state the proxy's mirror was last synced to, and the seq of the RPC
  // that shipped it (0: nothing shipped since this stub started). A shipped
  // delta is diffed against it and names that seq as its base.
  std::vector<std::uint8_t> shipped;
  std::uint64_t shipped_seq = 0;

  std::uint32_t xid = 1;
  for (;;) {
    auto rcv = chan.recv_frame(cfg.heartbeat_interval_ms);
    if (!rcv) {
      if (rcv.error().code == Error::Code::kTimeout) {
        chan.send_frame(proxy, encode_frame({RpcType::kHeartbeat, 0, {}}));
        continue;
      }
      _exit(73);
    }
    auto fr = decode_frame(rcv.value().frame);
    if (!fr) continue; // malformed; ignore
    const RpcFrame& req = fr.value();
    const bool is_request = req.type == RpcType::kDeliverEvent ||
                            req.type == RpcType::kSnapshotRequest ||
                            req.type == RpcType::kRestoreRequest;
    if (is_request && have_reply) {
      if (req.seq == last_seq) {
        chan.send_frame(proxy, last_reply_wire);
        continue;
      }
      if (req.seq < last_seq) continue; // ancient retransmit; superseded
    }
    switch (req.type) {
      case RpcType::kDeliverEvent: {
        auto del = decode_deliver(req.payload);
        if (!del) {
          chan.send_frame(proxy, encode_frame({RpcType::kCrashNotice, req.seq,
                                               {}}));
          _exit(74);
        }
        EventDonePayload done;
        try {
          CollectingServiceApi api(SimTime{del.value().now_ns}, &xid);
          done.disposition = app.handle_event(del.value().event, api);
          done.emitted = std::move(api).take();
          if (del.value().ship_state) {
            std::vector<std::uint8_t> state = app.snapshot_state();
            done.state = StateDelta{shipped_seq,
                                    static_cast<std::uint32_t>(state.size()),
                                    checkpoint::diff_chunks(shipped, state)};
            shipped = std::move(state);
            shipped_seq = req.seq;
          }
        } catch (const ctl::AppCrash& crash) {
          // Real fail-stop: tell the proxy our last words, then die hard.
          const std::string what = crash.what();
          std::vector<std::uint8_t> payload(what.begin(), what.end());
          chan.send_frame(proxy,
                          encode_frame({RpcType::kCrashNotice, req.seq, payload}));
          _exit(134); // mimic SIGABRT's exit status
        }
        reply({RpcType::kEventDone, req.seq, encode_event_done(done)});
        break;
      }
      case RpcType::kSnapshotRequest: {
        shipped = app.snapshot_state();
        shipped_seq = req.seq;
        reply({RpcType::kSnapshotReply, req.seq, shipped});
        break;
      }
      case RpcType::kRestoreRequest: {
        app.reset();
        app.restore_state(req.payload);
        reply({RpcType::kRestoreAck, req.seq, {}});
        break;
      }
      case RpcType::kShutdown:
        _exit(0);
      default:
        break; // proxy-bound frame types never arrive here
    }
  }
}

// ---------------------------------------------------------------------------
// Proxy (parent side)
// ---------------------------------------------------------------------------

ProcessDomain::ProcessDomain(ctl::AppPtr app, Config cfg)
    : app_(std::move(app)), cfg_(cfg), chan_(make_channel(cfg.faults)) {}

ProcessDomain::~ProcessDomain() { shutdown(); }

Status ProcessDomain::start() {
  if (auto st = chan_->open(); !st) return st;
  return spawn();
}

Status ProcessDomain::spawn() {
  mirror_seq_ = 0; // a new stub has shipped nothing
  const pid_t pid = ::fork();
  if (pid < 0) return Error{Error::Code::kIo, "fork: " + std::string(strerror(errno))};
  if (pid == 0) {
    // Child: drop the proxy's socket, run the stub forever.
    const std::uint16_t proxy_port = chan_->local_port();
    chan_->close();
    run_stub(*app_, proxy_port, cfg_);
    // not reached
  }
  child_pid_ = pid;
  // Handshake: wait for the stub's Register.
  const auto deadline_ms = cfg_.rpc_timeout_ms;
  auto rcv = chan_->recv_frame(deadline_ms);
  while (rcv) {
    auto fr = decode_frame(rcv.value().frame);
    if (fr && fr.value().type == RpcType::kRegister) {
      stub_addr_ = rcv.value().from;
      chan_->send_frame(stub_addr_, encode_frame({RpcType::kRegisterAck, 0, {}}));
      alive_ = true;
      return Status::success();
    }
    rcv = chan_->recv_frame(deadline_ms);
  }
  kill_child();
  return Error{Error::Code::kTimeout, "stub did not register"};
}

bool ProcessDomain::child_exited() {
  if (child_pid_ <= 0) return true;
  int status = 0;
  const pid_t r = ::waitpid(child_pid_, &status, WNOHANG);
  if (r == child_pid_) {
    child_pid_ = -1;
    return true;
  }
  return false;
}

void ProcessDomain::kill_child() {
  if (child_pid_ > 0) {
    ::kill(child_pid_, SIGKILL);
    int status = 0;
    ::waitpid(child_pid_, &status, 0);
    child_pid_ = -1;
  }
  alive_ = false;
}

Result<RpcFrame> ProcessDomain::call(RpcType req, std::span<const std::uint8_t> payload,
                                     RpcType expect, int timeout_ms) {
  if (!alive_ || !stub_addr_.valid())
    return Error{Error::Code::kCrashed, "stub not running"};
  const std::uint64_t seq = next_seq_++;
  const std::vector<std::uint8_t> wire = encode_frame(req, seq, payload);
  tstats_.rpc_calls += 1;
  const auto t0 = std::chrono::steady_clock::now();
  if (auto st = chan_->send_frame(stub_addr_, wire); !st) return st.error();

  const auto deadline = t0 + std::chrono::milliseconds(timeout_ms);
  double attempt_ms = std::max(1, cfg_.retry_initial_timeout_ms);
  auto attempt_deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(attempt_ms));
  int retransmits = 0;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      // Deadline passed with retries exhausted: either the child died or it
      // is wedged. Both are failures from the proxy's perspective; a wedged
      // child is killed. Transport flakes never reach this point — they were
      // absorbed by the retransmits below.
      tstats_.rpc_timeouts += 1;
      tstats_.channel = chan_->stats();
      if (child_exited()) {
        alive_ = false;
        return Error{Error::Code::kCrashed, last_crash_info_.empty()
                                                ? "stub process died"
                                                : last_crash_info_};
      }
      kill_child();
      return Error{Error::Code::kTimeout, "stub unresponsive; killed"};
    }
    if (now >= attempt_deadline && retransmits < cfg_.retry_max) {
      // Transport flake suspected: the request or its reply may have been
      // lost. The child still being alive distinguishes this from a crash.
      if (child_exited()) {
        alive_ = false;
        tstats_.channel = chan_->stats();
        return Error{Error::Code::kCrashed, last_crash_info_.empty()
                                                ? "stub process died"
                                                : last_crash_info_};
      }
      chan_->send_frame(stub_addr_, wire); // same seq: the stub dedups
      retransmits += 1;
      tstats_.retransmits += 1;
      attempt_ms *= std::max(1.0, cfg_.retry_backoff);
      attempt_deadline =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(attempt_ms));
    }
    const auto wait_until = retransmits < cfg_.retry_max
                                ? std::min(deadline, attempt_deadline)
                                : deadline;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          wait_until - std::chrono::steady_clock::now())
                          .count();
    auto rcv = chan_->recv_frame(static_cast<int>(std::max<long long>(left, 1)));
    if (!rcv) {
      if (rcv.error().code == Error::Code::kTimeout) continue; // retry/deadline
      return rcv.error();
    }
    auto fr = decode_frame(rcv.value().frame);
    if (!fr) continue;
    RpcFrame f = std::move(fr).value();
    if (f.type == RpcType::kHeartbeat) {
      last_heartbeat_ = std::chrono::steady_clock::now();
      continue;
    }
    if (f.type == RpcType::kRegister) {
      // Our RegisterAck was lost and the stub is still re-sending Register;
      // ack again or it will give up and exit.
      chan_->send_frame(stub_addr_, encode_frame({RpcType::kRegisterAck, 0, {}}));
      continue;
    }
    if (f.type == RpcType::kCrashNotice) {
      last_crash_info_.assign(f.payload.begin(), f.payload.end());
      // Let the child finish dying, then reap it.
      for (int i = 0; i < 100 && !child_exited(); ++i) ::usleep(1000);
      if (!child_exited()) kill_child();
      alive_ = false;
      tstats_.channel = chan_->stats();
      return Error{Error::Code::kCrashed, last_crash_info_};
    }
    if (f.type == expect && f.seq == seq) {
      if (retransmits > 0) tstats_.flakes_recovered += 1;
      tstats_.rtt_us.add(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      tstats_.channel = chan_->stats();
      return f;
    }
    // Stale reply from a previous request (or a duplicate of one); skip.
  }
}

bool ProcessDomain::poll_liveness() {
  if (!alive_) return false;
  // Reap a silently-dead child first (e.g. killed by the OOM killer).
  if (child_exited()) {
    alive_ = false;
    if (last_crash_info_.empty()) last_crash_info_ = "stub process died";
    return false;
  }
  // Drain whatever the stub pushed since we last listened.
  for (;;) {
    auto rcv = chan_->recv_frame(/*timeout_ms=*/1);
    if (!rcv) break; // timeout: queue drained
    auto fr = decode_frame(rcv.value().frame);
    if (!fr) continue;
    if (fr.value().type == RpcType::kHeartbeat) {
      last_heartbeat_ = std::chrono::steady_clock::now();
      continue;
    }
    if (fr.value().type == RpcType::kRegister) {
      chan_->send_frame(stub_addr_, encode_frame({RpcType::kRegisterAck, 0, {}}));
      continue;
    }
    if (fr.value().type == RpcType::kCrashNotice) {
      last_crash_info_.assign(fr.value().payload.begin(), fr.value().payload.end());
      for (int i = 0; i < 100 && !child_exited(); ++i) ::usleep(1000);
      if (!child_exited()) kill_child();
      alive_ = false;
      return false;
    }
    // Stale reply from an abandoned request: ignore.
  }
  return alive_;
}

long ProcessDomain::ms_since_heartbeat() const {
  if (last_heartbeat_.time_since_epoch().count() == 0) return -1;
  return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - last_heartbeat_)
                               .count());
}

EventOutcome ProcessDomain::deliver(const ctl::Event& event, SimTime now) {
  EventOutcome out;
  DeliverEventPayload payload{raw(now), event, std::exchange(ship_state_, false)};
  auto reply = call(RpcType::kDeliverEvent, encode_deliver(payload),
                    RpcType::kEventDone, cfg_.deliver_timeout_ms);
  // The event changes the stub's state: the mirror stays valid only if the
  // reply carries a delta on top of it.
  const std::uint64_t base = std::exchange(mirror_seq_, 0);
  if (!reply) {
    out.kind = reply.error().code == Error::Code::kTimeout
                   ? EventOutcome::Kind::kTimeout
                   : EventOutcome::Kind::kCrashed;
    out.crash_info = reply.error().message;
    alive_ = false;
    return out;
  }
  auto done = decode_event_done(reply.value().payload);
  if (!done) {
    out.kind = EventOutcome::Kind::kCrashed;
    out.crash_info = "malformed event-done: " + done.error().message;
    return out;
  }
  out.disposition = done.value().disposition;
  out.emitted = std::move(done.value().emitted);
  // A base-0 delta covers the whole state (decode checked), so it re-bases
  // even a stale mirror.
  if (const auto& delta = done.value().state;
      delta && delta->base == base &&
      checkpoint::apply_chunks(mirror_, delta->size, delta->dirty))
    mirror_seq_ = reply.value().seq;
  return out;
}

Result<std::vector<std::uint8_t>> ProcessDomain::snapshot() {
  ship_state_ = true;
  if (alive_ && mirror_seq_ != 0) return mirror_;
  auto reply =
      call(RpcType::kSnapshotRequest, {}, RpcType::kSnapshotReply, cfg_.rpc_timeout_ms);
  if (!reply) return reply.error();
  mirror_ = reply.value().payload;
  mirror_seq_ = reply.value().seq;
  return std::move(reply.value().payload);
}

Status ProcessDomain::restore(std::span<const std::uint8_t> state) {
  mirror_seq_ = 0;
  if (!alive_) {
    child_exited(); // reap
    if (child_pid_ > 0) kill_child();
    if (auto st = spawn(); !st) return st;
  }
  auto reply = call(RpcType::kRestoreRequest, state, RpcType::kRestoreAck,
                    cfg_.rpc_timeout_ms);
  if (!reply) return reply.error();
  return Status::success();
}

Status ProcessDomain::restart() {
  kill_child();
  child_exited();
  return spawn();
}

void ProcessDomain::shutdown() {
  if (alive_ && stub_addr_.valid() && chan_->is_open()) {
    chan_->send_frame(stub_addr_, encode_frame({RpcType::kShutdown, 0, {}}));
    for (int i = 0; i < 50 && !child_exited(); ++i) ::usleep(1000);
  }
  kill_child();
  chan_->close();
}

} // namespace legosdn::appvisor
