#include "legosdn/replication.hpp"

#include "common/log.hpp"
#include "controller/event_codec.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::lego {

// --- wire codec ---

void encode_record(const ReplicaRecord& r, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(r.kind));
  switch (r.kind) {
    case ReplicaRecord::Kind::kEvent:
      ctl::encode_event(r.event, w);
      return;
    case ReplicaRecord::Kind::kTxn:
      w.u8(static_cast<std::uint8_t>(r.txn.kind));
      w.u64(raw(r.txn.txn));
      w.u32(raw(r.txn.app));
      if (r.txn.kind == netlog::TxnRecord::Kind::kApply)
        w.blob(of::wire10::encode_framed(r.txn.msg));
      return;
    case ReplicaRecord::Kind::kAppState:
      w.u32(static_cast<std::uint32_t>(r.app_index));
      w.blob(r.state);
      return;
    case ReplicaRecord::Kind::kAppDown:
      w.u32(static_cast<std::uint32_t>(r.app_index));
      return;
  }
}

Result<ReplicaRecord> decode_record(ByteReader& r) {
  ReplicaRecord out;
  const auto kind = r.u8();
  switch (static_cast<ReplicaRecord::Kind>(kind)) {
    case ReplicaRecord::Kind::kEvent: {
      out.kind = ReplicaRecord::Kind::kEvent;
      auto ev = ctl::decode_event(r);
      if (!ev) return ev.error();
      out.event = std::move(ev).value();
      return out;
    }
    case ReplicaRecord::Kind::kTxn: {
      out.kind = ReplicaRecord::Kind::kTxn;
      const std::uint8_t tk = r.u8();
      if (tk > static_cast<std::uint8_t>(netlog::TxnRecord::Kind::kRollback))
        return Error{Error::Code::kParse, "unknown txn record kind"};
      out.txn.kind = static_cast<netlog::TxnRecord::Kind>(tk);
      out.txn.txn = TxnId{r.u64()};
      out.txn.app = AppId{r.u32()};
      if (out.txn.kind == netlog::TxnRecord::Kind::kApply) {
        const auto frame = r.blob();
        if (r.error())
          return Error{Error::Code::kTruncated, "txn apply truncated"};
        auto msg = of::wire10::decode_framed(frame);
        if (!msg) return msg.error();
        out.txn.msg = std::move(msg).value();
      }
      if (r.error()) return Error{Error::Code::kTruncated, "txn record truncated"};
      return out;
    }
    case ReplicaRecord::Kind::kAppState: {
      out.kind = ReplicaRecord::Kind::kAppState;
      out.app_index = r.u32();
      out.state = r.blob();
      if (r.error())
        return Error{Error::Code::kTruncated, "app-state record truncated"};
      return out;
    }
    case ReplicaRecord::Kind::kAppDown: {
      out.kind = ReplicaRecord::Kind::kAppDown;
      out.app_index = r.u32();
      if (r.error())
        return Error{Error::Code::kTruncated, "app-down record truncated"};
      return out;
    }
  }
  return Error{Error::Code::kParse, "unknown replica record kind"};
}

std::vector<std::uint8_t> encode_record(const ReplicaRecord& r) {
  ByteWriter w;
  encode_record(r, w);
  return std::move(w).take();
}

Result<ReplicaRecord> decode_record(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto res = decode_record(r);
  if (!res) return res;
  if (r.error()) return Error{Error::Code::kTruncated, "replica record truncated"};
  return res;
}

// --- ReplicaSet ---

ReplicaSet::ReplicaSet(netsim::Network& net, LegoConfig cfg, ReplicaConfig rcfg)
    : net_(net), cfg_(std::move(cfg)), rcfg_(rcfg) {}

ReplicaSet::~ReplicaSet() = default;

void ReplicaSet::add_app(AppFactory make) { factories_.push_back(std::move(make)); }

Status ReplicaSet::start() {
  if (started_)
    return Error{Error::Code::kConflict, "replica set already started"};
  started_ = true;

  // Replicated mode v1 runs serial dispatch on every replica: the follower
  // replays a totally ordered record stream, and a leader dispatching from
  // parallel lanes would interleave its shipped records arbitrarily.
  LegoConfig base = cfg_;
  base.dispatch.shards = 1;

  LegoConfig leader_cfg = base;
  leader_cfg.role = LegoConfig::Role::kLeader;
  replicas_.push_back(std::make_unique<LegoController>(net_, leader_cfg));

  LegoConfig follower_cfg = base;
  follower_cfg.role = LegoConfig::Role::kFollower;
  for (std::size_t i = 0; i < rcfg_.followers; ++i)
    replicas_.push_back(std::make_unique<LegoController>(net_, follower_cfg));

  for (auto& replica : replicas_)
    for (auto& make : factories_) replica->add_app(make());

  active_ = replicas_.front().get();
  followers_.clear();
  for (std::size_t i = 1; i < replicas_.size(); ++i)
    followers_.push_back(replicas_[i].get());

  // Every Controller constructor registered network callbacks, so the last
  // follower built holds them now; the network must feed the leader.
  active_->attach_network_callbacks();

  if (pre_start_)
    if (auto st = pre_start_(*active_); !st) return st;

  for (auto* f : followers_)
    if (auto st = f->start_follower(); !st) return st;

  install_leader_hooks(*active_);
  return active_->start_system();
}

void ReplicaSet::install_leader_hooks(LegoController& leader) {
  leader.set_replication_sink([this](const ReplicaRecord& r) { ship(r); });
}

void ReplicaSet::ship(const ReplicaRecord& r) {
  records_shipped_ += 1;
  if (rcfg_.encode_records) {
    const auto bytes = encode_record(r);
    auto decoded = decode_record(bytes);
    if (decoded) {
      for (auto* f : followers_) f->follower_ingest(decoded.value());
      return;
    }
    // Count the failure and fall back to the in-memory record so a codec gap
    // degrades fidelity of the *test* (the round-trip), never of the replica.
    codec_failures_ += 1;
    LEGOSDN_LOG_WARN("replication", "record codec round-trip failed: %s",
                     decoded.error().to_string().c_str());
  }
  for (auto* f : followers_) f->follower_ingest(r);
}

ReplicaSet::FailoverReport ReplicaSet::fail_over() {
  FailoverReport rep;
  if (!started_ || !active_ || followers_.empty()) return rep;

  // Unplanned crash: the old leader ships nothing further and is never
  // consulted again. Its object stays alive (domains hold post-mortem state)
  // but everything detaches from it.
  active_->set_replication_sink(nullptr);

  LegoController* promoted = followers_.front();
  followers_.erase(followers_.begin());

  if (pre_promote_) pre_promote_(*promoted);
  const auto pr = promoted->promote_to_leader();
  if (post_promote_) post_promote_(*promoted);

  active_ = promoted;
  failovers_ += 1;
  rep.promoted = pr.promoted;
  rep.reconcile = pr.reconcile;

  // Surviving followers re-home to the new leader's stream.
  if (!followers_.empty()) install_leader_hooks(*active_);
  return rep;
}

} // namespace legosdn::lego
