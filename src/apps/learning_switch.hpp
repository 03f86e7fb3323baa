// LearningSwitch: the canonical stateful SDN-App (and one of the apps the
// paper runs inside its stub).
//
// Per switch it learns (source MAC -> ingress port) from packet-ins. When the
// destination is known it installs a forwarding rule and releases the
// buffered packet; otherwise it floods. The MAC table is the app's logical
// state and is what snapshot_state()/restore_state() capture — losing it on
// reboot forces the network back into flood-and-relearn, which is exactly the
// state-loss cost the paper's checkpointing avoids.
#pragma once

#include "controller/app.hpp"

namespace legosdn::apps {

class LearningSwitch : public ctl::App {
public:
  /// idle timeout (seconds) of installed forwarding rules.
  explicit LearningSwitch(std::uint16_t idle_timeout = 0,
                          std::uint16_t priority = 0x8000)
      : idle_timeout_(idle_timeout), priority_(priority) {}

  std::string name() const override { return "learning-switch"; }

  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn, ctl::EventType::kSwitchDown,
            ctl::EventType::kPortStatus};
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(std::span<const std::uint8_t> state) override;
  void reset() override { table_.clear(); }

  /// MAC-table state is keyed by (dpid, mac) — cleanly dpid-partitionable,
  /// so the sharded dispatcher may run one clone per shard.
  ctl::AppPtr clone() const override {
    return std::make_shared<LearningSwitch>(idle_timeout_, priority_);
  }

  /// Number of learned (switch, MAC) entries — visible app state for tests.
  std::size_t learned() const noexcept { return table_.size(); }
  const PortNo* lookup(DatapathId dpid, const MacAddress& mac) const;

private:
  struct Key {
    DatapathId dpid{};
    std::uint64_t mac = 0; ///< MacAddress::to_uint64()
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    Key key;
    PortNo port{};
  };

  void learn(const Key& key, PortNo port);

  /// Sorted by key, unique: the snapshot's canonical order, so that
  /// snapshot_state() is one pass and two logically equal tables serialize
  /// byte-identically.
  std::vector<Entry> table_;
  std::uint16_t idle_timeout_;
  std::uint16_t priority_;
};

} // namespace legosdn::apps
