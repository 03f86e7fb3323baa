// A simulated OpenFlow switch: ports, flow table, packet buffers, counters,
// and southbound message handling (flow-mod, stats, barrier, echo, features).
//
// Dataplane forwarding across switches lives in Network; the switch only
// decides what happens to a packet locally.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "netsim/flow_table.hpp"
#include "openflow/messages.hpp"

namespace legosdn::netsim {

struct SwitchPort {
  of::PortDesc desc{};
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;
};

class SimSwitch {
public:
  explicit SimSwitch(DatapathId dpid) : dpid_(dpid) {}

  DatapathId dpid() const noexcept { return dpid_; }

  void add_port(PortNo port, std::string name = {});
  bool has_port(PortNo port) const { return ports_.contains(port); }
  SwitchPort* port(PortNo p);
  const SwitchPort* port(PortNo p) const;
  const std::map<PortNo, SwitchPort>& ports() const noexcept { return ports_; }
  std::vector<PortNo> port_numbers() const;

  bool up() const noexcept { return up_; }
  void set_up(bool up) noexcept {
    up_ = up;
    ++generation_;
  }

  /// Bumped when liveness or the port set changes (set_up, add_port,
  /// cold_restart). Network::topology_generation() sums it over switches.
  std::uint64_t generation() const noexcept { return generation_; }

  FlowTable& table() noexcept { return table_; }
  const FlowTable& table() const noexcept { return table_; }

  of::FeaturesReply features() const;

  /// Handle a southbound control message addressed to this switch.
  /// Replies (stats-reply, barrier-reply, echo-reply, flow-removed on delete,
  /// errors) are appended to `out`. PacketOut is *not* handled here — the
  /// Network intercepts it because forwarding needs topology.
  void handle_message(const of::Message& msg, SimTime now,
                      std::vector<of::Message>& out);

  /// Remove timed-out flow entries, emitting flow-removed messages into `out`
  /// for entries that requested notification.
  void expire_flows(SimTime now, std::vector<of::Message>& out);

  // --- packet buffering for packet-in / packet-out(buffer_id) ---
  std::uint32_t buffer_packet(PortNo in_port, const of::Packet& p);
  std::optional<std::pair<PortNo, of::Packet>> take_buffered(std::uint32_t id);
  std::size_t buffered_count() const noexcept { return buffers_.size(); }

  /// Cold restart: clears flow table, buffers and counters (keeps ports).
  void cold_restart();

private:
  of::StatsReply build_stats(const of::StatsRequest& req, SimTime now) const;

  DatapathId dpid_;
  bool up_ = true;
  std::map<PortNo, SwitchPort> ports_;
  FlowTable table_;
  std::map<std::uint32_t, std::pair<PortNo, of::Packet>> buffers_;
  std::uint32_t next_buffer_id_ = 1;
  std::uint64_t generation_ = 0;
};

} // namespace legosdn::netsim
