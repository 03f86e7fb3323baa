// OpenFlow 1.0-style action list.
//
// An empty action list on a flow entry means "drop", as in OpenFlow 1.0.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace legosdn::of {

/// Forward the packet out of a port (possibly a reserved logical port).
struct ActionOutput {
  PortNo port{};
  auto operator<=>(const ActionOutput&) const = default;
};

struct ActionSetEthSrc {
  MacAddress mac{};
  auto operator<=>(const ActionSetEthSrc&) const = default;
};

struct ActionSetEthDst {
  MacAddress mac{};
  auto operator<=>(const ActionSetEthDst&) const = default;
};

struct ActionSetIpSrc {
  IpV4 ip{};
  auto operator<=>(const ActionSetIpSrc&) const = default;
};

struct ActionSetIpDst {
  IpV4 ip{};
  auto operator<=>(const ActionSetIpDst&) const = default;
};

struct ActionSetTpSrc {
  std::uint16_t port = 0;
  auto operator<=>(const ActionSetTpSrc&) const = default;
};

struct ActionSetTpDst {
  std::uint16_t port = 0;
  auto operator<=>(const ActionSetTpDst&) const = default;
};

using Action = std::variant<ActionOutput, ActionSetEthSrc, ActionSetEthDst,
                            ActionSetIpSrc, ActionSetIpDst, ActionSetTpSrc,
                            ActionSetTpDst>;

using ActionList = std::vector<Action>;

/// Appends a count and every action (the FlowTable digest streams hash
/// these bytes).
void encode_actions(const ActionList& list, ByteWriter& w);

std::string to_string(const Action& a);
std::string to_string(const ActionList& list);

/// Convenience: a single-output action list.
inline ActionList output_to(PortNo p) { return {ActionOutput{p}}; }

} // namespace legosdn::of
