#include "openflow/actions.hpp"

#include <sstream>

namespace legosdn::of {
namespace {

enum class ActionTag : std::uint8_t {
  kOutput = 0,
  kSetEthSrc = 1,
  kSetEthDst = 2,
  kSetIpSrc = 3,
  kSetIpDst = 4,
  kSetTpSrc = 5,
  kSetTpDst = 6,
};

void encode_action(const Action& a, ByteWriter& w) {
  std::visit(
      [&](const auto& act) {
        using T = std::decay_t<decltype(act)>;
        if constexpr (std::is_same_v<T, ActionOutput>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kOutput));
          w.u16(raw(act.port));
        } else if constexpr (std::is_same_v<T, ActionSetEthSrc>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetEthSrc));
          w.mac(act.mac);
        } else if constexpr (std::is_same_v<T, ActionSetEthDst>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetEthDst));
          w.mac(act.mac);
        } else if constexpr (std::is_same_v<T, ActionSetIpSrc>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetIpSrc));
          w.u32(act.ip.addr);
        } else if constexpr (std::is_same_v<T, ActionSetIpDst>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetIpDst));
          w.u32(act.ip.addr);
        } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetTpSrc));
          w.u16(act.port);
        } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
          w.u8(static_cast<std::uint8_t>(ActionTag::kSetTpDst));
          w.u16(act.port);
        }
      },
      a);
}

} // namespace

void encode_actions(const ActionList& list, ByteWriter& w) {
  w.u16(static_cast<std::uint16_t>(list.size()));
  for (const auto& a : list) encode_action(a, w);
}

std::string to_string(const Action& a) {
  std::ostringstream os;
  std::visit(
      [&](const auto& act) {
        using T = std::decay_t<decltype(act)>;
        if constexpr (std::is_same_v<T, ActionOutput>) {
          os << "output:" << raw(act.port);
        } else if constexpr (std::is_same_v<T, ActionSetEthSrc>) {
          os << "set_eth_src:" << act.mac.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetEthDst>) {
          os << "set_eth_dst:" << act.mac.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetIpSrc>) {
          os << "set_ip_src:" << act.ip.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetIpDst>) {
          os << "set_ip_dst:" << act.ip.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
          os << "set_tp_src:" << act.port;
        } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
          os << "set_tp_dst:" << act.port;
        }
      },
      a);
  return os.str();
}

std::string to_string(const ActionList& list) {
  if (list.empty()) return "[drop]";
  std::string out = "[";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i) out += ",";
    out += to_string(list[i]);
  }
  return out + "]";
}

} // namespace legosdn::of
