#include "openflow/packet.hpp"

#include <sstream>

namespace legosdn::of {

std::string PacketHeader::to_string() const {
  std::ostringstream os;
  os << eth_src.to_string() << "->" << eth_dst.to_string();
  if (eth_type == kEthTypeIpv4) {
    os << " " << ip_src.to_string() << ":" << tp_src << "->" << ip_dst.to_string()
       << ":" << tp_dst << " proto=" << int(ip_proto);
  } else {
    os << " ethtype=0x" << std::hex << eth_type;
  }
  return os.str();
}

} // namespace legosdn::of
