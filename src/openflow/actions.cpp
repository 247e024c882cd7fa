#include "openflow/actions.hpp"

#include "net/ethernet.hpp"
#include "openflow/match.hpp"

namespace hw::ofp {
namespace {

enum ActionType : std::uint16_t {
  kOutput = 0,
  kSetDlSrc = 4,
  kSetDlDst = 5,
  kSetNwSrc = 6,
  kSetNwDst = 7,
  kSetTpSrc = 9,
  kSetTpDst = 10,
  kEnqueue = 11,
};

bool known_action(std::uint16_t type) {
  switch (type) {
    case kOutput: case kSetDlSrc: case kSetDlDst: case kSetNwSrc:
    case kSetNwDst: case kSetTpSrc: case kSetTpDst: case kEnqueue:
      return true;
    default:
      return false;
  }
}

/// The actions parse_actions will keep, counted from their headers alone so
/// the list is allocated once at its exact size: a FlowEntry holds it for
/// the entry's life. A malformed list just ends the count early; the parse
/// itself reports the error.
std::size_t count_known_actions(ByteReader r, std::size_t actions_len) {
  std::size_t count = 0;
  for (std::size_t consumed = 0; consumed < actions_len;) {
    auto type = r.u16();
    auto len = r.u16();
    if (!type || !len || len.value() < 8 || !r.skip(len.value() - 4u).ok()) break;
    if (known_action(type.value())) ++count;
    consumed += len.value();
  }
  return count;
}

}  // namespace

void serialize_actions(ByteWriter& w, const ActionList& actions) {
  for (const auto& action : actions) {
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, ActionOutput>) {
            w.u16(kOutput);
            w.u16(8);
            w.u16(a.port);
            w.u16(a.max_len);
          } else if constexpr (std::is_same_v<T, ActionSetDlSrc>) {
            w.u16(kSetDlSrc);
            w.u16(16);
            w.raw(a.mac.octets().data(), 6);
            w.zeros(6);
          } else if constexpr (std::is_same_v<T, ActionSetDlDst>) {
            w.u16(kSetDlDst);
            w.u16(16);
            w.raw(a.mac.octets().data(), 6);
            w.zeros(6);
          } else if constexpr (std::is_same_v<T, ActionSetNwSrc>) {
            w.u16(kSetNwSrc);
            w.u16(8);
            w.u32(a.addr.value());
          } else if constexpr (std::is_same_v<T, ActionSetNwDst>) {
            w.u16(kSetNwDst);
            w.u16(8);
            w.u32(a.addr.value());
          } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
            w.u16(kSetTpSrc);
            w.u16(8);
            w.u16(a.port);
            w.zeros(2);
          } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
            w.u16(kSetTpDst);
            w.u16(8);
            w.u16(a.port);
            w.zeros(2);
          } else if constexpr (std::is_same_v<T, ActionEnqueue>) {
            w.u16(kEnqueue);
            w.u16(16);
            w.u16(a.port);
            w.zeros(6);
            w.u32(a.queue_id);
          }
        },
        action);
  }
}

Result<ActionList> parse_actions(ByteReader& r, std::size_t actions_len) {
  ActionList out;
  out.reserve(count_known_actions(r, actions_len));
  std::size_t consumed = 0;
  while (consumed < actions_len) {
    auto type = r.u16();
    if (!type) return type.error();
    auto len = r.u16();
    if (!len) return len.error();
    if (len.value() < 8 || len.value() % 8 != 0) {
      return make_error("OF action: bad length");
    }
    const std::size_t body_len = len.value() - 4u;
    switch (type.value()) {
      case kOutput: {
        auto port = r.u16();
        if (!port) return port.error();
        auto max_len = r.u16();
        if (!max_len) return max_len.error();
        out.push_back(ActionOutput{port.value(), max_len.value()});
        break;
      }
      case kSetDlSrc: {
        auto mac = net::read_mac(r);
        if (!mac) return mac.error();
        if (auto s = r.skip(6); !s.ok()) return s.error();
        out.push_back(ActionSetDlSrc{mac.value()});
        break;
      }
      case kSetDlDst: {
        auto mac = net::read_mac(r);
        if (!mac) return mac.error();
        if (auto s = r.skip(6); !s.ok()) return s.error();
        out.push_back(ActionSetDlDst{mac.value()});
        break;
      }
      case kSetNwSrc: {
        auto addr = r.u32();
        if (!addr) return addr.error();
        out.push_back(ActionSetNwSrc{Ipv4Address{addr.value()}});
        break;
      }
      case kSetNwDst: {
        auto addr = r.u32();
        if (!addr) return addr.error();
        out.push_back(ActionSetNwDst{Ipv4Address{addr.value()}});
        break;
      }
      case kSetTpSrc: {
        auto port = r.u16();
        if (!port) return port.error();
        if (auto s = r.skip(2); !s.ok()) return s.error();
        out.push_back(ActionSetTpSrc{port.value()});
        break;
      }
      case kSetTpDst: {
        auto port = r.u16();
        if (!port) return port.error();
        if (auto s = r.skip(2); !s.ok()) return s.error();
        out.push_back(ActionSetTpDst{port.value()});
        break;
      }
      case kEnqueue: {
        auto port = r.u16();
        if (!port) return port.error();
        if (auto s = r.skip(6); !s.ok()) return s.error();
        auto queue = r.u32();
        if (!queue) return queue.error();
        out.push_back(ActionEnqueue{port.value(), queue.value()});
        break;
      }
      default:
        // Unknown action: skip its body to preserve framing.
        if (auto s = r.skip(body_len); !s.ok()) return s.error();
        break;
    }
    consumed += len.value();
  }
  if (consumed != actions_len) return make_error("OF action: length overrun");
  return out;
}

std::string to_string(const Action& action) {
  return std::visit(
      [](const auto& a) -> std::string {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, ActionOutput>) {
          switch (a.port) {
            case 0xfffd: return "output:CONTROLLER";
            case 0xfffb: return "output:FLOOD";
            case 0xfffc: return "output:ALL";
            case 0xfffa: return "output:NORMAL";
            case 0xfffe: return "output:LOCAL";
            case 0xfff8: return "output:IN_PORT";
            default: return "output:" + std::to_string(a.port);
          }
        } else if constexpr (std::is_same_v<T, ActionSetDlSrc>) {
          return "set_dl_src:" + a.mac.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetDlDst>) {
          return "set_dl_dst:" + a.mac.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetNwSrc>) {
          return "set_nw_src:" + a.addr.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetNwDst>) {
          return "set_nw_dst:" + a.addr.to_string();
        } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
          return "set_tp_src:" + std::to_string(a.port);
        } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
          return "set_tp_dst:" + std::to_string(a.port);
        } else {
          return "enqueue:" + std::to_string(a.port) + ":q" +
                 std::to_string(a.queue_id);
        }
      },
      action);
}

std::string to_string(const ActionList& actions) {
  if (actions.empty()) return "drop";
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) out += ",";
    out += to_string(actions[i]);
  }
  return out;
}

ActionList output_to(std::uint16_t port) { return {ActionOutput{port, 0}}; }

ActionList send_to_controller(std::uint16_t max_len) {
  return {ActionOutput{port_no(Port::Controller), max_len}};
}

}  // namespace hw::ofp
