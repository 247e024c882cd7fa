// OpenFlow 1.0 (wire version 0x01) protocol messages. The secure channel in
// Figure 5 carries exactly these messages between ovs-vswitchd and NOX; our
// Datapath and Controller always serialize/parse through this codec, and the
// framed secure channel carries the encoded bytes as a stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/match.hpp"
#include "util/bytes.hpp"

namespace hw::ofp {

inline constexpr std::uint8_t kWireVersion = 0x01;
inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::uint32_t kNoBuffer = 0xffffffff;

enum class MsgType : std::uint8_t {
  Hello = 0,
  Error = 1,
  EchoRequest = 2,
  EchoReply = 3,
  FeaturesRequest = 5,
  FeaturesReply = 6,
  PacketIn = 10,
  FlowRemoved = 11,
  PortStatus = 12,
  PacketOut = 13,
  FlowMod = 14,
  StatsRequest = 16,
  StatsReply = 17,
  BarrierRequest = 18,
  BarrierReply = 19,
};

// ---------------------------------------------------------------------------
// Symmetric / setup messages

struct Hello {
  static constexpr MsgType kType = MsgType::Hello;
};
struct EchoRequest {
  static constexpr MsgType kType = MsgType::EchoRequest;
  Bytes data;
};
struct EchoReply {
  static constexpr MsgType kType = MsgType::EchoReply;
  Bytes data;
};
struct FeaturesRequest {
  static constexpr MsgType kType = MsgType::FeaturesRequest;
};
struct BarrierRequest {
  static constexpr MsgType kType = MsgType::BarrierRequest;
};
struct BarrierReply {
  static constexpr MsgType kType = MsgType::BarrierReply;
};

enum class ErrorType : std::uint16_t {
  HelloFailed = 0,
  BadRequest = 1,
  BadAction = 2,
  FlowModFailed = 3,
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::Error;
  ErrorType type = ErrorType::BadRequest;
  std::uint16_t code = 0;
  Bytes data;  // at least the header of the offending message
};

/// Physical port description (ofp_phy_port, 48 bytes).
struct PhyPort {
  std::uint16_t port_no = 0;
  MacAddress hw_addr;
  std::string name;  // up to 15 chars + NUL on the wire
  std::uint32_t config = 0;
  std::uint32_t state = 0;
  std::uint32_t curr = 0;
};

struct FeaturesReply {
  static constexpr MsgType kType = MsgType::FeaturesReply;
  std::uint64_t datapath_id = 0;
  std::uint32_t n_buffers = 256;
  std::uint8_t n_tables = 1;
  std::uint32_t capabilities = 0;
  std::uint32_t actions = 0xfff;
  std::vector<PhyPort> ports;
};

// ---------------------------------------------------------------------------
// Asynchronous messages (datapath → controller)

enum class PacketInReason : std::uint8_t { NoMatch = 0, Action = 1 };

/// `data` is a view, not a copy. On send it views the frame being punted; on
/// receive it views the decoded message's bytes (the channel's frame), which
/// stay valid for one dispatch only — the same rule as
/// net::ParsedPacket::l4_payload. A component that keeps the frame past its
/// handler copies it.
struct PacketIn {
  static constexpr MsgType kType = MsgType::PacketIn;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t total_len = 0;
  std::uint16_t in_port = 0;
  PacketInReason reason = PacketInReason::NoMatch;
  std::span<const std::uint8_t> data;  // possibly truncated to miss_send_len
};

enum class FlowRemovedReason : std::uint8_t {
  IdleTimeout = 0,
  HardTimeout = 1,
  Delete = 2,
};

struct FlowRemoved {
  static constexpr MsgType kType = MsgType::FlowRemoved;
  Match match;
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  FlowRemovedReason reason = FlowRemovedReason::IdleTimeout;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t idle_timeout = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

enum class PortReason : std::uint8_t { Add = 0, Delete = 1, Modify = 2 };

struct PortStatus {
  static constexpr MsgType kType = MsgType::PortStatus;
  PortReason reason = PortReason::Add;
  PhyPort desc;
};

// ---------------------------------------------------------------------------
// Controller → datapath messages

struct PacketOut {
  static constexpr MsgType kType = MsgType::PacketOut;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t in_port = port_no(Port::None);
  ActionList actions;
  Bytes data;  // used when buffer_id == kNoBuffer
};

enum class FlowModCommand : std::uint16_t {
  Add = 0,
  Modify = 1,
  ModifyStrict = 2,
  Delete = 3,
  DeleteStrict = 4,
};

struct FlowModFlags {
  static constexpr std::uint16_t kSendFlowRem = 1 << 0;
  static constexpr std::uint16_t kCheckOverlap = 1 << 1;
};

struct FlowMod {
  static constexpr MsgType kType = MsgType::FlowMod;
  Match match;
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::Add;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint16_t priority = 0x8000;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t out_port = port_no(Port::None);  // filter for DELETE
  std::uint16_t flags = 0;
  ActionList actions;
};

// ---------------------------------------------------------------------------
// Statistics

enum class StatsType : std::uint16_t {
  Desc = 0,
  Flow = 1,
  Aggregate = 2,
  Table = 3,
  Port = 4,
};

struct FlowStatsRequest {
  Match match;          // filter
  std::uint8_t table_id = 0xff;
  std::uint16_t out_port = port_no(Port::None);
};

struct FlowStatsEntry {
  std::uint8_t table_id = 0;
  Match match;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t priority = 0;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  ActionList actions;
};

struct PortStatsRequest {
  std::uint16_t port_no = 0xffff;  // OFPP_NONE = all ports
};

struct PortStatsEntry {
  std::uint16_t port_no = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;
};

struct AggregateStatsReplyBody {
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t flow_count = 0;
};

struct DescStats {
  std::string mfr_desc = "Homework project";
  std::string hw_desc = "simulated datapath";
  std::string sw_desc = "hw_ofp";
  std::string serial_num = "0";
  std::string dp_desc = "Homework home router";
};

struct StatsRequest {
  static constexpr MsgType kType = MsgType::StatsRequest;
  StatsType type = StatsType::Desc;
  std::variant<std::monostate, FlowStatsRequest, PortStatsRequest> body;
};

/// OFPSF_REPLY_MORE: further STATS_REPLY messages follow for the same xid.
inline constexpr std::uint16_t kStatsReplyMore = 0x0001;

struct StatsReply {
  static constexpr MsgType kType = MsgType::StatsReply;
  StatsType type = StatsType::Desc;
  std::uint16_t flags = 0;  // kStatsReplyMore on all but the last fragment
  std::variant<std::monostate, DescStats, std::vector<FlowStatsEntry>,
               AggregateStatsReplyBody, std::vector<PortStatsEntry>>
      body;
};

// ---------------------------------------------------------------------------

using Message =
    std::variant<Hello, ErrorMsg, EchoRequest, EchoReply, FeaturesRequest,
                 FeaturesReply, PacketIn, FlowRemoved, PortStatus, PacketOut,
                 FlowMod, StatsRequest, StatsReply, BarrierRequest, BarrierReply>;

/// A framed message: header xid + payload variant.
struct Envelope {
  std::uint32_t xid = 0;
  Message msg;
};

/// Serializes header + body of one message into `out`, replacing its
/// contents but reusing its storage: a sender that keeps one buffer encodes
/// without allocating once the buffer has grown to its messages' size. `T`
/// is one of Message's alternatives; the message is read in place, never
/// copied into an Envelope.
template <typename T>
void encode_into(Bytes& out, std::uint32_t xid, const T& msg);
/// Serializes header + body into a fresh buffer (encode_into underneath).
Bytes encode(const Envelope& env);
/// Parses one complete message (the full buffer must be exactly one message).
/// A decoded PacketIn's data views `buf`: keep `buf` alive while it is used.
Result<Envelope> decode(std::span<const std::uint8_t> buf);
/// Peeks the total length of the message starting at `buf` (for stream
/// reassembly); returns 0 if fewer than kHeaderSize bytes are available.
std::size_t peek_length(std::span<const std::uint8_t> buf);

MsgType type_of(const Message& msg);
const char* to_string(MsgType t);

}  // namespace hw::ofp
