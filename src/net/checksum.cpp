#include "net/checksum.hpp"

namespace hw::net {
namespace {

std::uint32_t sum_words(std::span<const std::uint8_t> data, std::uint32_t acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i]) << 8;
  return acc;
}

std::uint16_t fold(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_words(data, 0));
}

std::uint16_t checksum_adjust(std::uint16_t sum, std::uint32_t old_value,
                              std::uint32_t new_value) {
  std::uint32_t acc = static_cast<std::uint16_t>(~sum);
  acc += static_cast<std::uint16_t>(~(old_value >> 16));
  acc += static_cast<std::uint16_t>(~old_value);
  acc += new_value >> 16;
  acc += new_value & 0xffff;
  return fold(acc);
}

std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                          std::span<const std::uint8_t> segment) {
  std::uint32_t acc = 0;
  acc += src.value() >> 16;
  acc += src.value() & 0xffff;
  acc += dst.value() >> 16;
  acc += dst.value() & 0xffff;
  acc += protocol;
  acc += static_cast<std::uint32_t>(segment.size());
  return fold(sum_words(segment, acc));
}

}  // namespace hw::net
