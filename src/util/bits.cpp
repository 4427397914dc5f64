#include "util/bits.h"

#include <cassert>

namespace dyndisp {

void BitWriter::write(std::uint64_t value, unsigned bits) {
  assert(bits <= 64);
  if (bits == 0) return;
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  const unsigned used = static_cast<unsigned>(bit_count_ % 8);
  bit_count_ += bits;
  // Top up the partially filled last byte first.
  if (used != 0) {
    const unsigned room = 8 - used;
    if (bits <= room) {
      bytes_.back() |= static_cast<std::uint8_t>(value << (room - bits));
      return;
    }
    bits -= room;
    bytes_.back() |= static_cast<std::uint8_t>(value >> bits);
  }
  // Byte-aligned from here: whole bytes, then a zero-padded tail byte. The
  // casts drop the bits already emitted above the current byte.
  while (bits >= 8) {
    bits -= 8;
    bytes_.push_back(static_cast<std::uint8_t>(value >> bits));
  }
  if (bits != 0) bytes_.push_back(static_cast<std::uint8_t>(value << (8 - bits)));
}

std::uint64_t BitReader::read(unsigned bits) {
  assert(bits <= 64);
  assert(cursor_ + bits <= bit_count_);
  std::uint64_t value = 0;
  // At most one partial byte at each end; whole bytes in between.
  while (bits != 0) {
    const unsigned avail = 8 - static_cast<unsigned>(cursor_ % 8);
    const unsigned take = bits < avail ? bits : avail;
    const unsigned chunk =
        (static_cast<unsigned>(bytes_[cursor_ / 8]) >> (avail - take)) &
        ((1u << take) - 1);
    value = (value << take) | chunk;
    cursor_ += take;
    bits -= take;
  }
  return value;
}

}  // namespace dyndisp
