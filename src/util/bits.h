// Bit-level serialization used to meter the persistent memory of robots.
//
// The paper counts memory as "the number of bits stored at each robot
// *between* rounds" (Section II). To audit Lemma 8 (Theta(log k) bits) the
// simulator requires every robot algorithm to serialize its persistent state
// into a BitWriter at the end of each round; the produced bit count is the
// metered memory. Temporary within-round state is, per the model, free.
//
// The codec runs once per active robot per round, so it moves whole bytes
// rather than single bits: a write of w bits at any offset touches at most
// ceil(w/8)+1 bytes. The format is fixed -- most-significant bit first,
// last byte zero-padded, bits of `value` above the width ignored -- since
// robots that exchange states decode each other's bytes with BitReader.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace dyndisp {

/// Number of bits needed to represent values in [0, n); ceil(log2(n)), >= 1.
[[nodiscard]] constexpr unsigned bit_width_for(std::uint64_t n) {
  return n <= 2 ? 1u : static_cast<unsigned>(std::bit_width(n - 1));
}

/// Append-only bit sink.
class BitWriter {
 public:
  /// Writes the low `bits` bits of `value` (bits <= 64), most-significant
  /// first; higher bits of `value` are ignored.
  void write(std::uint64_t value, unsigned bits);

  /// Writes a single flag bit.
  void write_bool(bool b) { write(b ? 1 : 0, 1); }

  /// Resets to an empty sink, retaining the byte buffer's capacity so one
  /// writer can serialize k robots per round without k allocations.
  void clear() {
    bytes_.clear();
    bit_count_ = 0;
  }

  /// Total bits written so far.
  [[nodiscard]] std::size_t bit_count() const { return bit_count_; }

  /// Packed payload (last byte zero-padded).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// Sequential reader over a BitWriter payload.
class BitReader {
 public:
  explicit BitReader(const BitWriter& w)
      : bytes_(w.bytes()), bit_count_(w.bit_count()) {}

  /// Reads a raw byte payload (e.g., an exchanged peer state); all
  /// bytes.size()*8 bits are addressable.
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes), bit_count_(bytes.size() * 8) {}

  /// Reads `bits` bits written most-significant first.
  [[nodiscard]] std::uint64_t read(unsigned bits);

  [[nodiscard]] bool read_bool() { return read(1) != 0; }

  /// Bits remaining.
  [[nodiscard]] std::size_t remaining() const { return bit_count_ - cursor_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t bit_count_;
  std::size_t cursor_ = 0;
};

}  // namespace dyndisp
