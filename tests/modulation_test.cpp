// Unit tests for the PPM codec, framing, Hamming(8,4) and the OOK
// ceiling, with round trips over every PPM order and frame size.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "oci/modulation/fec.hpp"
#include "oci/modulation/frame.hpp"
#include "oci/modulation/ook.hpp"
#include "oci/modulation/ppm.hpp"

namespace {

using namespace oci;
using namespace oci::modulation;
using oci::util::Time;

PpmConfig cfg(unsigned k, SlotLabeling lab = SlotLabeling::kBinary) {
  PpmConfig c;
  c.bits_per_symbol = k;
  c.slot_width = Time::nanoseconds(1.0);
  c.labeling = lab;
  return c;
}

// ---------- PPM ----------

TEST(Ppm, SlotCount) {
  EXPECT_EQ(PpmCodec(cfg(1)).slot_count(), 2u);
  EXPECT_EQ(PpmCodec(cfg(4)).slot_count(), 16u);
  EXPECT_EQ(PpmCodec(cfg(10)).slot_count(), 1024u);
}

TEST(Ppm, EncodeDecodeRoundTripBinary) {
  const PpmCodec codec(cfg(5, SlotLabeling::kBinary));
  for (std::uint64_t s = 0; s < 32; ++s) {
    EXPECT_EQ(codec.decode(codec.encode(s)), s);
  }
}

TEST(Ppm, EncodeDecodeRoundTripGray) {
  const PpmCodec codec(cfg(6, SlotLabeling::kGray));
  for (std::uint64_t s = 0; s < 64; ++s) {
    EXPECT_EQ(codec.decode(codec.encode(s)), s);
  }
}

TEST(Ppm, PulsePlacedAtSlotCentre) {
  const PpmCodec codec(cfg(3, SlotLabeling::kBinary));
  EXPECT_DOUBLE_EQ(codec.encode(0).nanoseconds(), 0.5);
  EXPECT_DOUBLE_EQ(codec.encode(5).nanoseconds(), 5.5);
}

TEST(Ppm, DecodeClampsOutOfRangeToa) {
  const PpmCodec codec(cfg(3, SlotLabeling::kBinary));
  EXPECT_EQ(codec.slot_for_toa(Time::nanoseconds(-0.5)), 0u);
  EXPECT_EQ(codec.slot_for_toa(Time::nanoseconds(100.0)), 7u);
}

TEST(Ppm, GrayLabellingAdjacentSlotsOneBit) {
  const PpmCodec codec(cfg(5, SlotLabeling::kGray));
  for (std::uint64_t slot = 0; slot + 1 < codec.slot_count(); ++slot) {
    const auto a = codec.symbol_for_slot(slot);
    const auto b = codec.symbol_for_slot(slot + 1);
    EXPECT_EQ(PpmCodec::hamming(a, b), 1u) << "slot " << slot;
  }
}

TEST(Ppm, BinaryLabellingAdjacentSlotsCanFlipMany) {
  const PpmCodec codec(cfg(4, SlotLabeling::kBinary));
  // Slot 7 -> 8 flips all 4 bits in binary labelling.
  EXPECT_EQ(PpmCodec::hamming(codec.symbol_for_slot(7), codec.symbol_for_slot(8)), 4u);
}

TEST(Ppm, SymbolOutOfRangeThrows) {
  const PpmCodec codec(cfg(3));
  EXPECT_THROW((void)codec.encode(8), std::invalid_argument);
  EXPECT_THROW((void)codec.slot_for_symbol(9), std::invalid_argument);
  EXPECT_THROW((void)codec.symbol_for_slot(8), std::invalid_argument);
}

TEST(Ppm, RejectsBadConfig) {
  EXPECT_THROW(PpmCodec(cfg(0)), std::invalid_argument);
  EXPECT_THROW(PpmCodec(cfg(21)), std::invalid_argument);
  PpmConfig bad = cfg(4);
  bad.slot_width = Time::zero();
  EXPECT_THROW(PpmCodec{bad}, std::invalid_argument);
}

TEST(Ppm, Hamming) {
  EXPECT_EQ(PpmCodec::hamming(0b1010, 0b1010), 0u);
  EXPECT_EQ(PpmCodec::hamming(0b1010, 0b0101), 4u);
  EXPECT_EQ(PpmCodec::hamming(0, 0xFF), 8u);
}

TEST(Ppm, PackUnpackBytesRoundTrip) {
  for (unsigned k : {1u, 3u, 4u, 5u, 8u, 11u}) {
    const PpmCodec codec(cfg(k));
    const std::vector<std::uint8_t> bytes{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F, 0x80, 0x01};
    const auto symbols = codec.pack_bytes(bytes);
    for (auto s : symbols) EXPECT_LT(s, codec.slot_count());
    const auto back = codec.unpack_bytes(symbols, bytes.size());
    EXPECT_EQ(back, bytes) << "k = " << k;
  }
}

TEST(Ppm, PackSymbolCount) {
  const PpmCodec codec(cfg(5));
  // 3 bytes = 24 bits -> ceil(24/5) = 5 symbols.
  EXPECT_EQ(codec.pack_bytes({1, 2, 3}).size(), 5u);
}

TEST(Ppm, PackEmpty) {
  const PpmCodec codec(cfg(4));
  EXPECT_TRUE(codec.pack_bytes({}).empty());
  EXPECT_TRUE(codec.unpack_bytes({}, 0).empty());
}

// ---------- CRC / framing ----------

TEST(Crc8, KnownVectorsAndProperties) {
  EXPECT_EQ(crc8({}), 0x00);
  // CRC-8/ATM of "123456789" is 0xF4.
  EXPECT_EQ(crc8({'1', '2', '3', '4', '5', '6', '7', '8', '9'}), 0xF4);
  // Single-bit corruption must change the CRC.
  const std::vector<std::uint8_t> msg{0x10, 0x20, 0x30};
  std::vector<std::uint8_t> bad = msg;
  bad[1] ^= 0x04;
  EXPECT_NE(crc8(msg), crc8(bad));
}

TEST(SymbolsForPayload, RoundsUp) {
  // (8 + 4 overhead) bytes = 96 bits; at 7 bits/symbol -> ceil = 14.
  EXPECT_EQ(symbols_for_payload(8, 7), 14u);
  EXPECT_EQ(symbols_for_payload(8, 8), 12u);
  EXPECT_EQ(symbols_for_payload(0, 8), 4u);
}

TEST(SymbolsForPayload, RejectsZeroBits) {
  EXPECT_THROW((void)symbols_for_payload(8, 0), std::invalid_argument);
}

TEST(Frame, SerializeParseRoundTrip) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  Frame f;
  f.payload = {0x01, 0x02, 0x03, 0xFF, 0x00, 0xAB};
  const auto symbols = framer.serialize(f);
  const auto parsed = framer.deserialize(symbols);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame.payload, f.payload);
  EXPECT_EQ(parsed->symbols_consumed, symbols.size());
}

TEST(Frame, EmptyPayloadRoundTrip) {
  const PpmCodec codec(cfg(5));
  const FrameCodec framer(codec);
  const auto symbols = framer.serialize(Frame{});
  const auto parsed = framer.deserialize(symbols);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->frame.payload.empty());
}

TEST(Frame, CorruptedPayloadRejectedByCrc) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  Frame f;
  f.payload = {0x55, 0x66, 0x77};
  auto symbols = framer.serialize(f);
  symbols[symbols.size() - 3] ^= 1;  // flip a payload symbol
  EXPECT_FALSE(framer.deserialize(symbols).has_value());
}

TEST(Frame, WrongPreambleRejected) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  auto symbols = framer.serialize(Frame{.payload = {0x01}});
  symbols[0] ^= 0x3;
  EXPECT_FALSE(framer.deserialize(symbols).has_value());
}

TEST(Frame, TruncatedStreamRejected) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  auto symbols = framer.serialize(Frame{.payload = {0x01, 0x02, 0x03, 0x04}});
  symbols.resize(symbols.size() - 2);
  EXPECT_FALSE(framer.deserialize(symbols).has_value());
}

TEST(Frame, OversizedPayloadThrows) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  Frame f;
  f.payload.assign(FrameCodec::kMaxPayload + 1, 0xAA);
  EXPECT_THROW(framer.serialize(f), std::invalid_argument);
}

TEST(Frame, FrameSymbolsAccountsForEverything) {
  const PpmCodec codec(cfg(4));
  const FrameCodec framer(codec);
  Frame f;
  f.payload = {1, 2, 3};
  EXPECT_EQ(framer.serialize(f).size(), framer.frame_symbols(3));
  // preamble 4 + (2 len + 3 payload + 1 crc) * 8 bits / 4 bits = 4 + 12.
  EXPECT_EQ(framer.frame_symbols(3), 16u);
}

TEST(Frame, PreamblePattern) {
  const PpmCodec codec(cfg(3));
  const FrameCodec framer(codec);
  const auto p = framer.preamble();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 7u);
  EXPECT_EQ(p[2], 0u);
  EXPECT_EQ(p[3], 7u);
}

// ---------- OOK ----------

TEST(Ook, DeadTimeLimitedRate) {
  EXPECT_DOUBLE_EQ(ook_dead_time_limited_rate(Time::nanoseconds(40.0)).megabits_per_second(),
                   25.0);
  EXPECT_THROW((void)ook_dead_time_limited_rate(Time::zero()), std::invalid_argument);
}

// ---------- Hamming (8,4) ----------

TEST(Hamming84, RoundTripAllNibbles) {
  for (std::uint8_t n = 0; n < 16; ++n) {
    const auto r = modulation::Hamming84::decode(modulation::Hamming84::encode(n));
    EXPECT_EQ(r.nibble, n);
    EXPECT_FALSE(r.corrected);
    EXPECT_FALSE(r.double_error);
  }
}

TEST(Hamming84, CorrectsEverySingleBitError) {
  for (std::uint8_t n = 0; n < 16; ++n) {
    const std::uint8_t cw = modulation::Hamming84::encode(n);
    for (unsigned b = 0; b < 8; ++b) {
      const auto r =
          modulation::Hamming84::decode(static_cast<std::uint8_t>(cw ^ (1u << b)));
      EXPECT_EQ(r.nibble, n) << "nibble " << int(n) << " bit " << b;
      EXPECT_TRUE(r.corrected);
      EXPECT_FALSE(r.double_error);
    }
  }
}

TEST(Hamming84, DetectsEveryDoubleBitError) {
  for (std::uint8_t n = 0; n < 16; ++n) {
    const std::uint8_t cw = modulation::Hamming84::encode(n);
    for (unsigned a = 0; a < 8; ++a) {
      for (unsigned b = a + 1; b < 8; ++b) {
        const auto r = modulation::Hamming84::decode(
            static_cast<std::uint8_t>(cw ^ (1u << a) ^ (1u << b)));
        EXPECT_TRUE(r.double_error) << "nibble " << int(n) << " bits " << a << "," << b;
      }
    }
  }
}

TEST(Hamming84, ByteVectorRoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xFF, 0xA5, 0x3C, 0x7E};
  const auto coded = modulation::Hamming84::encode_bytes(data);
  EXPECT_EQ(coded.size(), data.size() * 2);
  const auto decoded = modulation::Hamming84::decode_bytes(coded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->data, data);
  EXPECT_EQ(decoded->corrections, 0u);
}

TEST(Hamming84, ByteVectorCorrectsScatteredErrors) {
  const std::vector<std::uint8_t> data{0xDE, 0xAD, 0xBE, 0xEF};
  auto coded = modulation::Hamming84::encode_bytes(data);
  coded[0] ^= 0x10;  // one flipped bit per codeword is correctable
  coded[3] ^= 0x02;
  coded[7] ^= 0x40;
  const auto decoded = modulation::Hamming84::decode_bytes(coded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->data, data);
  EXPECT_EQ(decoded->corrections, 3u);
}

TEST(Hamming84, ByteVectorFlagsDoubleError) {
  auto coded = modulation::Hamming84::encode_bytes({0x42});
  coded[1] ^= 0x21;  // two bits in one codeword
  EXPECT_FALSE(modulation::Hamming84::decode_bytes(coded).has_value());
  EXPECT_FALSE(modulation::Hamming84::decode_bytes({0x01}).has_value());  // odd size
}

// ---------- PPM round trip over all K and both labelings ----------

class PpmRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, modulation::SlotLabeling>> {};

TEST_P(PpmRoundTrip, EverySymbolSurvives) {
  const auto [k, labeling] = GetParam();
  modulation::PpmConfig c;
  c.bits_per_symbol = k;
  c.slot_width = Time::nanoseconds(1.0);
  c.labeling = labeling;
  const modulation::PpmCodec codec(c);
  for (std::uint64_t s = 0; s < codec.slot_count(); ++s) {
    EXPECT_EQ(codec.decode(codec.encode(s)), s) << "k=" << k;
  }
}

TEST_P(PpmRoundTrip, SlotMappingIsBijective) {
  const auto [k, labeling] = GetParam();
  modulation::PpmConfig c;
  c.bits_per_symbol = k;
  c.labeling = labeling;
  const modulation::PpmCodec codec(c);
  std::vector<bool> seen(codec.slot_count(), false);
  for (std::uint64_t s = 0; s < codec.slot_count(); ++s) {
    const auto slot = codec.slot_for_symbol(s);
    ASSERT_LT(slot, codec.slot_count());
    EXPECT_FALSE(seen[slot]) << "collision at symbol " << s;
    seen[slot] = true;
    EXPECT_EQ(codec.symbol_for_slot(slot), s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, PpmRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u, 10u),
                       ::testing::Values(modulation::SlotLabeling::kBinary,
                                         modulation::SlotLabeling::kGray)));

// ---------- frame round trip over payload sizes and K ----------

class FrameRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(FrameRoundTrip, PayloadSurvives) {
  const auto [k, payload_size] = GetParam();
  modulation::PpmConfig c;
  c.bits_per_symbol = k;
  const modulation::PpmCodec codec(c);
  const modulation::FrameCodec framer(codec);
  modulation::Frame f;
  f.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    f.payload[i] = static_cast<std::uint8_t>((i * 37 + k) & 0xFF);
  }
  const auto parsed = framer.deserialize(framer.serialize(f));
  ASSERT_TRUE(parsed.has_value()) << "k=" << k << " size=" << payload_size;
  EXPECT_EQ(parsed->frame.payload, f.payload);
}

INSTANTIATE_TEST_SUITE_P(SizesAndOrders, FrameRoundTrip,
                         ::testing::Combine(::testing::Values(2u, 4u, 5u, 8u),
                                            ::testing::Values(std::size_t{0},
                                                              std::size_t{1},
                                                              std::size_t{17},
                                                              std::size_t{256})));

}  // namespace
