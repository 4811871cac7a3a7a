// Tests for GF(2^8) arithmetic, the Reed-Solomon errors-and-erasures
// codec (its capability surface and a decode fuzz), and the
// RS-protected optical link layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "oci/link/rs_link.hpp"
#include "oci/modulation/gf256.hpp"
#include "oci/modulation/reed_solomon.hpp"
#include "oci/util/random.hpp"

namespace gf = oci::modulation::gf256;
using oci::modulation::ReedSolomon;
using oci::util::RngStream;

// ---------- GF(256) ----------

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf::add(0xFF, 0xFF), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(x, 1), x);
    EXPECT_EQ(gf::mul(1, x), x);
    EXPECT_EQ(gf::mul(x, 0), 0);
    EXPECT_EQ(gf::mul(0, x), 0);
  }
}

TEST(Gf256, EveryNonZeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(x, gf::inv(x)), 1) << "a = " << a;
  }
}

TEST(Gf256, MultiplicationCommutesAndAssociates) {
  RngStream rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, MultiplicationDistributesOverAddition) {
  RngStream rng(13);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf::mul(a, gf::add(b, c)), gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, AlphaGeneratesTheFullGroup) {
  std::set<std::uint8_t> seen;
  for (unsigned i = 0; i < 255; ++i) seen.insert(gf::alpha_pow(i));
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);
  EXPECT_EQ(gf::alpha_pow(255), gf::alpha_pow(0));  // order 255
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (int a : {2, 3, 29, 255}) {
    std::uint8_t acc = 1;
    for (unsigned n = 0; n < 40; ++n) {
      EXPECT_EQ(gf::pow(static_cast<std::uint8_t>(a), n), acc);
      acc = gf::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

TEST(Gf256, PolyEvalHorner) {
  // p(x) = 3 + 2x + x^2 at x = alpha: evaluate manually.
  const std::vector<std::uint8_t> p{3, 2, 1};
  const std::uint8_t x = gf::alpha_pow(1);
  const std::uint8_t expected =
      gf::add(gf::add(3, gf::mul(2, x)), gf::mul(x, x));
  EXPECT_EQ(gf::poly_eval(p, x), expected);
}

TEST(Gf256, PolyMulDegreesAndIdentity) {
  const std::vector<std::uint8_t> p{5, 7, 11};
  const std::vector<std::uint8_t> one{1};
  EXPECT_EQ(gf::poly_mul(p, one), p);
  const auto sq = gf::poly_mul(p, p);
  EXPECT_EQ(sq.size(), 5u);
}

TEST(Gf256, PolyMulEvaluationHomomorphism) {
  RngStream rng(17);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> a(4), b(3);
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto prod = gf::poly_mul(a, b);
    const auto x = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf::poly_eval(prod, x), gf::mul(gf::poly_eval(a, x), gf::poly_eval(b, x)));
  }
}

TEST(Gf256, DerivativeKeepsOddTerms) {
  // d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + c3 x^2 in char 2.
  const std::vector<std::uint8_t> p{9, 8, 7, 6};
  const auto d = gf::poly_derivative(p);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 8);
  EXPECT_EQ(d[1], 0);
  EXPECT_EQ(d[2], 6);
}

// ---------- Reed-Solomon ----------

std::vector<std::uint8_t> random_bytes(std::size_t n, RngStream& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

TEST(ReedSolomonCode, RejectsBadGeometry) {
  EXPECT_THROW(ReedSolomon(0, 8), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(16, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(16, 7), std::invalid_argument);  // odd parity count
  EXPECT_THROW(ReedSolomon(250, 8), std::invalid_argument); // n > 255
  EXPECT_NO_THROW(ReedSolomon(223, 32));                    // the classic code
}

TEST(ReedSolomonCode, EncodeIsSystematic) {
  ReedSolomon rs(16, 8);
  RngStream rng(19);
  const auto data = random_bytes(16, rng);
  const auto code = rs.encode(data);
  ASSERT_EQ(code.size(), 24u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), code.begin()));
}

TEST(ReedSolomonCode, CleanRoundTrip) {
  ReedSolomon rs(32, 8);
  RngStream rng(23);
  const auto data = random_bytes(32, rng);
  const auto code = rs.encode(data);
  const auto result = rs.decode(code);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->corrected_errors, 0u);
  EXPECT_EQ(result->corrected_erasures, 0u);
}

TEST(ReedSolomonCode, CorrectsSingleErrorAtEveryPosition) {
  ReedSolomon rs(10, 4);
  RngStream rng(29);
  const auto data = random_bytes(10, rng);
  const auto code = rs.encode(data);
  for (std::size_t pos = 0; pos < code.size(); ++pos) {
    auto corrupted = code;
    corrupted[pos] ^= 0x5A;
    const auto result = rs.decode(corrupted);
    ASSERT_TRUE(result.has_value()) << "pos " << pos;
    EXPECT_EQ(result->data, data) << "pos " << pos;
    EXPECT_EQ(result->corrected_errors, 1u) << "pos " << pos;
  }
}

TEST(ReedSolomonCode, CorrectsUpToTErrors) {
  ReedSolomon rs(40, 16);  // t = 8
  RngStream rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto data = random_bytes(40, rng);
    auto code = rs.encode(data);
    std::vector<std::size_t> positions(code.size());
    std::iota(positions.begin(), positions.end(), 0u);
    std::shuffle(positions.begin(), positions.end(), rng.engine());
    const auto n_err = static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t e = 0; e < n_err; ++e) {
      std::uint8_t flip = 0;
      while (flip == 0) flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      code[positions[e]] ^= flip;
    }
    const auto result = rs.decode(code);
    ASSERT_TRUE(result.has_value()) << "trial " << trial << " n_err " << n_err;
    EXPECT_EQ(result->data, data);
    EXPECT_EQ(result->corrected_errors, n_err);
  }
}

TEST(ReedSolomonCode, BeyondCapabilityNeverDeliversWrongDataSilentlyAsOriginal) {
  // With > t errors the decoder must either fail or settle on a
  // DIFFERENT codeword; it can never reproduce the original (that
  // would contradict the error count).
  ReedSolomon rs(20, 6);  // t = 3
  RngStream rng(37);
  int failures = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto data = random_bytes(20, rng);
    auto code = rs.encode(data);
    std::vector<std::size_t> positions(code.size());
    std::iota(positions.begin(), positions.end(), 0u);
    std::shuffle(positions.begin(), positions.end(), rng.engine());
    for (std::size_t e = 0; e < 5; ++e) {  // t + 2 errors
      std::uint8_t flip = 0;
      while (flip == 0) flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      code[positions[e]] ^= flip;
    }
    const auto result = rs.decode(code);
    if (!result) {
      ++failures;
    } else {
      EXPECT_NE(result->data, data);
    }
  }
  // The vast majority of 5-error patterns on a distance-7 code are
  // detected rather than miscorrected.
  EXPECT_GT(failures, 80);
}

TEST(ReedSolomonCode, CorrectsParityManyErasures) {
  // Erasures cost half: parity=8 corrects up to 8 known-position losses.
  ReedSolomon rs(24, 8);
  RngStream rng(41);
  const auto data = random_bytes(24, rng);
  const auto code = rs.encode(data);
  auto corrupted = code;
  const std::vector<std::size_t> erasures{0, 5, 11, 17, 23, 26, 29, 31};
  for (const auto e : erasures) corrupted[e] = 0xEE;
  const auto result = rs.decode(corrupted, erasures);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->corrected_erasures, erasures.size());
  // Note: positions whose "corruption" left the byte unchanged still
  // count as erasures supplied, but only actual flips are reported.
}

TEST(ReedSolomonCode, ErrorsAndErasuresMixedAtTheBound) {
  // 2*errors + erasures <= parity: with parity 8, 2 errors + 4
  // erasures saturates the bound and must still decode.
  ReedSolomon rs(30, 8);
  RngStream rng(43);
  const auto data = random_bytes(30, rng);
  const auto code = rs.encode(data);
  auto corrupted = code;
  const std::vector<std::size_t> erasures{2, 9, 20, 33};
  for (const auto e : erasures) corrupted[e] ^= 0x77;
  corrupted[14] ^= 0x01;
  corrupted[27] ^= 0xF0;
  const auto result = rs.decode(corrupted, erasures);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->corrected_errors, 2u);
  EXPECT_EQ(result->corrected_erasures, 4u);
}

TEST(ReedSolomonCode, MixedBeyondBoundFails) {
  // 3 errors + 4 erasures = 10 > 8: must not deliver the original.
  ReedSolomon rs(30, 8);
  RngStream rng(47);
  const auto data = random_bytes(30, rng);
  const auto code = rs.encode(data);
  auto corrupted = code;
  const std::vector<std::size_t> erasures{2, 9, 20, 33};
  for (const auto e : erasures) corrupted[e] ^= 0x77;
  corrupted[14] ^= 0x01;
  corrupted[27] ^= 0xF0;
  corrupted[5] ^= 0x3C;
  const auto result = rs.decode(corrupted, erasures);
  if (result) { EXPECT_NE(result->data, data); }
}

TEST(ReedSolomonCode, ShortenedBlocksWork) {
  // Tail blocks of a chunked payload use k < block size with the same
  // parity count.
  for (std::size_t k : {1u, 2u, 5u, 13u}) {
    ReedSolomon rs(k, 4);
    RngStream rng(53 + k);
    const auto data = random_bytes(k, rng);
    auto code = rs.encode(data);
    code[k / 2] ^= 0xA5;  // one error
    const auto result = rs.decode(code);
    ASSERT_TRUE(result.has_value()) << "k = " << k;
    EXPECT_EQ(result->data, data);
  }
}

TEST(ReedSolomonCode, DecodeRejectsWrongLength) {
  ReedSolomon rs(16, 8);
  const std::vector<std::uint8_t> short_word(10, 0);
  EXPECT_FALSE(rs.decode(short_word).has_value());
}

TEST(ReedSolomonCode, DecodeRejectsOutOfRangeErasure) {
  ReedSolomon rs(16, 8);
  const std::vector<std::uint8_t> word(24, 0);
  const std::vector<std::size_t> erasures{24};
  EXPECT_FALSE(rs.decode(word, erasures).has_value());
}

// Property sweep: every (k, parity) geometry corrects exactly t errors.
class RsGeometry : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RsGeometry, CorrectsExactlyTErrors) {
  const auto [k, parity] = GetParam();
  ReedSolomon rs(k, parity);
  RngStream rng(59 + k * 31 + parity);
  const auto data = random_bytes(k, rng);
  auto code = rs.encode(data);
  std::vector<std::size_t> positions(code.size());
  std::iota(positions.begin(), positions.end(), 0u);
  std::shuffle(positions.begin(), positions.end(), rng.engine());
  for (std::size_t e = 0; e < rs.t(); ++e) {
    std::uint8_t flip = 0;
    while (flip == 0) flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    code[positions[e]] ^= flip;
  }
  const auto result = rs.decode(code);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data, data);
  EXPECT_EQ(result->corrected_errors, rs.t());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RsGeometry,
    ::testing::Combine(::testing::Values(std::size_t{4}, std::size_t{16}, std::size_t{64},
                                         std::size_t{223}),
                       ::testing::Values(std::size_t{2}, std::size_t{8}, std::size_t{16},
                                         std::size_t{32})),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- RS link ----------

oci::link::OpticalLinkConfig rs_link_config() {
  oci::link::OpticalLinkConfig c;
  c.design = oci::link::TdcDesign{64, 4, oci::util::Time::picoseconds(52.0)};
  c.bits_per_symbol = 8;
  c.channel_transmittance = 0.8;
  c.led.peak_power = oci::util::Power::microwatts(50.0);
  c.spad.jitter_sigma = oci::util::Time::zero();
  c.spad.dcr_at_ref = oci::util::Frequency::hertz(0.0);
  c.spad.afterpulse_probability = 0.0;
  c.calibration_samples = 50000;
  return c;
}

TEST(RsLink, CleanChannelRoundTrip) {
  RngStream rng(61);
  const oci::link::OpticalLink link(rs_link_config(), rng);
  const oci::link::RsLink rs(link);
  RngStream tx(67);
  const std::vector<std::uint8_t> payload{'r', 's', '-', 'l', 'i', 'n', 'k', 0, 255};
  const auto r = rs.transfer(payload, tx);
  ASSERT_TRUE(r.payload.has_value());
  EXPECT_EQ(*r.payload, payload);
  EXPECT_EQ(r.corrected_errors, 0u);
  EXPECT_EQ(r.corrected_erasures, 0u);
}

TEST(RsLink, RejectsBadGeometry) {
  RngStream rng(71);
  const oci::link::OpticalLink link(rs_link_config(), rng);
  oci::link::RsLinkConfig bad;
  bad.parity_bytes = 3;  // odd
  EXPECT_THROW(oci::link::RsLink(link, bad), std::invalid_argument);
}

TEST(RsLink, CodedBytesAccountsForBlocksAndCrc) {
  RngStream rng(73);
  const oci::link::OpticalLink link(rs_link_config(), rng);
  oci::link::RsLinkConfig cfg;
  cfg.block_data_bytes = 8;
  cfg.parity_bytes = 4;
  const oci::link::RsLink rs(link, cfg);
  // 15 payload + 1 CRC = 16 = two full blocks -> + 2*4 parity.
  EXPECT_EQ(rs.coded_bytes_for(15), 24u);
  // 16 payload + 1 CRC = 17 -> 2 full + 1-byte tail -> + 3*4 parity.
  EXPECT_EQ(rs.coded_bytes_for(16), 29u);
}

TEST(RsLink, CorrectsErasuresFromWeakPulses) {
  // Starve the link so a sizeable fraction of windows see no photon:
  // those erasures are KNOWN positions and RS fills them in. Slots are
  // widened (6 bits -> 832 ps) so the first-photon timing spread of a
  // dim pulse stays inside the slot and erasures are the ONLY
  // impairment.
  auto cfg = rs_link_config();
  cfg.bits_per_symbol = 6;
  // ~3.4 mean detected photons/pulse -> ~3% erasure probability.
  cfg.led.peak_power = oci::util::Power::nanowatts(40.0);
  cfg.channel_transmittance = 0.5;
  RngStream rng(79);
  const oci::link::OpticalLink link(cfg, rng);

  oci::link::RsLinkConfig rs_cfg;
  rs_cfg.block_data_bytes = 16;
  rs_cfg.parity_bytes = 8;
  const oci::link::RsLink rs(link, rs_cfg);

  RngStream tx(83);
  const std::vector<std::uint8_t> payload(24, 0xAB);
  std::size_t delivered = 0, erasure_fixes = 0;
  const int transfers = 40;
  for (int i = 0; i < transfers; ++i) {
    const auto r = rs.transfer(payload, tx);
    if (r.payload && *r.payload == payload) {
      ++delivered;
      erasure_fixes += r.corrected_erasures;
    }
  }
  EXPECT_GT(delivered, transfers * 3 / 5);
  EXPECT_GT(erasure_fixes, 0u);
}

TEST(RsLink, NeverDeliversCorruptPayload) {
  auto cfg = rs_link_config();
  cfg.spad.jitter_sigma = oci::util::Time::picoseconds(500.0);  // catastrophic
  RngStream rng(89);
  const oci::link::OpticalLink link(cfg, rng);
  const oci::link::RsLink rs(link);
  RngStream tx(97);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 30; ++i) {
    const auto r = rs.transfer(payload, tx);
    if (r.payload) { EXPECT_EQ(*r.payload, payload); }
  }
}

// ---------- RS capability surface ----------

// For every parity p and every split 2e + f <= p, a random pattern of e
// errors and f erasures must decode to the original data.
class RsCapability : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsCapability, EveryMixWithinTheBoundDecodes) {
  const std::size_t parity = GetParam();
  const std::size_t k = 30;
  ReedSolomon rs(k, parity);
  RngStream rng(401 + parity);

  for (std::size_t errors = 0; 2 * errors <= parity; ++errors) {
    const std::size_t erasures = parity - 2 * errors;
    std::vector<std::uint8_t> data(k);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    auto code = rs.encode(data);

    std::vector<std::size_t> positions(code.size());
    std::iota(positions.begin(), positions.end(), 0u);
    std::shuffle(positions.begin(), positions.end(), rng.engine());

    std::vector<std::size_t> erased(positions.begin(),
                                    positions.begin() + static_cast<std::ptrdiff_t>(erasures));
    for (const auto pos : erased) code[pos] = static_cast<std::uint8_t>(~code[pos]);
    for (std::size_t e = 0; e < errors; ++e) {
      std::uint8_t flip = 0;
      while (flip == 0) flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      code[positions[erasures + e]] ^= flip;
    }

    const auto result = rs.decode(code, erased);
    ASSERT_TRUE(result.has_value()) << "parity " << parity << " errors " << errors;
    EXPECT_EQ(result->data, data) << "parity " << parity << " errors " << errors;
  }
}

INSTANTIATE_TEST_SUITE_P(Parity, RsCapability,
                         ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                           std::size_t{12}, std::size_t{16},
                                           std::size_t{32}),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

// Whatever the decoder returns must re-encode to itself: the output is
// always a valid codeword, even when the input corruption exceeded the
// design bound (fuzz over heavy corruption).
TEST(RsFuzz, DecodedDataAlwaysReencodesConsistently) {
  ReedSolomon rs(20, 8);
  RngStream rng(409);
  int successes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> data(20);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    auto code = rs.encode(data);
    const auto corruptions = static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t c = 0; c < corruptions; ++c) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(code.size()) - 1));
      code[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto result = rs.decode(code);
    if (!result) continue;
    ++successes;
    // Re-encoding the delivered data must reproduce a codeword that
    // decodes cleanly to the same data (self-consistency).
    const auto reencoded = rs.encode(result->data);
    const auto second = rs.decode(reencoded);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->data, result->data);
    EXPECT_EQ(second->corrected_errors, 0u);
  }
  EXPECT_GT(successes, 50);  // the light-corruption trials must decode
}
