// Reproduces Figure 3 of Favi & Charbon (DAC 2008): the DNL
// characteristic of the two-step TDC, measured with a code-density test.
//
// Paper setup: Xilinx XC2VP40, 200 MHz system clock (5 ns period), a
// 96-element fine chain of which 93 were used at 20 C; INL below 1 LSB.
// Our setup: simulated delay line with delta ~ 53.8 ps nominal and 12%
// static element mismatch, same clock, >= 1M uniform hits.
#include <benchmark/benchmark.h>

#include <iostream>

#include "oci/analysis/report.hpp"
#include "oci/tdc/calibration.hpp"
#include "oci/tdc/tdc.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080608;  // DAC 2008 :-)
constexpr std::uint64_t kHits = 2000000;

tdc::Tdc make_paper_tdc(std::uint64_t seed) {
  tdc::DelayLineParams p;
  p.elements = 96;
  // 5 ns / 93 used elements ~ 53.8 ps per element, matching the paper's
  // "93 of 96 used at 20 C" on a 200 MHz clock.
  p.nominal_delay = Time::picoseconds(53.8);
  // FPGA carry chains show a strong systematic odd/even sawtooth (taps
  // route through different fabric) plus moderate random mismatch: that
  // combination produces Figure 3's large DNL ripple with INL < 1 LSB.
  p.mismatch_sigma = 0.06;
  p.odd_even_skew = 0.35;
  p.metastability_window = Time::picoseconds(4.0);
  RngStream rng(seed, "fig3-process");
  tdc::DelayLine line(p, rng);
  tdc::TdcConfig cfg;
  cfg.coarse_bits = 0;  // fine interpolation only, as in the Fig. 3 sweep
  cfg.clock_period = Time::nanoseconds(5.0);  // 200 MHz
  return tdc::Tdc(std::move(line), cfg);
}

void print_reproduction() {
  analysis::print_banner(
      std::cout, "Figure 3 reproduction",
      "TDC DNL characteristic via code-density test (200 MHz clock, N=96 chain)", kSeed);

  const tdc::Tdc tdc = make_paper_tdc(kSeed);
  RngStream rng(kSeed, "fig3-hits");
  const auto rep = tdc::code_density_test(tdc, kHits, rng);

  std::cout << "\nelements in chain     : " << tdc.line().size()
            << "\nelements used @ 20 C  : " << tdc.line().elements_used(tdc.clock_period())
            << "   (paper: 93 of 96)"
            << "\neffective LSB         : " << util::si_format(rep.lsb_s, "s")
            << "\ncode-density hits     : " << rep.samples
            << "\nmax |DNL|             : " << rep.max_abs_dnl << " LSB"
            << "\nmax |INL|             : " << rep.max_abs_inl
            << " LSB   (paper: INL below 1 LSB)\n";

  std::cout << "\nDNL per fine code [LSB] (ASCII rendering of Figure 3):\n";
  analysis::ascii_profile(std::cout, rep.dnl_lsb, 1.0, 48, 28);

  util::Table table({"code", "bin width [ps]", "DNL [LSB]", "INL [LSB]"});
  for (std::size_t k = 0; k < rep.codes; k += 8) {
    table.new_row()
        .add_cell(static_cast<std::uint64_t>(k))
        .add_cell(rep.bin_width_s[k] * 1e12, 2)
        .add_cell(rep.dnl_lsb[k], 3)
        .add_cell(rep.inl_lsb[k], 3);
  }
  std::cout << "\nSampled rows (every 8th code):\n";
  table.print(std::cout);

  std::cout << "\nShape check vs paper: DNL ripple within ~±1 LSB -> "
            << (rep.max_abs_dnl <= 1.0 ? "PASS" : "FAIL") << ", INL < 1 LSB -> "
            << (rep.max_abs_inl < 1.0 ? "PASS" : "FAIL") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
