// Ablation: multipulse PPM -- what the SPAD-array receiver unlocks.
//
// Classic PPM carries log2(n) bits per window because a single SPAD
// can resolve exactly one pulse per detection cycle. An M-diode array
// (abl_spad_array) recovers in dead/M, so w pulses per window become
// decodable and the window carries log2(C(n, w)) bits instead. The
// separation rule couples the two: pulses must sit at least
// ceil(array recovery / slot width) slots apart.
//
//  (a) bits per window vs pulse count at fixed n, with the separation
//      implied by each array size;
//  (b) throughput: MPPM bits / window time vs the paper's single-pulse
//      TP(N,C) at the same TDC design and SPAD.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "oci/analysis/report.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/modulation/mppm.hpp"
#include "oci/spad/array.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using modulation::MppmCodec;
using modulation::MppmConfig;
using util::Time;

constexpr std::uint64_t kSeed = 20080618;

void bits_table() {
  // The paper's best 40 ns-SPAD design: N=8, C=7 -> 1024 x 416 ps
  // wide TOA window. Express it as 256 slots of 208 ps.
  const Time slot = Time::picoseconds(208.0);
  const std::uint64_t slots = 256;
  const Time dead = Time::nanoseconds(40.0);

  util::Table t({"array diodes M", "recovery [ns]", "min sep [slots]", "pulses w",
                 "codewords", "bits/window", "vs PPM (8 bits)"});
  for (const std::size_t m : {1u, 2u, 4u, 8u}) {
    const Time recovery = Time::seconds(dead.seconds() / static_cast<double>(m));
    const auto sep = static_cast<std::uint64_t>(
        std::ceil(recovery.seconds() / slot.seconds()));
    for (const unsigned w : {1u, 2u, 3u}) {
      if (w > m) continue;  // need one armed diode per in-flight pulse
      const std::uint64_t count = modulation::constrained_codewords(slots, w, sep);
      if (count < 2) continue;
      MppmConfig cfg;
      cfg.slots = slots;
      cfg.pulses = w;
      cfg.min_slot_separation = sep;
      const MppmCodec codec(cfg);
      t.new_row()
          .add_cell(static_cast<double>(m), 0)
          .add_cell(recovery.nanoseconds(), 1)
          .add_cell(static_cast<double>(sep), 0)
          .add_cell(static_cast<double>(w), 0)
          .add_cell(static_cast<double>(codec.codeword_count()), 0)
          .add_cell(static_cast<double>(codec.bits_per_symbol()), 0)
          .add_cell(static_cast<double>(codec.bits_per_symbol()) / 8.0, 2);
    }
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (a): with one diode the 40 ns recovery spans ~193 of\n"
         "256 slots, so no second pulse fits and MPPM degenerates to PPM.\n"
         "Every doubling of the array halves the separation rule: M = 2\n"
         "already fits a second pulse (13 bits, 1.6x), and by M = 4 a\n"
         "three-pulse word carries 19 bits -- 2.4x single-pulse PPM.\n\n";
}

void throughput_table() {
  // Same MW(N,C) wall-clock; bits per window from the codec above.
  const link::TdcDesign design{8, 7, Time::picoseconds(52.0)};
  const Time mw = link::measurement_window(design);
  const Time slot = Time::picoseconds(208.0);
  const std::uint64_t slots = 256;
  const Time dead = Time::nanoseconds(40.0);

  util::Table t({"scheme", "array M", "bits/window", "TP [Mbps]", "gain"});
  const double ppm_tp = link::throughput(design).bits_per_second();
  t.new_row()
      .add_cell(std::string("PPM (paper)"))
      .add_cell(1.0, 0)
      .add_cell(8.0, 0)
      .add_cell(ppm_tp / 1e6, 1)
      .add_cell(1.0, 2);
  for (const std::size_t m : {2u, 4u, 8u}) {
    const auto sep = static_cast<std::uint64_t>(std::ceil(
        dead.seconds() / static_cast<double>(m) / slot.seconds()));
    unsigned best_bits = 0;
    unsigned best_w = 0;
    for (unsigned w = 1; w <= m && w <= 3; ++w) {
      if (modulation::constrained_codewords(slots, w, sep) < 2) continue;
      MppmConfig cfg;
      cfg.slots = slots;
      cfg.pulses = w;
      cfg.min_slot_separation = sep;
      const MppmCodec codec(cfg);
      if (codec.bits_per_symbol() > best_bits) {
        best_bits = codec.bits_per_symbol();
        best_w = w;
      }
    }
    const double tp = static_cast<double>(best_bits) / mw.seconds();
    t.new_row()
        .add_cell(std::string("MPPM w=") + std::to_string(best_w))
        .add_cell(static_cast<double>(m), 0)
        .add_cell(static_cast<double>(best_bits), 0)
        .add_cell(tp / 1e6, 1)
        .add_cell(tp / ppm_tp, 2);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (b): MPPM converts array diodes into 1.3-2.0x\n"
         "throughput at UNCHANGED window timing -- an alternative to\n"
         "shrinking DC(N,C) that the paper's single-pulse analysis leaves\n"
         "on the table, and it composes with the dead-time-division gain\n"
         "that abl_spad_array measures.\n";
}

void print_reproduction() {
  analysis::print_banner(std::cout, "Ablation 15: multipulse PPM over a SPAD array",
                         "bits per window and throughput vs array size under "
                         "the recovery-separation rule",
                         kSeed);
  bits_table();
  throughput_table();
}

void BM_MppmRoundTrip(benchmark::State& state) {
  MppmConfig cfg;
  cfg.slots = 256;
  cfg.pulses = 3;
  cfg.min_slot_separation = 25;
  const MppmCodec codec(cfg);
  std::uint64_t s = 0;
  const std::uint64_t max = std::uint64_t{1} << codec.bits_per_symbol();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(codec.encode(s)));
    s = (s + 12345) % max;
  }
}
BENCHMARK(BM_MppmRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
