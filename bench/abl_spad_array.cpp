// Ablation: SPAD array receiver (extension). The single SPAD's dead
// time forces DC(N,C) >= ~40 ns; an M-diode OR-ed array divides the
// effective dead time by M, unlocking the faster corners of the paper's
// Figure 4 design space. This bench sweeps M and reports the unlocked
// best design and the Monte Carlo detection rate under photon streams a
// single diode cannot sustain.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "oci/analysis/report.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/spad/array.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;
using util::Wavelength;

constexpr std::uint64_t kSeed = 20080608;
const Time kDelta = Time::picoseconds(52.0);

spad::SpadArrayParams array_params(std::size_t m) {
  spad::SpadArrayParams p;
  p.diodes = m;
  p.fill_factor = 0.8;
  p.element.dead_time = Time::nanoseconds(40.0);
  p.element.dcr_at_ref = util::Frequency::hertz(350.0);
  return p;
}

void print_reproduction() {
  analysis::print_banner(std::cout, "Ablation 7: SPAD array receiver",
                         "effective dead time, unlocked (N,C) designs and "
                         "sustained detection rate vs array size M",
                         kSeed);

  util::Table t({"M (diodes)", "eff. dead time [ns]", "best N", "best C",
                 "best TP", "sustained rate @ 15ns spacing"});
  for (std::size_t m : {1, 2, 4, 8, 16}) {
    const auto params = array_params(m);
    const spad::SpadArray arr(params, Wavelength::nanometres(480.0));
    const auto best = link::best_design(kDelta, arr.effective_dead_time(), 8, 512, 0, 8);

    // Monte Carlo: photons every 15 ns (a single 40 ns diode is blind
    // for most of them); measure the fraction the array detects.
    RngStream rng(kSeed + m, "array");
    std::vector<photonics::PhotonArrival> photons;
    for (int i = 0; i < 2000; ++i) {
      photons.push_back({Time::nanoseconds(15.0 * i), true});
    }
    std::vector<Time> dead(m, Time::zero());
    const auto dets =
        arr.detect(photons, Time::zero(), Time::microseconds(30.01), rng, dead);
    const double rate =
        static_cast<double>(dets.size()) / static_cast<double>(photons.size());

    t.new_row()
        .add_cell(static_cast<std::uint64_t>(m))
        .add_cell(arr.effective_dead_time().nanoseconds(), 1)
        .add_cell(best ? best->design.fine_elements : 0)
        .add_cell(static_cast<std::uint64_t>(best ? best->design.coarse_bits : 0))
        .add_cell(best ? util::si_format(best->tp.bits_per_second(), "bps", 2) : "--")
        .add_cell(rate, 3);
  }
  t.print(std::cout);
  std::cout << "\nShape check: effective dead time scales as 1/M; each doubling of\n"
               "M roughly doubles the best feasible TP until the TDC conversion\n"
               "window (not the detector) becomes the bottleneck. The sustained\n"
               "detection rate saturates towards PDP x fill factor.\n";
}

void BM_ArrayDetect(benchmark::State& state) {
  const auto params = array_params(static_cast<std::size_t>(state.range(0)));
  const spad::SpadArray arr(params, Wavelength::nanometres(480.0));
  RngStream rng(kSeed, "bm-array");
  std::vector<photonics::PhotonArrival> photons;
  for (int i = 0; i < 500; ++i) photons.push_back({Time::nanoseconds(15.0 * i), true});
  std::vector<Time> dead(params.diodes, Time::zero());
  for (auto _ : state) {
    std::fill(dead.begin(), dead.end(), Time::zero());
    const auto detections = arr.detect(photons, Time::zero(), Time::microseconds(7.6), rng, dead);
    benchmark::DoNotOptimize(detections.size());
  }
}
BENCHMARK(BM_ArrayDetect)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
