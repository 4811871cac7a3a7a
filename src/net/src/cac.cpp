#include "oci/net/cac.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace oci::net::cac {

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  if (n < 4) return true;
  if (n % 2 == 0) return false;
  for (std::uint64_t d = 3; d * d <= n; d += 2) {
    if (n % d == 0) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) {
  if (n <= 2) return 2;
  std::uint64_t c = n | 1;  // first odd >= n
  while (!is_prime(c)) c += 2;
  return c;
}

std::vector<std::uint32_t> equi_difference_generators(std::uint64_t p, std::size_t weight) {
  if (weight < 2) {
    throw std::invalid_argument("cac: equi-difference generators need weight >= 2");
  }
  if (!is_prime(p) || p <= 2 * (weight - 1)) {
    throw std::invalid_argument("cac: frame must be a prime > 2*(weight-1), got " +
                                std::to_string(p));
  }
  // Greedy packing of difference sets {±g, ±2g, ..., ±(w-1)g}. With
  // p > 2(w-1) the 2(w-1) differences of one generator are pairwise
  // distinct (kg ≡ jg needs k = j; kg ≡ -jg needs p | k+j, impossible
  // for k+j <= 2(w-1) < p), so marking them is exact. g and p-g share
  // a difference set, so the scan naturally admits at most one of each
  // ± pair; for weight 2 it accepts every g <= (p-1)/2 -- the optimal
  // (p-1)/2 codewords of the prime-length constructions.
  std::vector<std::uint32_t> generators;
  std::vector<char> used(static_cast<std::size_t>(p), 0);
  for (std::uint64_t g = 1; g < p; ++g) {
    bool free = true;
    for (std::size_t k = 1; k < weight && free; ++k) {
      const std::uint64_t d = (static_cast<std::uint64_t>(k) * g) % p;
      free = used[static_cast<std::size_t>(d)] == 0 &&
             used[static_cast<std::size_t>(p - d)] == 0;
    }
    if (!free) continue;
    for (std::size_t k = 1; k < weight; ++k) {
      const std::uint64_t d = (static_cast<std::uint64_t>(k) * g) % p;
      used[static_cast<std::size_t>(d)] = 1;
      used[static_cast<std::size_t>(p - d)] = 1;
    }
    generators.push_back(static_cast<std::uint32_t>(g));
  }
  return generators;
}

std::vector<std::uint32_t> codeword(std::uint32_t g, std::size_t weight, std::uint64_t p) {
  if (weight == 0) throw std::invalid_argument("cac: codeword weight must be >= 1");
  if (p == 0) throw std::invalid_argument("cac: frame length must be >= 1");
  std::vector<std::uint32_t> slots;
  slots.reserve(weight);
  if (weight == 1) {
    slots.push_back(0);
    return slots;
  }
  for (std::size_t k = 0; k < weight; ++k) {
    slots.push_back(static_cast<std::uint32_t>((static_cast<std::uint64_t>(k) * g) % p));
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::size_t frame_capacity(std::uint64_t p, std::size_t weight) {
  if (weight == 0 || p == 0) return 0;
  if (weight == 1) return static_cast<std::size_t>(p);
  if (!is_prime(p) || p <= 2 * (weight - 1)) return 0;
  return equi_difference_generators(p, weight).size();
}

std::uint64_t auto_frame(std::size_t count, std::size_t weight) {
  if (weight == 0) throw std::invalid_argument("cac: codeword weight must be >= 1");
  count = std::max<std::size_t>(count, 1);
  if (weight == 1) return next_prime(count);
  // Capacity is bounded by (p-1)/(2(w-1)) occupied differences, so
  // start at the first prime that could possibly fit and walk up (the
  // greedy family reaches the bound for weight 2; higher weights may
  // need a step or two more).
  std::uint64_t p = next_prime(2 * (weight - 1) * count + 1);
  while (frame_capacity(p, weight) < count) p = next_prime(p + 1);
  return p;
}

DistributedAllocator::DistributedAllocator(AllocConfig config) : config_(config) {
  if (config_.nodes == 0) throw std::invalid_argument("cac: allocator needs nodes >= 1");
  if (config_.wavelengths == 0) {
    throw std::invalid_argument("cac: allocator needs wavelengths >= 1");
  }
  if (config_.weight == 0) throw std::invalid_argument("cac: allocator needs weight >= 1");
  const std::size_t per_wavelength =
      (config_.nodes + config_.wavelengths - 1) / config_.wavelengths;
  if (config_.frame == 0) {
    frame_ = auto_frame(per_wavelength, config_.weight);
  } else {
    frame_ = config_.frame;
    if (frame_capacity(frame_, config_.weight) < per_wavelength) {
      throw std::invalid_argument(
          "cac: frame " + std::to_string(frame_) + " is not a prime with capacity for " +
          std::to_string(per_wavelength) + " weight-" + std::to_string(config_.weight) +
          " codewords per wavelength (auto frame: " +
          std::to_string(auto_frame(per_wavelength, config_.weight)) + ")");
    }
  }
}

Allocation DistributedAllocator::allocate(util::RngStream& rng) const {
  const std::size_t n = config_.nodes;
  const std::size_t wls = config_.wavelengths;
  const std::size_t w = config_.weight;
  const auto p = static_cast<std::size_t>(frame_);

  Allocation out;
  out.frame = frame_;
  out.wavelengths = wls;
  out.wavelength.resize(n);
  out.phase.resize(n);
  out.slots.resize(n);

  // Wavelengths are a balanced round-robin colouring; within each
  // wavelength node ranks index the greedy equi-difference family, so
  // two same-wavelength nodes always hold difference-disjoint codewords
  // (the λ <= 1 CAC bound holds for ANY phases). weight == 1 gives
  // every node the degenerate {0} codeword; phases alone separate them.
  std::vector<std::uint32_t> generators;
  if (w >= 2) {
    const std::size_t per_wavelength = (n + wls - 1) / wls;
    generators = equi_difference_generators(frame_, w);
    if (generators.size() < per_wavelength) {
      throw std::logic_error("cac: frame capacity regressed below the constructor check");
    }
  }
  std::vector<std::vector<std::uint32_t>> base(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.wavelength[i] = static_cast<std::uint32_t>(i % wls);
    const std::uint32_t g = w >= 2 ? generators[i / wls] : 0;
    base[i] = codeword(g, w, frame_);
    out.phase[i] = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(p) - 1));
  }

  // Per-(wavelength, slot) occupancy the local moves steer against,
  // stored twice: wavelength wl's row holds slot s at cells s and
  // s + p, so the cells of a codeword at any phase, phase + c < 2p,
  // need no wrap.
  std::vector<std::uint32_t> load(wls * 2 * p, 0);
  auto row = [&](std::size_t wl) { return load.data() + wl * 2 * p; };
  // (phase + c) mod p for a phase and a codeword slot both below p: one
  // conditional subtract instead of a division.
  auto wrap = [p](std::size_t phase, std::uint32_t c) -> std::size_t {
    const std::size_t slot = phase + c;
    return slot >= p ? slot - p : slot;
  };
  // Adds node i's pulses (delta 1) or withdraws them (delta -1: the
  // unsigned sum wraps to a decrement).
  auto occupy = [&](std::size_t i, int delta) {
    const auto step = static_cast<std::uint32_t>(delta);
    std::uint32_t* cells = row(out.wavelength[i]);
    for (const std::uint32_t c : base[i]) {
      const std::size_t slot = wrap(out.phase[i], c);
      cells[slot] += step;
      cells[slot + p] += step;
    }
  };
  for (std::size_t i = 0; i < n; ++i) occupy(i, 1);

  // C-CoCoA-style refinement: a fixed node order, each node in turn
  // withdrawing its pulses and re-picking the phase with the smallest
  // conflict count against the neighbours currently sharing its
  // wavelength. Ties keep the current phase (no oscillation), then
  // prefer the smallest phase -- fully deterministic. A phase's cost
  // sums one contiguous run of the doubled row per codeword slot; it
  // is at most weight x nodes, so 32 bits hold it exactly.
  std::vector<std::uint32_t> cost(p);
  out.rounds_used = 0;
  for (unsigned round = 0; round < config_.rounds; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      occupy(i, -1);
      const std::uint32_t* cells = row(out.wavelength[i]);
      std::fill(cost.begin(), cost.end(), 0u);
      for (const std::uint32_t c : base[i]) {
        const std::uint32_t* shifted = cells + c;
        for (std::size_t phase = 0; phase < p; ++phase) cost[phase] += shifted[phase];
      }
      std::uint32_t least = cost[0];
      for (const std::uint32_t v : cost) least = std::min(least, v);
      if (cost[out.phase[i]] != least) {
        out.phase[i] = static_cast<std::uint32_t>(
            std::find(cost.begin(), cost.end(), least) - cost.begin());
        changed = true;
      }
      occupy(i, 1);
    }
    ++out.rounds_used;
    if (!changed) break;
  }

  out.conflict_mass = 0;
  for (std::size_t wl = 0; wl < wls; ++wl) {
    for (std::size_t slot = 0; slot < p; ++slot) {
      const std::uint32_t occupancy = row(wl)[slot];
      if (occupancy > 1) out.conflict_mass += occupancy - 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& slots = out.slots[i];
    slots.reserve(base[i].size());
    for (const std::uint32_t c : base[i]) {
      slots.push_back(static_cast<std::uint32_t>(wrap(out.phase[i], c)));
    }
    std::sort(slots.begin(), slots.end());
  }
  return out;
}

}  // namespace oci::net::cac
