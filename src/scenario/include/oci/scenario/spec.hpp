// Declarative experiment descriptions: one ScenarioSpec names a full
// paper-style experiment -- topology, device parameters, traffic shape,
// sweep axes, sample budget -- and ScenarioRunner (runner.hpp) resolves
// it onto the right engine path. The spec is plain data: it can be
// built in code (the ported abl_* benches), parsed from a text file
// (tools/run_scenario + parse.hpp), validated up front, and swept one
// axis value at a time through the spec table's keys, so every
// experiment in the repo speaks one vocabulary instead of hand-wiring
// OpticalLinkConfig/BatchRunner/Table per bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "oci/fault/fault.hpp"
#include "oci/rare/rare.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/photonics/wdm.hpp"

namespace oci::scenario {

/// Which engine path the scenario resolves to.
enum class Topology { kPointToPoint, kWdm, kVerticalBus, kStackNoc };

/// What flows over the topology. kAuto picks the topology's natural
/// mode (symbols for link/WDM/bus, packets for the stack NoC).
enum class TrafficMode { kAuto, kSymbols, kFrames, kCodeDensity, kPackets };

/// Outer code below the frame CRC (point-to-point frame traffic only).
enum class FecKind { kNone, kHamming };

/// Spatial traffic shape of a stack-NoC scenario.
enum class NocPattern { kUniform, kHotspot, kMasterBroadcast, kIncast, kBroadcastStorm };

/// Where a stack-NoC scenario gets its per-transfer delivery decision.
enum class NocDelivery {
  kScalar,    ///< fixed delivery_probability
  kFecProbe,  ///< measure FEC frame delivery on the device link, then scalar
  kEngine,    ///< photon-level SymbolDeliveryModel per transfer
};

/// One co-channel aggressor pulse train for point-to-point symbol
/// scenarios: every victim window also sees a pulse of `mean_photons`
/// (optical mean at the victim's detector plane) starting `offset_ps`
/// into the window. The victim link's LED supplies the envelope.
struct AggressorSpec {
  double mean_photons = 0.0;
  double offset_ps = 0.0;
};

/// Human-readable rendering of a numeric axis value -- the SAME
/// rendering RunPoint coordinates and labels use, so callers can build
/// lookup labels ("jitter_ps=" + format_axis_value(40.0)) without
/// duplicating the formatting rules.
[[nodiscard]] std::string format_axis_value(double value);

/// A named sweep axis. Numeric axes hold `values`; categorical axes
/// (MAC policy, FEC stack, technology node) hold `labels`. The sweep is
/// the Cartesian product of all axes, first axis slowest.
struct SweepAxis {
  std::string param;
  std::vector<double> values;
  std::vector<std::string> labels;

  [[nodiscard]] bool categorical() const { return !labels.empty(); }
  [[nodiscard]] std::size_t size() const {
    return categorical() ? labels.size() : values.size();
  }
  /// Printable value of point i ("120" / "token").
  [[nodiscard]] std::string display(std::size_t i) const;

  [[nodiscard]] static SweepAxis linear(std::string param, double lo, double hi,
                                        std::size_t n);
  [[nodiscard]] static SweepAxis logspace(std::string param, double lo, double hi,
                                          std::size_t n);
  [[nodiscard]] static SweepAxis list(std::string param, std::vector<double> values);
  [[nodiscard]] static SweepAxis categories(std::string param,
                                            std::vector<std::string> labels);
};

/// Per-point sample budget (symbols, transfers, slots, or calibration
/// hits depending on the traffic mode), routed through
/// analysis::repro_scale() so CI smoke runs shrink every scenario
/// uniformly.
struct BudgetSpec {
  std::uint64_t samples = 20000;
  std::uint64_t floor = 100;      ///< lower clamp after scaling
  bool repro_scaled = true;

  /// Samples actually run per sweep point.
  [[nodiscard]] std::uint64_t resolve() const;
};

/// Adaptive-precision description: instead of burning the fixed
/// BudgetSpec at every sweep point, ScenarioRunner grows each point in
/// deterministic chunks until the target metric's confidence interval
/// is tight enough (or a budget bound fires). Opt-in: enabled == false
/// keeps the fixed-budget semantics (exactly BudgetSpec::resolve()
/// samples per point, run as one chunk).
/// Counts route through analysis::repro_scale() when the budget does,
/// so CI smoke runs shrink adaptive scenarios the same way.
struct PrecisionSpec {
  bool enabled = false;
  /// Metric driving the stopping rule; "" = the topology's first
  /// rate-kind metric (ser, delivery_rate, carried_load, ...).
  std::string metric;
  /// Stop when the CI half-width is <= this absolute value (0 = off).
  double target_half_width = 0.0;
  /// Stop when the half-width is <= this fraction of the value (0 = off).
  double target_relative = 0.0;
  /// Rare-event early stop: upper bound already below this (0 = off).
  double stop_below = 0.0;
  /// z-score of the interval (1.96 = 95%, 2.576 = 99%).
  double confidence_z = 1.96;
  /// Samples per chunk; 0 = auto (a quarter of the fixed budget).
  std::uint64_t chunk = 0;
  /// Never stop before this many samples; 0 = one chunk.
  std::uint64_t min_samples = 0;
  /// Hard cap; 0 = auto (8x the fixed budget).
  std::uint64_t max_samples = 0;

  /// Resolved (repro-scaled, clamped) counts for one sweep point.
  [[nodiscard]] std::uint64_t resolve_chunk(const BudgetSpec& budget) const;
  [[nodiscard]] std::uint64_t resolve_min(const BudgetSpec& budget) const;
  [[nodiscard]] std::uint64_t resolve_max(const BudgetSpec& budget) const;
};

/// WDM-specific description (topology == kWdm). The per-channel device
/// template is ScenarioSpec::device.
struct WdmSpec {
  photonics::WdmGrid grid;
  photonics::WdmFilter filter;
  double path_transmittance = 0.5;
  /// > 0: route through a uniform die stack of this many dies and fold
  /// the wavelength-dependent silicon absorption into each channel.
  std::size_t stack_dies = 0;
  std::size_t from_die = 0;
  std::size_t to_die = 1;
};

/// Vertical-bus description (topology == kVerticalBus): a photon-level
/// master broadcast across `dies` thinned dies.
struct BusSpec {
  std::size_t dies = 8;
  std::size_t master = 0;
  photonics::DieSpec die;
  double min_detection_probability = 0.95;
};

/// Stack-NoC description (topology == kStackNoc).
struct NocSpec {
  std::size_t dies = 8;
  NocPattern pattern = NocPattern::kUniform;
  /// Aggregate offered load [packets/slot] split evenly (kUniform,
  /// kBroadcastStorm), the background load under a hotspot (kHotspot),
  /// or the aggregate converging on hot_die (kIncast).
  double offered_load = 0.5;
  /// kHotspot: the die sourcing hot_load; kIncast: the sink every
  /// other die sends to.
  std::size_t hot_die = 3;
  double hot_load = 0.9;
  double master_load = 0.25;  ///< kMasterBroadcast: master's broadcast rate
  double worker_load = 0.03;  ///< kMasterBroadcast: per-die reply rate
  std::string mac = "token";  ///< tdma | token | token+pass | aloha | cac
  /// mac == "cac": the DistributedAllocator knobs (alloc.* keys).
  /// Codeword weight w: transmission opportunities per frame per die.
  std::size_t alloc_weight = 2;
  /// Independent WDM channels the allocation may spread dies over; one
  /// clean transfer per wavelength per slot.
  std::size_t alloc_wavelengths = 1;
  /// Prime frame length; 0 = auto (smallest prime that fits
  /// ceil(dies / wavelengths) codewords per wavelength).
  std::uint64_t alloc_frame = 0;
  /// Max C-CoCoA refinement rounds (stops early on convergence).
  unsigned alloc_rounds = 8;
  std::size_t queue_capacity = 256;
  unsigned max_attempts = 4;
  NocDelivery delivery = NocDelivery::kScalar;
  double delivery_probability = 1.0;
  std::size_t payload_bytes = 8;
  /// FEC probe transfers measured per point (kFecProbe), repro-scaled
  /// with a floor of 20.
  std::uint64_t probe_transfers = 150;
};

/// The full declarative experiment description.
struct ScenarioSpec {
  std::string name = "scenario";
  std::string description;
  std::uint64_t seed = 42;
  Topology topology = Topology::kPointToPoint;
  TrafficMode mode = TrafficMode::kAuto;
  FecKind fec = FecKind::kNone;
  /// Frame payload for kFrames traffic.
  std::size_t payload_bytes = 24;
  /// Device under test: the per-channel optical link template (TDC
  /// design, LED, SPAD, guard, calibration). WDM overrides wavelength
  /// and transmittance per channel; the bus overrides transmittance per
  /// die; code-density mode reads design + delay_line only.
  link::OpticalLinkConfig device;
  std::vector<AggressorSpec> aggressors;
  WdmSpec wdm;
  BusSpec bus;
  NocSpec noc;
  /// Declarative fault injection (fault.* keys, sweepable): dead/hot
  /// SPAD pixels, dark/flaky transmit windows, TDC thermal drift,
  /// killed/attenuated WDM channels, dead NoC dies and broken links.
  /// Faults are realised deterministically per sweep point from a
  /// dedicated RNG stream, so degraded runs stay bit-identical across
  /// threads, shards and kernel dispatch. fault::FaultSpec::any() ==
  /// false (the default) leaves every engine path untouched.
  fault::FaultSpec fault;
  /// Rare-event acceleration (variance.* keys, sweepable): importance
  /// sampling via jitter/noise tilting or multilevel splitting over
  /// decode-margin bands, with likelihood-ratio-weighted estimates.
  /// Applies to point-to-point symbol traffic only; kind == kNone (the
  /// default) leaves every engine path untouched. The tilt factors and
  /// level schedule are part of the canonical spec text, so every knob
  /// re-keys the result cache.
  rare::RareSpec variance;
  std::vector<SweepAxis> sweep;
  BudgetSpec budget;
  PrecisionSpec precision;

  /// Traffic mode after kAuto resolution against the topology.
  [[nodiscard]] TrafficMode resolved_mode() const;

  /// Throws std::invalid_argument listing EVERY inconsistency (one per
  /// line) -- channel counts, impossible traffic/topology pairs, empty
  /// or unknown sweep axes, zero budgets.
  void validate() const;

  /// Total sweep points (product of axis sizes; 1 with no axes).
  [[nodiscard]] std::size_t sweep_points() const;
};

/// -- The spec table --------------------------------------------------
/// One table in spec.cpp lists the spec's keys and its canonical text
/// together. A row per hashed field, in canonical order, names the field
/// by its member path and, when a spec line sets it, the key with its
/// unit or labels; keys that are no single field (seed, description,
/// dies, tech_node, the precision targets, ...) are rows of their own.
/// A new field is one new row: it is then settable, sweepable and part
/// of the hash at once.
///
/// Keys are shared by sweep axes and the text-spec parser, so
/// `sweep.jitter_ps = 40, 80` and `jitter_ps = 40` touch the same
/// field. set_param parses `value` (numeric or categorical depending on
/// the key) and applies it; unknown keys or unparseable values throw
/// std::invalid_argument naming the key and the supported set. Numbers
/// must be finite; counts must be integers no larger than kMaxSpecCount
/// and fit their field.
void set_param(ScenarioSpec& spec, const std::string& key, const std::string& value);

/// Largest count a spec may state, 2^53 - 1: counts are parsed through a
/// double, which holds every integer up to here exactly and rounds
/// anything larger (2^53 + 1 reads as 2^53).
inline constexpr double kMaxSpecCount = 0x1p53 - 1.0;

/// True when the table has a row for `key`.
[[nodiscard]] bool is_known_param(const std::string& key);

/// True when `key` takes categorical (string) values: name, description,
/// topology, mode, fec, tech_node, labeling, mac, pattern, delivery,
/// precision.metric, variance.kind and variance.levels.
[[nodiscard]] bool is_categorical_param(const std::string& key);

/// Sorted list of every key (error messages, docs).
[[nodiscard]] std::vector<std::string> known_params();

/// Fixed-order "name = value\n" rendering of every hashed row (doubles at
/// full 17-digit round-trip precision): the text spec_hash (serialize.hpp)
/// digests. Whitespace, key order, and comments in the source text file
/// never affect it.
[[nodiscard]] std::string canonical_spec_text(const ScenarioSpec& spec);

/// Applies point `index` of `axis` to the spec via set_param.
void apply_axis_value(ScenarioSpec& spec, const SweepAxis& axis, std::size_t index);

/// The topology's label in the spec table (reports).
[[nodiscard]] const char* to_string(Topology t);

}  // namespace oci::scenario
