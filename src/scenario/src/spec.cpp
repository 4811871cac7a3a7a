#include "oci/scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "oci/analysis/report.hpp"
#include "oci/electrical/scaling.hpp"
#include "oci/net/cac.hpp"          // frame feasibility of mac = cac specs
#include "oci/scenario/parse.hpp"   // parse_uint: the seed key
#include "oci/scenario/runner.hpp"  // metrics_for: precision.metric validation

namespace oci::scenario {

namespace {

using util::Frequency;
using util::Power;
using util::Time;
using util::Wavelength;

/// "scenario: parameter 'key'", the start of every value error. Keys
/// stay C strings until an error needs the text: set_param runs per
/// spec line and per sweep point.
std::string param(const char* key) { return std::string("scenario: parameter '") + key + "'"; }

double parse_double(const char* key, const std::string& value) {
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument(param(key) + " expects a number, got '" + value + "'");
  }
  // Allow trailing whitespace only; NaN and infinities are not numbers
  // a spec can mean.
  bool junk = !std::isfinite(v);
  for (std::size_t i = consumed; i < value.size(); ++i) {
    junk = junk || !std::isspace(static_cast<unsigned char>(value[i]));
  }
  if (junk) {
    throw std::invalid_argument(param(key) + " expects a finite number, got '" + value + "'");
  }
  return v;
}

std::uint64_t parse_count(const char* key, const std::string& value) {
  const double v = parse_double(key, value);
  if (v < 0.0 || v != std::floor(v) || v > kMaxSpecCount) {
    throw std::invalid_argument(param(key) + " expects an integer in [0, 2^53), got '" +
                                value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// `v` as the narrower field type T, or an error naming the key.
template <typename T>
T narrow(const char* key, std::uint64_t v) {
  if (v > std::numeric_limits<T>::max()) {
    throw std::invalid_argument(param(key) + " must be at most " +
                                std::to_string(std::numeric_limits<T>::max()) + ", got " +
                                std::to_string(v));
  }
  return static_cast<T>(v);
}

// -- The spec table -----------------------------------------------------
//
// One row per line of the canonical spec text, in that text's order, and
// one per spec key. A field row is named by its member path below
// ScenarioSpec, which is also its name in the canonical text; when a spec
// line sets the field, the row also holds the key and the key's unit or
// labels. Canonical lines that are no single field (the format, the
// ambient repro scale, the aggressor list, the sweep axes) are rows that
// only render. Keys that set several fields, check more than their type,
// or stay out of the hash are rows with their own setter and no name.

/// One label of a categorical key. An enum field takes the index of its
/// label as its value.
struct Label {
  const char* name;
  const char* alias = nullptr;  ///< a second spelling specs may use
};

constexpr Label kTopologies[] = {
    {"point-to-point", "p2p"}, {"wdm"}, {"vertical-bus", "bus"}, {"stack-noc", "noc"}};
constexpr Label kModes[] = {{"auto"}, {"symbols"}, {"frames"}, {"code-density"}, {"packets"}};
constexpr Label kFecs[] = {{"none"}, {"hamming"}};
constexpr Label kLabelings[] = {{"binary"}, {"gray"}};
constexpr Label kPatterns[] = {
    {"uniform"}, {"hotspot"}, {"master-broadcast"}, {"incast"}, {"broadcast-storm"}};
constexpr Label kDeliveries[] = {{"scalar"}, {"fec-probe"}, {"engine"}};
constexpr Label kMacs[] = {{"tdma"}, {"token"}, {"token+pass"}, {"aloha"}, {"cac"}};
constexpr Label kVarianceKinds[] = {{"none"}, {"tilt"}, {"split"}};

// The canonical text spells these enums by label, so each needs one.
static_assert(std::size(kTopologies) == static_cast<std::size_t>(Topology::kStackNoc) + 1);
static_assert(std::size(kModes) == static_cast<std::size_t>(TrafficMode::kPackets) + 1);
static_assert(std::size(kFecs) == static_cast<std::size_t>(FecKind::kHamming) + 1);
static_assert(std::size(kVarianceKinds) == static_cast<std::size_t>(rare::Kind::kSplit) + 1);

using S = ScenarioSpec;
struct Row;
using Setter = void (*)(const Row&, S&, const std::string& value);
using Renderer = void (*)(const Row&, const S&, std::string& out);

struct Row {
  const char* name = nullptr;  ///< canonical name; nullptr: renders nothing
  const char* key = nullptr;   ///< spec key; nullptr: no spec line sets it
  bool categorical = false;    ///< the key takes labels, not numbers
  std::span<const Label> labels = {};  ///< the labels it takes; empty: any text
  Setter set = nullptr;
  Renderer render = nullptr;
};

/// Appends `v` as the canonical text spells it: doubles to 17 significant
/// digits (they survive text -> double exactly), quantities in SI base
/// units, flags as 0/1 and enums as their number.
template <typename T>
void put(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  } else if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_enum_v<T>) {
    out += std::to_string(static_cast<long long>(v));
  } else if constexpr (std::is_integral_v<T>) {
    out += std::to_string(v);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(v);
  } else {
    put(out, v.raw());
  }
}

template <typename T>
void line(std::string& out, std::string_view name, const T& v) {
  out += name;
  out += " = ";
  put(out, v);
  out += '\n';
}

/// `path` below ScenarioSpec, as a row's canonical name and its accessor.
#define OCI_SPEC_FIELD(path) #path, [](auto& s) -> auto& { return s.path; }

/// A field that no spec line sets: it only renders.
template <typename Get>
constexpr Row field(const char* name, Get) {
  return {.name = name, .render = [](const Row& r, const S& s, std::string& out) {
            line(out, r.name, Get{}(s));
          }};
}

// The units a key states its number in.
constexpr double plain(double v) { return v; }
constexpr Time ps(double v) { return Time::picoseconds(v); }
constexpr Time ns(double v) { return Time::nanoseconds(v); }
constexpr Wavelength nm(double v) { return Wavelength::nanometres(v); }
constexpr Power uw(double v) { return Power::microwatts(v); }
constexpr Frequency hz(double v) { return Frequency::hertz(v); }
constexpr Frequency mhz(double v) { return Frequency::megahertz(v); }

/// A number field `key` sets in the key's unit (ps for jitter_ps); a
/// dimensionless field takes the number as it is.
template <auto Unit = plain, typename Get>
constexpr Row num(const char* name, Get get, const char* key) {
  Row r = field(name, get);
  r.key = key;
  r.set = [](const Row& row, S& s, const std::string& v) {
    Get{}(s) = Unit(parse_double(row.key, v));
  };
  return r;
}

/// A count field `key` sets; a flag is on for any count but 0.
template <typename Get>
constexpr Row cnt(const char* name, Get get, const char* key) {
  Row r = field(name, get);
  r.key = key;
  r.set = [](const Row& row, S& s, const std::string& v) {
    auto& f = Get{}(s);
    using T = std::remove_reference_t<decltype(f)>;
    const std::uint64_t n = parse_count(row.key, v);
    if constexpr (std::is_same_v<T, bool>) {
      f = n != 0;
    } else {
      f = narrow<T>(row.key, n);
    }
  };
  return r;
}

/// Index of `v` among the row's labels, or the error that lists them.
std::size_t label_index(const Row& row, const std::string& v) {
  for (std::size_t i = 0; i < row.labels.size(); ++i) {
    const Label& l = row.labels[i];
    if (v == l.name || (l.alias != nullptr && v == l.alias)) return i;
  }
  std::string choices;
  for (const Label& l : row.labels) choices += (choices.empty() ? "" : ", ") + std::string(l.name);
  throw std::invalid_argument(param(row.key) + " must be one of {" + choices + "}, got '" +
                              v + "'");
}

/// A text or enum field `key` sets by label. With labels the value must
/// be one of them; without, any text goes.
template <typename Get>
constexpr Row cat(const char* name, Get get, const char* key,
                  std::span<const Label> labels = {}) {
  Row r = field(name, get);
  r.key = key;
  r.categorical = true;
  r.labels = labels;
  r.set = [](const Row& row, S& s, const std::string& v) {
    auto& f = Get{}(s);
    using T = std::remove_reference_t<decltype(f)>;
    if constexpr (std::is_enum_v<T>) {
      f = static_cast<T>(label_index(row, v));
    } else {
      if (!row.labels.empty()) (void)label_index(row, v);
      f = v;
    }
  };
  return r;
}

/// An enum field the canonical text spells by label, not by number.
template <typename Get>
constexpr Row named(const char* name, Get get, const char* key,
                    std::span<const Label> labels) {
  Row r = cat(name, get, key, labels);
  r.render = [](const Row& row, const S& s, std::string& out) {
    line(out, row.name, row.labels[static_cast<std::size_t>(Get{}(s))].name);
  };
  return r;
}

/// A key with its own setter and no canonical line.
constexpr Row keyed(const char* key, bool categorical, Setter set) {
  return {.key = key, .categorical = categorical, .set = set};
}

/// A precision target: setting it also arms adaptive mode.
template <double PrecisionSpec::*Target>
constexpr Row target(const char* key) {
  return keyed(key, false, [](const Row& row, S& s, const std::string& v) {
    s.precision.*Target = parse_double(row.key, v);
    s.precision.enabled = true;
  });
}

/// A canonical line that is no field of the spec.
constexpr Row text(const char* name, Renderer render) {
  return {.name = name, .render = render};
}

/// A canonical line that always reads N: a receiver-model choice or a
/// device parameter with one value, kept in the text so that no spec
/// hash moves.
template <auto N>
constexpr Row fixed(const char* name) {
  return text(name, [](const Row& row, const S&, std::string& out) { line(out, row.name, N); });
}

void render_aggressors(const Row& row, const S& s, std::string& out) {
  line(out, row.name, s.aggressors.size());
  for (std::size_t i = 0; i < s.aggressors.size(); ++i) {
    const std::string p = "aggressor." + std::to_string(i);
    line(out, p + ".mean_photons", s.aggressors[i].mean_photons);
    line(out, p + ".offset_ps", s.aggressors[i].offset_ps);
  }
}

void render_sweep(const Row& row, const S& s, std::string& out) {
  line(out, row.name, s.sweep.size());
  for (std::size_t a = 0; a < s.sweep.size(); ++a) {
    const SweepAxis& axis = s.sweep[a];
    const std::string p = "sweep." + std::to_string(a);
    line(out, p + ".param", axis.param);
    if (axis.categorical()) {
      line(out, p + ".labels", axis.labels.size());
      for (std::size_t i = 0; i < axis.labels.size(); ++i) {
        line(out, p + ".label." + std::to_string(i), axis.labels[i]);
      }
    } else {
      line(out, p + ".values", axis.values.size());
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        line(out, p + ".value." + std::to_string(i), axis.values[i]);
      }
    }
  }
}

constexpr Row kRows[] = {
    // The format line re-keys every cache if the rendering itself changes.
    text("format",
         [](const Row& row, const S&, std::string& out) {
           line(out, row.name, "oci-spec-canonical-v1");
         }),
    cat(OCI_SPEC_FIELD(name), "name"),
    keyed("description", true,
          [](const Row&, S& s, const std::string& v) { s.description = v; }),
    // Seeds use the full uint64 range; routing through double would
    // round above 2^53 and overflow casting near 2^64.
    keyed("seed", false,
          [](const Row&, S& s, const std::string& v) {
            const auto parsed = parse_uint(v);
            if (!parsed) {
              throw std::invalid_argument(
                  "scenario: parameter 'seed' expects an unsigned integer, got '" + v + "'");
            }
            s.seed = *parsed;
          }),
    named(OCI_SPEC_FIELD(topology), "topology", kTopologies),
    named(OCI_SPEC_FIELD(mode), "mode", kModes),
    named(OCI_SPEC_FIELD(fec), "fec", kFecs),
    field(OCI_SPEC_FIELD(payload_bytes)),
    keyed("payload_bytes", false,
          [](const Row& row, S& s, const std::string& v) {
            s.payload_bytes = narrow<std::size_t>(row.key, parse_count(row.key, v));
            s.noc.payload_bytes = s.payload_bytes;
          }),
    // Ambient repro scale: it rescales every resolved budget, so two runs
    // at different scales execute different chunks.
    text("repro_scale",
         [](const Row& row, const S&, std::string& out) {
           line(out, row.name, analysis::repro_scale());
         }),

    // -- device: TDC design ---------------------------------------------
    cnt(OCI_SPEC_FIELD(device.design.fine_elements), "fine_elements"),
    cnt(OCI_SPEC_FIELD(device.design.coarse_bits), "coarse_bits"),
    field(OCI_SPEC_FIELD(device.design.element_delay)),
    keyed("delay_element_ps", false,
          [](const Row& row, S& s, const std::string& v) {
            s.device.design.element_delay = ps(parse_double(row.key, v));
            s.device.delay_line.nominal_delay = s.device.design.element_delay;
          }),
    cnt(OCI_SPEC_FIELD(device.bits_per_symbol), "bits_per_symbol"),
    cat(OCI_SPEC_FIELD(device.labeling), "labeling", kLabelings),

    // -- device: LED / SPAD ---------------------------------------------
    num<nm>(OCI_SPEC_FIELD(device.led.wavelength), "wavelength_nm"),
    num<ps>(OCI_SPEC_FIELD(device.led.pulse_width), "pulse_width_ps"),
    fixed<0>("device.led.shape"),  // rectangular
    num<uw>(OCI_SPEC_FIELD(device.led.peak_power), "peak_power_uw"),
    field(OCI_SPEC_FIELD(device.led.wall_plug_efficiency)),
    field(OCI_SPEC_FIELD(device.led.driver_load)),
    field(OCI_SPEC_FIELD(device.led.supply)),
    field(OCI_SPEC_FIELD(device.led.footprint)),
    num(OCI_SPEC_FIELD(device.spad.pdp_peak), "pdp_peak"),
    fixed<3.3>("device.spad.excess_bias"),          // V above breakdown
    fixed<3.3>("device.spad.nominal_excess_bias"),  // V
    num<ns>(OCI_SPEC_FIELD(device.spad.dead_time), "dead_time_ns"),
    fixed<0>("device.spad.quench"),  // active
    num<hz>(OCI_SPEC_FIELD(device.spad.dcr_at_ref), "dcr_hz"),
    field(OCI_SPEC_FIELD(device.spad.dcr_ref_temperature)),
    field(OCI_SPEC_FIELD(device.spad.dcr_doubling_kelvin)),
    num(OCI_SPEC_FIELD(device.spad.afterpulse_probability), "afterpulse_probability"),
    field(OCI_SPEC_FIELD(device.spad.afterpulse_tau)),
    num<ps>(OCI_SPEC_FIELD(device.spad.jitter_sigma), "jitter_ps"),
    field(OCI_SPEC_FIELD(device.spad.footprint)),

    // -- device: delay line and channel ---------------------------------
    cnt(OCI_SPEC_FIELD(device.delay_line.elements), "delay_line_elements"),
    field(OCI_SPEC_FIELD(device.delay_line.nominal_delay)),
    num(OCI_SPEC_FIELD(device.delay_line.mismatch_sigma), "mismatch_sigma"),
    keyed("tech_node", true,
          [](const Row&, S& s, const std::string& v) {
            const auto& node = electrical::node_by_name(v);  // throws on unknown name
            s.device.design.element_delay = node.delay_element;
            s.device.delay_line.nominal_delay = node.delay_element;
            s.device.delay_line.mismatch_sigma = node.mismatch_sigma;
            s.device.led.driver_load = node.led_driver_load;
            s.device.led.supply = node.supply;
          }),
    field(OCI_SPEC_FIELD(device.delay_line.odd_even_skew)),
    field(OCI_SPEC_FIELD(device.delay_line.temperature_coefficient)),
    fixed<0.25>("device.delay_line.voltage_coefficient"),  // per V of droop
    fixed<1.5>("device.delay_line.nominal_supply"),        // V
    field(OCI_SPEC_FIELD(device.delay_line.metastability_window)),
    fixed<2>("device.decode"),  // 3-tap majority window
    num(OCI_SPEC_FIELD(device.channel_transmittance), "channel_transmittance"),
    num<mhz>(OCI_SPEC_FIELD(device.background_rate), "background_mhz"),
    field(OCI_SPEC_FIELD(device.temperature)),
    cnt(OCI_SPEC_FIELD(device.calibrate), "calibrate"),
    cnt(OCI_SPEC_FIELD(device.calibration_samples), "calibration_samples"),
    num<ns>(OCI_SPEC_FIELD(device.inter_symbol_guard), "guard_ns"),
    field(OCI_SPEC_FIELD(device.rx_energy_per_conversion)),
    text("aggressors", render_aggressors),

    // -- WDM -----------------------------------------------------------
    num<nm>(OCI_SPEC_FIELD(wdm.grid.center), "grid_center_nm"),
    num<nm>(OCI_SPEC_FIELD(wdm.grid.spacing), "grid_spacing_nm"),
    cnt(OCI_SPEC_FIELD(wdm.grid.channels), "channels"),
    num(OCI_SPEC_FIELD(wdm.filter.passband_transmittance), "passband_transmittance"),
    field(OCI_SPEC_FIELD(wdm.filter.adjacent_isolation_db)),
    // The demux spec knob the abl_wdm sweep turns: the floor tracks the
    // adjacent isolation (scattering bounds it ~20 dB deeper, never
    // better than 45 dB).
    keyed("isolation_db", false,
          [](const Row& row, S& s, const std::string& v) {
            const double db = parse_double(row.key, v);
            s.wdm.filter.adjacent_isolation_db = db;
            s.wdm.filter.isolation_floor_db = std::max(db + 20.0, 45.0);
          }),
    field(OCI_SPEC_FIELD(wdm.filter.rolloff_db_per_channel)),
    num(OCI_SPEC_FIELD(wdm.filter.isolation_floor_db), "isolation_floor_db"),
    num(OCI_SPEC_FIELD(wdm.path_transmittance), "path_transmittance"),
    cnt(OCI_SPEC_FIELD(wdm.stack_dies), "stack_dies"),
    cnt(OCI_SPEC_FIELD(wdm.from_die), "from_die"),
    cnt(OCI_SPEC_FIELD(wdm.to_die), "to_die"),

    // -- bus / NoC -------------------------------------------------------
    field(OCI_SPEC_FIELD(bus.dies)),
    keyed("dies", false,
          [](const Row& row, S& s, const std::string& v) {
            s.bus.dies = narrow<std::size_t>(row.key, parse_count(row.key, v));
            s.noc.dies = s.bus.dies;
          }),
    cnt(OCI_SPEC_FIELD(bus.master), "master"),
    field(OCI_SPEC_FIELD(bus.die.thickness)),
    field(OCI_SPEC_FIELD(bus.die.interface_coupling)),
    field(OCI_SPEC_FIELD(bus.min_detection_probability)),
    field(OCI_SPEC_FIELD(noc.dies)),
    cat(OCI_SPEC_FIELD(noc.pattern), "pattern", kPatterns),
    num(OCI_SPEC_FIELD(noc.offered_load), "offered_load"),
    cnt(OCI_SPEC_FIELD(noc.hot_die), "hot_die"),
    num(OCI_SPEC_FIELD(noc.hot_load), "hot_load"),
    num(OCI_SPEC_FIELD(noc.master_load), "master_load"),
    num(OCI_SPEC_FIELD(noc.worker_load), "worker_load"),
    cat(OCI_SPEC_FIELD(noc.mac), "mac", kMacs),
    cnt(OCI_SPEC_FIELD(noc.alloc_weight), "alloc.weight"),
    cnt(OCI_SPEC_FIELD(noc.alloc_wavelengths), "alloc.wavelengths"),
    cnt(OCI_SPEC_FIELD(noc.alloc_frame), "alloc.frame"),
    cnt(OCI_SPEC_FIELD(noc.alloc_rounds), "alloc.rounds"),
    cnt(OCI_SPEC_FIELD(noc.queue_capacity), "queue_capacity"),
    cnt(OCI_SPEC_FIELD(noc.max_attempts), "max_attempts"),
    cat(OCI_SPEC_FIELD(noc.delivery), "delivery", kDeliveries),
    num(OCI_SPEC_FIELD(noc.delivery_probability), "delivery_probability"),
    field(OCI_SPEC_FIELD(noc.payload_bytes)),
    cnt(OCI_SPEC_FIELD(noc.probe_transfers), "probe_transfers"),
    text("sweep.axes", render_sweep),

    // -- budget and adaptive precision -----------------------------------
    cnt(OCI_SPEC_FIELD(budget.samples), "samples"),
    cnt(OCI_SPEC_FIELD(budget.floor), "sample_floor"),
    cnt(OCI_SPEC_FIELD(budget.repro_scaled), "repro_scaled"),
    // Setting any precision target arms adaptive mode; precision.enabled
    // can switch it back off (order matters -- put it last in a file).
    cnt(OCI_SPEC_FIELD(precision.enabled), "precision.enabled"),
    cat(OCI_SPEC_FIELD(precision.metric), "precision.metric"),
    field(OCI_SPEC_FIELD(precision.target_half_width)),
    target<&PrecisionSpec::target_half_width>("precision.half_width"),
    field(OCI_SPEC_FIELD(precision.target_relative)),
    target<&PrecisionSpec::target_relative>("precision.relative"),
    field(OCI_SPEC_FIELD(precision.stop_below)),
    target<&PrecisionSpec::stop_below>("precision.stop_below"),
    num(OCI_SPEC_FIELD(precision.confidence_z), "precision.confidence_z"),
    cnt(OCI_SPEC_FIELD(precision.chunk), "precision.chunk"),
    cnt(OCI_SPEC_FIELD(precision.min_samples), "precision.min_samples"),
    cnt(OCI_SPEC_FIELD(precision.max_samples), "precision.max_samples"),

    // -- fault injection -------------------------------------------------
    num(OCI_SPEC_FIELD(fault.dead_pixel_fraction), "fault.dead_pixel_fraction"),
    num(OCI_SPEC_FIELD(fault.hot_pixel_fraction), "fault.hot_pixel_fraction"),
    num(OCI_SPEC_FIELD(fault.hot_pixel_dcr_hz), "fault.hot_pixel_dcr_hz"),
    cnt(OCI_SPEC_FIELD(fault.array_pixels), "fault.array_pixels"),
    cnt(OCI_SPEC_FIELD(fault.mask_hot_pixels), "fault.mask_hot_pixels"),
    num(OCI_SPEC_FIELD(fault.dark_window_probability), "fault.dark_window_probability"),
    num(OCI_SPEC_FIELD(fault.flaky_window_probability), "fault.flaky_window_probability"),
    num(OCI_SPEC_FIELD(fault.flaky_attenuation_db), "fault.flaky_attenuation_db"),
    num(OCI_SPEC_FIELD(fault.tdc_drift_c), "fault.tdc_drift_c"),
    cnt(OCI_SPEC_FIELD(fault.recalibrate), "fault.recalibrate"),
    num(OCI_SPEC_FIELD(fault.dead_channel_fraction), "fault.dead_channel_fraction"),
    num(OCI_SPEC_FIELD(fault.channel_attenuation_db), "fault.channel_attenuation_db"),
    num(OCI_SPEC_FIELD(fault.dead_node_fraction), "fault.dead_node_fraction"),
    num(OCI_SPEC_FIELD(fault.link_failure_probability), "fault.link_failure_probability"),
    cnt(OCI_SPEC_FIELD(fault.reroute), "fault.reroute"),
    cnt(OCI_SPEC_FIELD(fault.mac_reclaim), "fault.mac_reclaim"),
    cnt(OCI_SPEC_FIELD(fault.salt), "fault.salt"),

    // -- rare-event acceleration -----------------------------------------
    named(OCI_SPEC_FIELD(variance.kind), "variance.kind", kVarianceKinds),
    num(OCI_SPEC_FIELD(variance.jitter_tilt), "variance.jitter_tilt"),
    num(OCI_SPEC_FIELD(variance.noise_tilt), "variance.noise_tilt"),
    field(OCI_SPEC_FIELD(variance.levels)),
    // Syntax check at set time so a typo'd schedule fails with the spec
    // file:line; validate() re-checks semantics (monotonicity against
    // the kind).
    keyed("variance.levels", true,
          [](const Row&, S& s, const std::string& v) {
            (void)rare::parse_levels(v);
            s.variance.levels = v;
          }),
    cnt(OCI_SPEC_FIELD(variance.split_levels), "variance.split_levels"),
};

#undef OCI_SPEC_FIELD

/// The keyed rows by key, built once: set_param stays a map lookup.
const std::map<std::string, const Row*, std::less<>>& rows_by_key() {
  static const auto keys = [] {
    std::map<std::string, const Row*, std::less<>> m;
    for (const Row& r : kRows) {
      if (r.key != nullptr && !m.emplace(r.key, &r).second) {
        throw std::logic_error(std::string("scenario: spec key '") + r.key + "' is listed twice");
      }
    }
    return m;
  }();
  return keys;
}

}  // namespace

std::string format_axis_value(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string SweepAxis::display(std::size_t i) const {
  if (categorical()) return labels.at(i);
  return format_axis_value(values.at(i));
}

SweepAxis SweepAxis::linear(std::string param, double lo, double hi, std::size_t n) {
  SweepAxis a;
  a.param = std::move(param);
  if (n == 1) {
    a.values.push_back(lo);
    return a;
  }
  a.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.values.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return a;
}

SweepAxis SweepAxis::logspace(std::string param, double lo, double hi, std::size_t n) {
  if (!(lo > 0.0) || !(hi > 0.0)) {
    throw std::invalid_argument("scenario: log sweep axis '" + param +
                                "' needs positive endpoints");
  }
  SweepAxis a = linear(std::move(param), std::log(lo), std::log(hi), n);
  for (double& v : a.values) v = std::exp(v);
  return a;
}

SweepAxis SweepAxis::list(std::string param, std::vector<double> values) {
  SweepAxis a;
  a.param = std::move(param);
  a.values = std::move(values);
  return a;
}

SweepAxis SweepAxis::categories(std::string param, std::vector<std::string> labels) {
  SweepAxis a;
  a.param = std::move(param);
  a.labels = std::move(labels);
  return a;
}

std::uint64_t BudgetSpec::resolve() const {
  if (!repro_scaled) return std::max<std::uint64_t>(samples, 1);
  return analysis::scaled(samples, std::max<std::uint64_t>(floor, 1));
}

std::uint64_t PrecisionSpec::resolve_chunk(const BudgetSpec& budget) const {
  if (chunk == 0) return std::max<std::uint64_t>(budget.resolve() / 4, 1);
  if (!budget.repro_scaled) return std::max<std::uint64_t>(chunk, 1);
  return analysis::scaled(chunk, 1);
}

std::uint64_t PrecisionSpec::resolve_min(const BudgetSpec& budget) const {
  if (min_samples == 0) return 0;  // the first chunk decides
  if (!budget.repro_scaled) return min_samples;
  return analysis::scaled(min_samples, 1);
}

std::uint64_t PrecisionSpec::resolve_max(const BudgetSpec& budget) const {
  std::uint64_t cap;
  if (max_samples == 0) {
    cap = 8 * budget.resolve();  // adaptive may spend past the fixed budget
  } else if (!budget.repro_scaled) {
    cap = max_samples;
  } else {
    cap = analysis::scaled(max_samples, std::max<std::uint64_t>(budget.floor, 1));
  }
  // The cap must admit at least one chunk, or no point could ever run.
  return std::max(cap, resolve_chunk(budget));
}

TrafficMode ScenarioSpec::resolved_mode() const {
  if (mode != TrafficMode::kAuto) return mode;
  return topology == Topology::kStackNoc ? TrafficMode::kPackets : TrafficMode::kSymbols;
}

std::size_t ScenarioSpec::sweep_points() const {
  std::size_t n = 1;
  for (const SweepAxis& a : sweep) n *= a.size();
  return n;
}

void ScenarioSpec::validate() const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  const TrafficMode m = resolved_mode();

  // Traffic/topology pairing.
  if (m == TrafficMode::kPackets && topology != Topology::kStackNoc) {
    err("packet traffic requires the stack-noc topology");
  }
  if (topology == Topology::kStackNoc && m != TrafficMode::kPackets) {
    err("the stack-noc topology carries packets; set mode = packets (or auto)");
  }
  if (m == TrafficMode::kFrames && topology != Topology::kPointToPoint) {
    err("frame traffic requires the point-to-point topology");
  }
  if (m == TrafficMode::kCodeDensity && topology != Topology::kPointToPoint) {
    err("code-density traffic requires the point-to-point topology");
  }
  if (fec != FecKind::kNone && m != TrafficMode::kFrames) {
    err("fec = hamming requires frame traffic over the point-to-point topology; "
        "raw symbol/packet scenarios have no frame to protect");
  }
  if (m == TrafficMode::kFrames && payload_bytes == 0) {
    err("frame traffic needs payload_bytes >= 1");
  }

  // Budget.
  if (budget.samples == 0) err("budget samples must be >= 1");

  // Adaptive precision.
  if (precision.enabled) {
    if (m == TrafficMode::kCodeDensity) {
      err("adaptive precision cannot chunk code-density traffic: DNL/INL are "
          "whole-run order statistics, not mergeable rates");
    }
    if (precision.target_half_width < 0.0) err("precision.half_width must be >= 0");
    if (precision.target_relative < 0.0) err("precision.relative must be >= 0");
    if (precision.stop_below < 0.0) err("precision.stop_below must be >= 0");
    if (!(precision.confidence_z > 0.0)) err("precision.confidence_z must be > 0");
    if (precision.target_half_width == 0.0 && precision.target_relative == 0.0 &&
        precision.stop_below == 0.0 && precision.max_samples == 0) {
      err("adaptive precision needs a stopping target (precision.half_width, "
          "precision.relative, precision.stop_below) or precision.max_samples");
    }
    if (precision.min_samples > 0 && precision.max_samples > 0 &&
        precision.min_samples > precision.max_samples) {
      err("precision.min_samples exceeds precision.max_samples");
    }
    // The RESOLVED bracket must hold too: an auto-derived max (8x the
    // fixed budget) that lands below min_samples would let min keep
    // the point sampling past the documented hard cap.
    if (precision.resolve_min(budget) > precision.resolve_max(budget)) {
      err("precision.min_samples exceeds the resolved adaptive budget cap (" +
          std::to_string(precision.resolve_max(budget)) +
          " samples); raise precision.max_samples or lower min_samples");
    }
    if (!precision.metric.empty()) {
      bool known = false;
      for (const MetricDef& d : metrics_for(*this)) {
        if (d.name == precision.metric) {
          known = true;
          if (d.kind == MetricKind::kConstant || d.kind == MetricKind::kCount) {
            err("precision.metric '" + precision.metric +
                "' carries no confidence interval; target a rate or mean metric");
          }
        }
      }
      if (!known) {
        std::string msg = "precision.metric '" + precision.metric +
                          "' is not a metric of this topology; choose one of:";
        for (const MetricDef& d : metrics_for(*this)) msg += " " + d.name;
        err(msg);
      }
    }
  }

  // Device.
  if (device.design.fine_elements < 2) err("device needs fine_elements >= 2");
  if (device.channel_transmittance <= 0.0 || device.channel_transmittance > 1.0) {
    err("channel_transmittance must be in (0, 1]");
  }
  for (const AggressorSpec& a : aggressors) {
    if (a.mean_photons < 0.0) err("aggressor mean_photons must be >= 0");
  }
  if (!aggressors.empty() && m != TrafficMode::kSymbols) {
    err("aggressor pulses apply to point-to-point symbol traffic only");
  }

  // Topology blocks.
  if (topology == Topology::kWdm) {
    if (wdm.grid.channels == 0) err("wdm needs channels >= 1");
    if (!(wdm.grid.spacing.nanometres() > 0.0)) err("wdm grid spacing must be positive");
    if (wdm.path_transmittance <= 0.0 || wdm.path_transmittance > 1.0) {
      err("wdm path_transmittance must be in (0, 1]");
    }
    if (wdm.stack_dies > 0) {
      if (wdm.from_die >= wdm.stack_dies || wdm.to_die >= wdm.stack_dies) {
        err("wdm from_die/to_die must lie inside the die stack");
      }
    }
  }
  if (topology == Topology::kVerticalBus) {
    if (bus.dies < 2) err("vertical-bus needs dies >= 2");
    if (bus.master >= bus.dies) err("bus master must be one of the dies");
  }
  if (topology == Topology::kStackNoc) {
    if (noc.dies < 2) err("stack-noc needs dies >= 2");
    if (noc.queue_capacity == 0) err("stack-noc queue_capacity must be >= 1");
    if (noc.max_attempts == 0) err("stack-noc max_attempts must be >= 1");
    if (noc.delivery == NocDelivery::kScalar &&
        (noc.delivery_probability <= 0.0 || noc.delivery_probability > 1.0)) {
      err("stack-noc delivery_probability must be in (0, 1]");
    }
    if ((noc.pattern == NocPattern::kHotspot || noc.pattern == NocPattern::kIncast) &&
        noc.hot_die >= noc.dies) {
      err("stack-noc hot_die must be one of the dies");
    }
    if (noc.payload_bytes == 0) err("stack-noc payload_bytes must be >= 1");
    if (noc.mac == "cac") {
      if (noc.alloc_weight == 0 || noc.alloc_weight > 16) {
        err("stack-noc alloc.weight must be in [1, 16]");
      }
      if (noc.alloc_wavelengths == 0 || noc.alloc_wavelengths > 64) {
        err("stack-noc alloc.wavelengths must be in [1, 64]");
      }
      if (noc.alloc_rounds == 0) err("stack-noc alloc.rounds must be >= 1");
      if (noc.alloc_frame != 0 && noc.alloc_weight >= 1 && noc.alloc_wavelengths >= 1) {
        // Mirror the DistributedAllocator feasibility check so a bad
        // frame fails at validate() with the spec file, not mid-sweep.
        const std::size_t per_wavelength =
            (noc.dies + noc.alloc_wavelengths - 1) / noc.alloc_wavelengths;
        if (net::cac::frame_capacity(noc.alloc_frame, noc.alloc_weight) < per_wavelength) {
          err("stack-noc alloc.frame = " + std::to_string(noc.alloc_frame) +
              " is not a prime with capacity for " + std::to_string(per_wavelength) +
              " weight-" + std::to_string(noc.alloc_weight) +
              " codewords per wavelength (use alloc.frame = 0 for auto)");
        }
      }
    }
  }

  // Fault injection. Range checks first, then topology gating: every
  // fault kind maps to one engine path, and arming it anywhere else
  // would silently change nothing -- reject loudly instead.
  {
    auto frac = [&err](const char* key, double v) {
      if (v < 0.0 || v > 1.0) {
        err(std::string("fault: ") + key + " must be in [0, 1]");
      }
    };
    frac("fault.dead_pixel_fraction", fault.dead_pixel_fraction);
    frac("fault.hot_pixel_fraction", fault.hot_pixel_fraction);
    frac("fault.dark_window_probability", fault.dark_window_probability);
    frac("fault.flaky_window_probability", fault.flaky_window_probability);
    frac("fault.dead_channel_fraction", fault.dead_channel_fraction);
    frac("fault.dead_node_fraction", fault.dead_node_fraction);
    frac("fault.link_failure_probability", fault.link_failure_probability);
    if (fault.dead_pixel_fraction >= 0.0 && fault.hot_pixel_fraction >= 0.0 &&
        fault.dead_pixel_fraction + fault.hot_pixel_fraction > 1.0) {
      err("fault: dead_pixel_fraction + hot_pixel_fraction must not exceed 1");
    }
    if (fault.hot_pixel_dcr_hz < 0.0) err("fault: hot_pixel_dcr_hz must be >= 0");
    if (fault.flaky_attenuation_db < 0.0) err("fault: flaky_attenuation_db must be >= 0");
    if (fault.channel_attenuation_db < 0.0) {
      err("fault: channel_attenuation_db must be >= 0");
    }
    if (fault.pixel_active() && fault.array_pixels == 0) {
      err("fault: pixel faults need array_pixels >= 1");
    }
    // The drift moves the delay line to T + drift; a chain that cold has
    // a non-positive delay (DelayLine::set_conditions would throw).
    const double drifted_c = device.temperature.celsius() + fault.tdc_drift_c;
    if (1.0 + device.delay_line.temperature_coefficient * (drifted_c - 20.0) <= 0.0) {
      err("fault.tdc_drift_c = " + format_axis_value(fault.tdc_drift_c) +
          " puts the delay line at " + format_axis_value(drifted_c) +
          " C, where its delay scale 1 + tc * (T - 20 C) is not positive");
    }

    if (fault.any() && m == TrafficMode::kCodeDensity) {
      err("fault injection does not apply to code-density traffic (no photons fly)");
    } else {
      const bool p2p = topology == Topology::kPointToPoint;
      const bool p2p_symbols = p2p && m == TrafficMode::kSymbols;
      if (fault.pixel_active() && !p2p && topology != Topology::kWdm) {
        err("fault: pixel faults apply to point-to-point and wdm receivers only");
      }
      if (fault.window_active()) {
        if (!p2p_symbols) {
          err("fault: dark/flaky windows apply to point-to-point symbol traffic only");
        }
        if (!aggressors.empty()) {
          err("fault: dark/flaky windows cannot be combined with aggressor pulses");
        }
      }
      if (fault.tdc_active() && !p2p_symbols) {
        err("fault: tdc_drift_c applies to point-to-point symbol traffic only");
      }
      if (fault.wdm_active() && topology != Topology::kWdm) {
        err("fault: channel faults require the wdm topology");
      }
      if (fault.noc_active() && topology != Topology::kStackNoc) {
        err("fault: node/link faults require the stack-noc topology");
      }
      if (topology == Topology::kStackNoc && fault.dead_node_fraction > 0.0 &&
          noc.dies >= 2 &&
          ::oci::fault::pick_count(noc.dies, fault.dead_node_fraction) > noc.dies - 2) {
        err("fault: dead_node_fraction must leave at least 2 live dies");
      }
    }
  }

  // Rare-event acceleration. Gating mirrors the fault block: each
  // engine maps to exactly one path (the scalar p2p-symbols driver),
  // and an armed spec anywhere else would silently run crude -- reject
  // loudly instead. Tilt and split are distinct proposals whose
  // likelihood ratios do not compose; combining their knobs is
  // rejected rather than half-applied.
  {
    if (variance.jitter_tilt <= 0.0) err("variance: jitter_tilt must be > 0");
    if (variance.noise_tilt <= 0.0) err("variance: noise_tilt must be > 0");
    if (!variance.levels.empty()) {
      try {
        (void)rare::parse_levels(variance.levels);
      } catch (const std::invalid_argument& e) {
        err(e.what());
      }
    }
    if (variance.active()) {
      const bool p2p_symbols =
          topology == Topology::kPointToPoint && m == TrafficMode::kSymbols;
      if (!p2p_symbols) {
        err("variance: rare-event acceleration applies to point-to-point "
            "symbol traffic only");
      }
      if (!aggressors.empty()) {
        err("variance: cannot be combined with aggressor pulses");
      }
      if (fault.window_active()) {
        err("variance: cannot be combined with dark/flaky window faults");
      }
      if (variance.kind == rare::Kind::kTilt) {
        if (!variance.levels.empty()) {
          err("variance: kind = tilt does not take a level schedule "
              "(variance.levels is a splitting knob); pick tilt or split");
        }
        if (variance.jitter_tilt == 1.0 && variance.noise_tilt == 1.0) {
          err("variance: kind = tilt with both tilt factors at 1 is crude "
              "Monte Carlo; set variance.jitter_tilt or variance.noise_tilt");
        }
      }
      if (variance.kind == rare::Kind::kSplit) {
        if (variance.jitter_tilt != 1.0 || variance.noise_tilt != 1.0) {
          err("variance: kind = split does not take tilt factors; pick tilt "
              "or split");
        }
        if (variance.levels.empty() && variance.split_levels == 0) {
          err("variance: kind = split needs variance.levels or "
              "variance.split_levels >= 1");
        }
      }
      if (precision.enabled && !precision.metric.empty()) {
        // Weighted acceleration reshapes RATE estimators only; the
        // deterministic mean metrics (throughput, energy) gain nothing
        // and their batch-means intervals are meaningless targets here.
        for (const MetricDef& d : metrics_for(*this)) {
          if (d.name == precision.metric && d.kind != MetricKind::kRate) {
            err("variance: precision.metric '" + precision.metric +
                "' is deterministic under weighting; target a rate metric "
                "(ser, ber, erasure_rate, noise_capture_rate)");
          }
        }
      }
    }
  }

  // Sweep axes. Structural keys are settable but not sweepable: they
  // would change the metric set (topology, mode) or the run identity
  // (name, seed) mid-sweep, misaligning every point's metric vector
  // with the report's metric_names. Two axes over one key would label
  // each point with both values while the later one overwrote the
  // earlier.
  static constexpr const char* kNotSweepable[] = {"topology", "mode", "name",
                                                  "description", "seed"};
  for (auto it = sweep.begin(); it != sweep.end(); ++it) {
    const SweepAxis& a = *it;
    if (a.param.empty()) {
      err("sweep axis with empty parameter name");
      continue;
    }
    if (std::any_of(sweep.begin(), it, [&](const SweepAxis& b) { return b.param == a.param; })) {
      err("parameter '" + a.param + "' has more than one sweep axis");
      continue;
    }
    if (!is_known_param(a.param)) {
      err("sweep axis over unknown parameter '" + a.param + "'");
      continue;
    }
    bool structural = false;
    for (const char* k : kNotSweepable) structural = structural || a.param == k;
    if (structural) {
      err("parameter '" + a.param + "' is structural and cannot be swept");
      continue;
    }
    if (a.size() == 0) err("sweep axis '" + a.param + "' has no points");
    if (!a.values.empty() && !a.labels.empty()) {
      err("sweep axis '" + a.param + "' mixes numeric values and labels");
    }
    if (a.categorical() != is_categorical_param(a.param)) {
      err(is_categorical_param(a.param)
              ? "sweep axis '" + a.param + "' needs categorical labels, not numbers"
              : "sweep axis '" + a.param + "' needs numeric values, not labels");
    }
  }

  if (!errors.empty()) {
    std::string msg = "invalid scenario '" + name + "':";
    for (const std::string& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
}

void set_param(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  const auto it = rows_by_key().find(key);
  if (it == rows_by_key().end()) {
    std::string msg = "scenario: unknown parameter '" + key + "'; known parameters:";
    for (const std::string& k : known_params()) msg += " " + k;
    throw std::invalid_argument(msg);
  }
  const Row& row = *it->second;
  row.set(row, spec, value);
}

bool is_known_param(const std::string& key) { return rows_by_key().contains(key); }

bool is_categorical_param(const std::string& key) {
  const auto it = rows_by_key().find(key);
  return it != rows_by_key().end() && it->second->categorical;
}

std::vector<std::string> known_params() {
  std::vector<std::string> keys;
  keys.reserve(rows_by_key().size());
  for (const auto& [k, row] : rows_by_key()) keys.push_back(k);
  return keys;
}

std::string canonical_spec_text(const ScenarioSpec& spec) {
  std::string out;
  for (const Row& row : kRows) {
    if (row.render != nullptr) row.render(row, spec, out);
  }
  return out;
}

void apply_axis_value(ScenarioSpec& spec, const SweepAxis& axis, std::size_t index) {
  if (axis.categorical()) {
    set_param(spec, axis.param, axis.labels.at(index));
    return;
  }
  // Full precision on the wire -- display() rounds for humans only.
  std::ostringstream os;
  os.precision(17);
  os << axis.values.at(index);
  set_param(spec, axis.param, os.str());
}

const char* to_string(Topology t) {
  return kTopologies[static_cast<std::size_t>(t)].name;
}

}  // namespace oci::scenario
