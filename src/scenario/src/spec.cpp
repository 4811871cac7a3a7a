#include "oci/scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

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

double parse_double(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario: parameter '" + key +
                                "' expects a number, got '" + value + "'");
  }
  // Allow trailing whitespace only; NaN and infinities are not numbers
  // a spec can mean.
  bool junk = !std::isfinite(v);
  for (std::size_t i = consumed; i < value.size(); ++i) {
    junk = junk || !std::isspace(static_cast<unsigned char>(value[i]));
  }
  if (junk) {
    throw std::invalid_argument("scenario: parameter '" + key +
                                "' expects a finite number, got '" + value + "'");
  }
  return v;
}

std::uint64_t parse_count(const std::string& key, const std::string& value) {
  const double v = parse_double(key, value);
  if (v < 0.0 || v != std::floor(v) || v > kMaxSpecCount) {
    throw std::invalid_argument("scenario: parameter '" + key +
                                "' expects an integer in [0, 2^53), got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// `v` as the narrower field type T, or an error naming the key.
template <typename T>
T narrow(const std::string& key, std::uint64_t v) {
  if (v > std::numeric_limits<T>::max()) {
    throw std::invalid_argument("scenario: parameter '" + key + "' must be at most " +
                                std::to_string(std::numeric_limits<T>::max()) + ", got " +
                                std::to_string(v));
  }
  return static_cast<T>(v);
}

[[noreturn]] void bad_choice(const std::string& key, const std::string& value,
                             const std::string& choices) {
  throw std::invalid_argument("scenario: parameter '" + key + "' must be one of {" +
                              choices + "}, got '" + value + "'");
}

/// Registry entry: applies a raw string value to the spec.
struct Param {
  bool categorical = false;
  std::function<void(ScenarioSpec&, const std::string&)> apply;
};

const std::map<std::string, Param>& registry() {
  using S = ScenarioSpec;
  static const std::map<std::string, Param> params = [] {
    std::map<std::string, Param> r;
    auto num = [&r](const std::string& key, std::function<void(S&, double)> fn) {
      r[key] = Param{false, [key, fn](S& s, const std::string& v) {
                       fn(s, parse_double(key, v));
                     }};
    };
    auto cnt = [&r](const std::string& key, std::function<void(S&, std::uint64_t)> fn) {
      r[key] = Param{false, [key, fn](S& s, const std::string& v) {
                       fn(s, parse_count(key, v));
                     }};
    };
    auto cat = [&r](const std::string& key,
                    std::function<void(S&, const std::string&)> fn) {
      r[key] = Param{true, std::move(fn)};
    };

    // -- general ------------------------------------------------------
    cat("name", [](S& s, const std::string& v) { s.name = v; });
    cat("description", [](S& s, const std::string& v) { s.description = v; });
    // Seeds use the full uint64 range; routing through double would
    // round above 2^53 and overflow casting near 2^64.
    r["seed"] = Param{false, [](S& s, const std::string& v) {
                        const auto parsed = parse_uint(v);
                        if (!parsed) {
                          throw std::invalid_argument(
                              "scenario: parameter 'seed' expects an unsigned "
                              "integer, got '" + v + "'");
                        }
                        s.seed = *parsed;
                      }};
    cat("topology", [](S& s, const std::string& v) {
      if (v == "point-to-point" || v == "p2p") s.topology = Topology::kPointToPoint;
      else if (v == "wdm") s.topology = Topology::kWdm;
      else if (v == "vertical-bus" || v == "bus") s.topology = Topology::kVerticalBus;
      else if (v == "stack-noc" || v == "noc") s.topology = Topology::kStackNoc;
      else bad_choice("topology", v, "point-to-point, wdm, vertical-bus, stack-noc");
    });
    cat("mode", [](S& s, const std::string& v) {
      if (v == "auto") s.mode = TrafficMode::kAuto;
      else if (v == "symbols") s.mode = TrafficMode::kSymbols;
      else if (v == "frames") s.mode = TrafficMode::kFrames;
      else if (v == "code-density") s.mode = TrafficMode::kCodeDensity;
      else if (v == "packets") s.mode = TrafficMode::kPackets;
      else bad_choice("mode", v, "auto, symbols, frames, code-density, packets");
    });
    cat("fec", [](S& s, const std::string& v) {
      if (v == "none") s.fec = FecKind::kNone;
      else if (v == "hamming") s.fec = FecKind::kHamming;
      else bad_choice("fec", v, "none, hamming");
    });
    cnt("payload_bytes", [](S& s, std::uint64_t v) {
      s.payload_bytes = static_cast<std::size_t>(v);
      s.noc.payload_bytes = static_cast<std::size_t>(v);
    });

    // -- budget -------------------------------------------------------
    cnt("samples", [](S& s, std::uint64_t v) { s.budget.samples = v; });
    cnt("sample_floor", [](S& s, std::uint64_t v) { s.budget.floor = v; });
    cnt("repro_scaled", [](S& s, std::uint64_t v) { s.budget.repro_scaled = v != 0; });

    // -- adaptive precision ------------------------------------------
    // Setting any precision target arms adaptive mode; precision.enabled
    // can switch it back off (order matters -- put it last in a file).
    num("precision.half_width", [](S& s, double v) {
      s.precision.target_half_width = v;
      s.precision.enabled = true;
    });
    num("precision.relative", [](S& s, double v) {
      s.precision.target_relative = v;
      s.precision.enabled = true;
    });
    num("precision.stop_below", [](S& s, double v) {
      s.precision.stop_below = v;
      s.precision.enabled = true;
    });
    cat("precision.metric", [](S& s, const std::string& v) { s.precision.metric = v; });
    num("precision.confidence_z", [](S& s, double v) { s.precision.confidence_z = v; });
    cnt("precision.chunk", [](S& s, std::uint64_t v) { s.precision.chunk = v; });
    cnt("precision.min_samples", [](S& s, std::uint64_t v) { s.precision.min_samples = v; });
    cnt("precision.max_samples", [](S& s, std::uint64_t v) { s.precision.max_samples = v; });
    cnt("precision.enabled", [](S& s, std::uint64_t v) { s.precision.enabled = v != 0; });

    // -- device: TDC design ------------------------------------------
    cnt("fine_elements", [](S& s, std::uint64_t v) { s.device.design.fine_elements = v; });
    cnt("coarse_bits", [](S& s, std::uint64_t v) {
      s.device.design.coarse_bits = narrow<unsigned>("coarse_bits", v);
    });
    num("delay_element_ps", [](S& s, double v) {
      s.device.design.element_delay = Time::picoseconds(v);
      s.device.delay_line.nominal_delay = Time::picoseconds(v);
    });
    cnt("delay_line_elements", [](S& s, std::uint64_t v) {
      s.device.delay_line.elements = static_cast<std::size_t>(v);
    });
    num("mismatch_sigma", [](S& s, double v) { s.device.delay_line.mismatch_sigma = v; });
    cat("tech_node", [](S& s, const std::string& v) {
      const auto& node = electrical::node_by_name(v);  // throws on unknown name
      s.device.design.element_delay = node.delay_element;
      s.device.delay_line.nominal_delay = node.delay_element;
      s.device.delay_line.mismatch_sigma = node.mismatch_sigma;
      s.device.led.driver_load = node.led_driver_load;
      s.device.led.supply = node.supply;
    });

    // -- device: modulation / traffic --------------------------------
    cnt("bits_per_symbol", [](S& s, std::uint64_t v) {
      s.device.bits_per_symbol = narrow<unsigned>("bits_per_symbol", v);
    });
    cat("labeling", [](S& s, const std::string& v) {
      if (v == "gray") s.device.labeling = modulation::SlotLabeling::kGray;
      else if (v == "binary") s.device.labeling = modulation::SlotLabeling::kBinary;
      else bad_choice("labeling", v, "gray, binary");
    });

    // -- device: LED / channel / SPAD --------------------------------
    num("peak_power_uw", [](S& s, double v) { s.device.led.peak_power = Power::microwatts(v); });
    num("pulse_width_ps", [](S& s, double v) { s.device.led.pulse_width = Time::picoseconds(v); });
    num("wavelength_nm", [](S& s, double v) {
      s.device.led.wavelength = Wavelength::nanometres(v);
    });
    num("channel_transmittance", [](S& s, double v) { s.device.channel_transmittance = v; });
    num("background_mhz", [](S& s, double v) {
      s.device.background_rate = Frequency::megahertz(v);
    });
    num("jitter_ps", [](S& s, double v) { s.device.spad.jitter_sigma = Time::picoseconds(v); });
    num("dcr_hz", [](S& s, double v) { s.device.spad.dcr_at_ref = Frequency::hertz(v); });
    num("dead_time_ns", [](S& s, double v) { s.device.spad.dead_time = Time::nanoseconds(v); });
    num("afterpulse_probability", [](S& s, double v) {
      s.device.spad.afterpulse_probability = v;
    });
    num("pdp_peak", [](S& s, double v) { s.device.spad.pdp_peak = v; });
    cnt("calibrate", [](S& s, std::uint64_t v) { s.device.calibrate = v != 0; });
    cnt("calibration_samples", [](S& s, std::uint64_t v) { s.device.calibration_samples = v; });
    num("guard_ns", [](S& s, double v) { s.device.inter_symbol_guard = Time::nanoseconds(v); });

    // -- WDM ----------------------------------------------------------
    cnt("channels", [](S& s, std::uint64_t v) {
      s.wdm.grid.channels = static_cast<std::size_t>(v);
    });
    num("grid_center_nm", [](S& s, double v) { s.wdm.grid.center = Wavelength::nanometres(v); });
    num("grid_spacing_nm", [](S& s, double v) { s.wdm.grid.spacing = Wavelength::nanometres(v); });
    num("isolation_db", [](S& s, double v) {
      // The demux spec knob the abl_wdm sweep turns: the floor tracks
      // the adjacent isolation (scattering bounds it ~20 dB deeper,
      // never better than 45 dB).
      s.wdm.filter.adjacent_isolation_db = v;
      s.wdm.filter.isolation_floor_db = std::max(v + 20.0, 45.0);
    });
    num("isolation_floor_db", [](S& s, double v) { s.wdm.filter.isolation_floor_db = v; });
    num("passband_transmittance", [](S& s, double v) {
      s.wdm.filter.passband_transmittance = v;
    });
    num("path_transmittance", [](S& s, double v) { s.wdm.path_transmittance = v; });
    cnt("stack_dies", [](S& s, std::uint64_t v) {
      s.wdm.stack_dies = static_cast<std::size_t>(v);
    });
    cnt("from_die", [](S& s, std::uint64_t v) { s.wdm.from_die = static_cast<std::size_t>(v); });
    cnt("to_die", [](S& s, std::uint64_t v) { s.wdm.to_die = static_cast<std::size_t>(v); });

    // -- bus / NoC ----------------------------------------------------
    cnt("dies", [](S& s, std::uint64_t v) {
      s.bus.dies = static_cast<std::size_t>(v);
      s.noc.dies = static_cast<std::size_t>(v);
    });
    cnt("master", [](S& s, std::uint64_t v) { s.bus.master = static_cast<std::size_t>(v); });
    cat("mac", [](S& s, const std::string& v) {
      if (v != "tdma" && v != "token" && v != "token+pass" && v != "aloha" && v != "cac") {
        bad_choice("mac", v, "tdma, token, token+pass, aloha, cac");
      }
      s.noc.mac = v;
    });
    cat("pattern", [](S& s, const std::string& v) {
      if (v == "uniform") s.noc.pattern = NocPattern::kUniform;
      else if (v == "hotspot") s.noc.pattern = NocPattern::kHotspot;
      else if (v == "master-broadcast") s.noc.pattern = NocPattern::kMasterBroadcast;
      else if (v == "incast") s.noc.pattern = NocPattern::kIncast;
      else if (v == "broadcast-storm") s.noc.pattern = NocPattern::kBroadcastStorm;
      else bad_choice("pattern", v,
                      "uniform, hotspot, master-broadcast, incast, broadcast-storm");
    });
    cnt("alloc.weight", [](S& s, std::uint64_t v) {
      s.noc.alloc_weight = static_cast<std::size_t>(v);
    });
    cnt("alloc.wavelengths", [](S& s, std::uint64_t v) {
      s.noc.alloc_wavelengths = static_cast<std::size_t>(v);
    });
    cnt("alloc.frame", [](S& s, std::uint64_t v) { s.noc.alloc_frame = v; });
    cnt("alloc.rounds", [](S& s, std::uint64_t v) {
      s.noc.alloc_rounds = narrow<unsigned>("alloc.rounds", v);
    });
    num("offered_load", [](S& s, double v) { s.noc.offered_load = v; });
    cnt("hot_die", [](S& s, std::uint64_t v) { s.noc.hot_die = static_cast<std::size_t>(v); });
    num("hot_load", [](S& s, double v) { s.noc.hot_load = v; });
    num("master_load", [](S& s, double v) { s.noc.master_load = v; });
    num("worker_load", [](S& s, double v) { s.noc.worker_load = v; });
    cnt("queue_capacity", [](S& s, std::uint64_t v) {
      s.noc.queue_capacity = static_cast<std::size_t>(v);
    });
    cnt("max_attempts", [](S& s, std::uint64_t v) {
      s.noc.max_attempts = narrow<unsigned>("max_attempts", v);
    });
    cat("delivery", [](S& s, const std::string& v) {
      if (v == "scalar") s.noc.delivery = NocDelivery::kScalar;
      else if (v == "fec-probe") s.noc.delivery = NocDelivery::kFecProbe;
      else if (v == "engine") s.noc.delivery = NocDelivery::kEngine;
      else bad_choice("delivery", v, "scalar, fec-probe, engine");
    });
    num("delivery_probability", [](S& s, double v) { s.noc.delivery_probability = v; });
    cnt("probe_transfers", [](S& s, std::uint64_t v) { s.noc.probe_transfers = v; });

    // -- fault injection ---------------------------------------------
    num("fault.dead_pixel_fraction", [](S& s, double v) {
      s.fault.dead_pixel_fraction = v;
    });
    num("fault.hot_pixel_fraction", [](S& s, double v) { s.fault.hot_pixel_fraction = v; });
    num("fault.hot_pixel_dcr_hz", [](S& s, double v) { s.fault.hot_pixel_dcr_hz = v; });
    cnt("fault.array_pixels", [](S& s, std::uint64_t v) { s.fault.array_pixels = v; });
    cnt("fault.mask_hot_pixels", [](S& s, std::uint64_t v) {
      s.fault.mask_hot_pixels = v != 0;
    });
    num("fault.dark_window_probability", [](S& s, double v) {
      s.fault.dark_window_probability = v;
    });
    num("fault.flaky_window_probability", [](S& s, double v) {
      s.fault.flaky_window_probability = v;
    });
    num("fault.flaky_attenuation_db", [](S& s, double v) {
      s.fault.flaky_attenuation_db = v;
    });
    num("fault.tdc_drift_c", [](S& s, double v) { s.fault.tdc_drift_c = v; });
    cnt("fault.recalibrate", [](S& s, std::uint64_t v) { s.fault.recalibrate = v != 0; });
    num("fault.dead_channel_fraction", [](S& s, double v) {
      s.fault.dead_channel_fraction = v;
    });
    num("fault.channel_attenuation_db", [](S& s, double v) {
      s.fault.channel_attenuation_db = v;
    });
    num("fault.dead_node_fraction", [](S& s, double v) { s.fault.dead_node_fraction = v; });
    num("fault.link_failure_probability", [](S& s, double v) {
      s.fault.link_failure_probability = v;
    });
    cnt("fault.reroute", [](S& s, std::uint64_t v) { s.fault.reroute = v != 0; });
    cnt("fault.mac_reclaim", [](S& s, std::uint64_t v) { s.fault.mac_reclaim = v != 0; });
    cnt("fault.salt", [](S& s, std::uint64_t v) { s.fault.salt = v; });

    // -- rare-event acceleration -------------------------------------
    cat("variance.kind", [](S& s, const std::string& v) {
      try {
        s.variance.kind = rare::kind_from_string(v);
      } catch (const std::invalid_argument&) {
        bad_choice("variance.kind", v, "none, tilt, split");
      }
    });
    num("variance.jitter_tilt", [](S& s, double v) { s.variance.jitter_tilt = v; });
    num("variance.noise_tilt", [](S& s, double v) { s.variance.noise_tilt = v; });
    cat("variance.levels", [](S& s, const std::string& v) {
      // Syntax check at set time so a typo'd schedule fails with the
      // spec file:line; validate() re-checks semantics (monotonicity
      // against the kind).
      (void)rare::parse_levels(v);
      s.variance.levels = v;
    });
    cnt("variance.split_levels", [](S& s, std::uint64_t v) {
      s.variance.split_levels = narrow<std::uint32_t>("variance.split_levels", v);
    });

    return r;
  }();
  return params;
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
  // with the report's metric_names.
  static constexpr const char* kNotSweepable[] = {"topology", "mode", "name",
                                                  "description", "seed"};
  for (const SweepAxis& a : sweep) {
    if (a.param.empty()) {
      err("sweep axis with empty parameter name");
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
  const auto it = registry().find(key);
  if (it == registry().end()) {
    std::string msg = "scenario: unknown parameter '" + key + "'; known parameters:";
    for (const std::string& k : known_params()) msg += " " + k;
    throw std::invalid_argument(msg);
  }
  it->second.apply(spec, value);
}

bool is_known_param(const std::string& key) { return registry().count(key) != 0; }

bool is_categorical_param(const std::string& key) {
  const auto it = registry().find(key);
  return it != registry().end() && it->second.categorical;
}

std::vector<std::string> known_params() {
  std::vector<std::string> keys;
  keys.reserve(registry().size());
  for (const auto& [k, v] : registry()) keys.push_back(k);
  return keys;
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
  switch (t) {
    case Topology::kPointToPoint: return "point-to-point";
    case Topology::kWdm: return "wdm";
    case Topology::kVerticalBus: return "vertical-bus";
    case Topology::kStackNoc: return "stack-noc";
  }
  return "?";
}

const char* to_string(TrafficMode m) {
  switch (m) {
    case TrafficMode::kAuto: return "auto";
    case TrafficMode::kSymbols: return "symbols";
    case TrafficMode::kFrames: return "frames";
    case TrafficMode::kCodeDensity: return "code-density";
    case TrafficMode::kPackets: return "packets";
  }
  return "?";
}

const char* to_string(FecKind f) {
  switch (f) {
    case FecKind::kNone: return "none";
    case FecKind::kHamming: return "hamming";
  }
  return "?";
}

}  // namespace oci::scenario
