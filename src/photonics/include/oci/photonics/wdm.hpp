// Wavelength-division multiplexing over one physical optical path.
//
// The paper's positioning cites an integrated WDM mux/demux (Huang et
// al., ISSCC'06) as the state of the art it wants to miniaturise past;
// this module adds the WDM dimension to the interconnect: several
// micro-LED/SPAD channels share one through-silicon path on a
// wavelength grid, with receiver-side filters whose finite isolation
// leaks neighbouring channels' pulses as crosstalk.
#pragma once

#include <cstddef>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Wavelength;

/// Evenly spaced wavelength grid (CWDM-style).
struct WdmGrid {
  Wavelength center = Wavelength::nanometres(850.0);
  Wavelength spacing = Wavelength::nanometres(25.0);
  std::size_t channels = 4;

  /// Wavelength of channel i (0-based), centred on `center`. Throws
  /// std::out_of_range for i >= channels.
  [[nodiscard]] Wavelength wavelength(std::size_t i) const;
};

/// Receiver-side demux filter: a passband per channel with finite
/// isolation that rolls off with grid distance.
struct WdmFilter {
  /// In-band transmittance of the filter (insertion loss).
  double passband_transmittance = 0.85;
  /// Isolation against the ADJACENT channel [dB].
  double adjacent_isolation_db = 25.0;
  /// Additional isolation per further grid step [dB/channel].
  double rolloff_db_per_channel = 10.0;
  /// Isolation floor [dB]: scattering inside the demux bounds how much
  /// far-away channels can be suppressed.
  double isolation_floor_db = 45.0;

  /// Fraction of channel-j power that reaches receiver i (0 <= both <
  /// the grid's channel count). The diagonal is the passband.
  [[nodiscard]] double leakage(std::size_t receiver, std::size_t source) const;
};

/// Full crosstalk matrix for a grid: entry [i][j] is the fraction of
/// channel j's launched power that receiver i collects.
[[nodiscard]] std::vector<std::vector<double>> crosstalk_matrix(const WdmGrid& grid,
                                                                const WdmFilter& filter);

}  // namespace oci::photonics
