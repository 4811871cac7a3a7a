#include "oci/link/symbol_delivery.hpp"

#include "oci/modulation/frame.hpp"

namespace oci::link {

SymbolDeliveryModel::SymbolDeliveryModel(const OpticalLink& link)
    : link_(&link), engine_(link) {}

std::uint64_t SymbolDeliveryModel::symbols_for(std::size_t payload_bytes) const {
  return modulation::symbols_for_payload(payload_bytes, link_->bits_per_symbol());
}

bool SymbolDeliveryModel::deliver(std::size_t payload_bytes, util::RngStream& rng) {
  const LinkRunStats stats = engine_.measure(symbols_for(payload_bytes), rng);
  cumulative_ += stats;
  return stats.symbol_errors == 0 && stats.erasures == 0;
}

}  // namespace oci::link
