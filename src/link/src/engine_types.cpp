#include "oci/link/engine_types.hpp"

namespace oci::link {

void EngineBatchScratch::reserve(std::size_t lanes) {
  windows_.reserve(lanes);
  symbols_.reserve(lanes);
  decoded_.reserve(lanes);
}

}  // namespace oci::link
