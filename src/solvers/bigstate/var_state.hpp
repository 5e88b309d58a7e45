// The runtime-width packed key now lives in solvers/packed_state.hpp as
// PackedKey<0>; this header keeps its earlier name for perfbench/.
#pragma once

#include "src/solvers/packed_state.hpp"

namespace rbpeb {

using VarPackedState = PackedKey<0>;

}  // namespace rbpeb
