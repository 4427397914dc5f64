// Geometric sizing for retained buffers. Past its capacity,
// std::vector::reserve allocates exactly the size asked for, so a retained
// buffer sized every round for a set that creeps up (the planner
// workspace's follow the broadcast, which gains packets every round until
// dispersion) would reallocate every round. reserve_grown at least doubles
// the capacity instead, so such a buffer reallocates O(log size) times over
// a run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dyndisp {

/// Ensures `v` holds at least `n` elements without reallocating, growing
/// its capacity at least twofold when it must grow.
template <typename T>
void reserve_grown(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
}

}  // namespace dyndisp
