#pragma once
/// \file mutate.hpp
/// Seeded input mutation for boundary tests. mutate() applies one of four
/// edits to a byte string: flip one bit of a byte, truncate, duplicate a
/// span in place, or insert a decimal digit. `rng` picks the edit and its
/// place, so a fixed seed replays the same inputs.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace cxlgraph::mutation {

inline std::string mutate(std::string s, util::Xoshiro256& rng) {
  const auto below = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_below(bound));
  };
  switch (rng.next_below(4)) {
    case 0:  // byte flip
      if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
      break;
    case 1:  // truncation
      s.resize(below(s.size() + 1));
      break;
    case 2:  // duplication: a span of up to 16 bytes, right after itself
      if (!s.empty()) {
        const std::size_t at = below(s.size());
        const std::size_t len =
            1 + below(std::min<std::size_t>(s.size() - at, 16));
        s.insert(at + len, s.substr(at, len));
      }
      break;
    default:  // digit insertion
      s.insert(below(s.size() + 1), 1,
               static_cast<char>('0' + below(10)));
      break;
  }
  return s;
}

/// `seed` with one to three mutations stacked.
inline std::string mutate_some(std::string seed, util::Xoshiro256& rng) {
  for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
    seed = mutate(std::move(seed), rng);
  }
  return seed;
}

}  // namespace cxlgraph::mutation
