// Text form of a TriVector for the tests: one character per coordinate,
// '0', '1' or '?'.
#pragma once

#include <stdexcept>
#include <string>

#include "tmwia/bits/trivector.hpp"

namespace tmwia::bits {

inline TriVector tri_from_string(const std::string& s) {
  TriVector t(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    switch (s[i]) {
      case '0':
        t.set(i, Tri::kZero);
        break;
      case '1':
        t.set(i, Tri::kOne);
        break;
      case '?':
        t.set(i, Tri::kUnknown);
        break;
      default:
        throw std::invalid_argument("tri_from_string: expected '0', '1' or '?'");
    }
  }
  return t;
}

inline std::string tri_to_string(const TriVector& t) {
  std::string s(t.size(), '?');
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.get(i) != Tri::kUnknown) s[i] = t.get(i) == Tri::kOne ? '1' : '0';
  }
  return s;
}

}  // namespace tmwia::bits
