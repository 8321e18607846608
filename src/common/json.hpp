// JSON string escaping shared by every JSON exporter (Chrome trace, lockdep
// graph, akscheck reports).
//
// Header-only on purpose: the lock-order validator (check/lockdep.cpp) sits
// below aks_common in the link order, so it can use an inline function but
// not a symbol of the common library.
#pragma once

#include <string>
#include <string_view>

namespace aks::common {

/// Escapes `s` for a JSON string literal (without the surrounding quotes):
/// `"` and `\` are backslash-escaped, newline, carriage return and tab use
/// their short escapes, and every other control character is `\u00XX`.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

}  // namespace aks::common
