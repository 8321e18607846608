#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <sstream>

#include "common/error.hpp"

namespace aks::common {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << value;
  return os.str();
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::size_t parse_size(std::string_view text, std::string_view what) {
  AKS_CHECK(!text.empty() &&
                text.find_first_not_of("0123456789") == std::string_view::npos,
            what << " must be a non-negative integer, got '" << text << "'");
  std::size_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  AKS_CHECK(result.ec == std::errc{},
            what << " is out of range: '" << text << "'");
  return value;
}

}  // namespace aks::common
