// Small string utilities (split/trim/join/formatting) for CSV handling and
// human-readable report output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace aks::common {

/// Splits on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Joins with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Fixed-point formatting with the given number of decimals.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Left-pads with spaces to the given width.
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads with spaces to the given width.
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Parses a non-negative decimal integer (command-line values). Throws
/// common::Error naming `what` on empty, non-digit or overflowing input
/// instead of letting a std exception escape or a sign wrap around.
[[nodiscard]] std::size_t parse_size(std::string_view text,
                                     std::string_view what);

}  // namespace aks::common
