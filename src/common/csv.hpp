// Minimal CSV reader/writer.
//
// The tuning dataset (shapes x configurations performance table) and all
// bench outputs are persisted as plain CSV so they can be inspected with
// standard tools, mirroring the dataset the paper published alongside the
// code. Only the subset of CSV AKS emits is supported: no quoting, no
// embedded delimiters.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace aks::common {

/// An in-memory CSV table: one header row plus string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t num_rows() const { return rows.size(); }
  [[nodiscard]] std::size_t num_cols() const { return header.size(); }

  /// Column index for a header name; throws if absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;
};

/// Parses a CSV file with a header row. Throws Error on I/O failure or
/// ragged rows.
[[nodiscard]] CsvTable read_csv(const std::filesystem::path& path);

/// Writes a CSV file; throws on I/O failure or ragged rows.
void write_csv(const std::filesystem::path& path, const CsvTable& table);

/// Convenience: writes a numeric matrix with the given column names.
void write_matrix_csv(const std::filesystem::path& path,
                      const std::vector<std::string>& header,
                      const Matrix& values, int decimals = 9);

}  // namespace aks::common
