// Human-editable CSV interchange for the selection store, used by
// `aks_tune store export/import`.
//
// Lives in the library (not the CLI) so the parser is unit-testable:
// every numeric field goes through a checked parser that raises
// common::Error with row/column context instead of letting std::stoull's
// std::invalid_argument / std::out_of_range escape to the user, and field
// counts are validated per record kind before any field is touched.
//
// Row formats (leading record-type column makes rows self-describing;
// blank lines and `#` comments are skipped):
//
//   device,<fingerprint-hex16>,<name>,<feature0>,...,<featureN-1>
//   selection,<fingerprint-hex16>,<m>,<k>,<n>,<config-index>,
//             <config-name>,<warmup-seconds>,<sweeps>,<quarantined>,
//             <source>,<cert-digest-hex16>
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "store/record.hpp"

namespace aks::store {

class SelectionStore;

/// 16-digit zero-padded lowercase hex (the fingerprint wire format).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Inverse of to_string(Source); unknown names map to Source::kImported so
/// hand-authored rows carry the import provenance tag.
[[nodiscard]] Source source_from_string(const std::string& name);

/// Writes every device profile then every selection, full double precision.
void export_store_csv(const SelectionStore& store, std::ostream& out);

/// Replays rows into `store`; returns the number of rows applied (a
/// selection row superseded by a newer stored record counts as skipped).
/// Throws common::Error naming the 1-based line and column on any malformed
/// row: wrong field count, unknown record type, non-numeric or overflowing
/// field, bad hex fingerprint, invalid GEMM shape (gemm::check_shape) or
/// out-of-range config index.
std::size_t import_store_csv(std::istream& in, SelectionStore& store);

}  // namespace aks::store
