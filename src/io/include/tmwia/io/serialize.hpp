// Serialization of the library's value types: preference matrices,
// generated instances (matrix + planted community structure) and result
// vectors, in one line-oriented text encoding: human-inspectable
// ("TMWIA/1 text" header, one '0'/'1' row per line) and diff-friendly
// for goldens.
//
// Everything round-trips exactly. Loaders validate headers, shapes,
// bit characters and community ids and throw std::runtime_error
// ("serialize: ...") on malformed input; a header's counts only bound
// the reads, so memory grows with the rows actually present.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/matrix/preference_matrix.hpp"

namespace tmwia::io {

// --- preference matrices -------------------------------------------------

void save_matrix_text(const matrix::PreferenceMatrix& m, std::ostream& os);
/// Rejects a header with 0 players or 0 objects, and more than 2^32-1
/// players (player ids are 32-bit).
matrix::PreferenceMatrix load_matrix_text(std::istream& is);

// --- generated instances (matrix + community structure) ------------------

/// Text format: the matrix section followed by one line per community
/// ("community <id...>" ) and per center ("center <bits>"). The loader
/// rejects ids that are not players of the matrix and centers whose
/// width is not its object count.
void save_instance(const matrix::Instance& inst, std::ostream& os);
matrix::Instance load_instance(std::istream& is);

// --- output vectors -------------------------------------------------------

/// One row per player, text bits. The loader rejects a row that is not
/// `objects` bits wide.
void save_outputs(const std::vector<bits::BitVector>& outputs, std::ostream& os);
std::vector<bits::BitVector> load_outputs(std::istream& is, std::size_t objects);

// --- file helpers ----------------------------------------------------------

void save_instance_file(const matrix::Instance& inst, const std::string& path);
matrix::Instance load_instance_file(const std::string& path);

}  // namespace tmwia::io
