// Shared JSONL plumbing for the protocol front-ends (batch cells,
// session streams, the solver daemon).
//
// Every JSONL surface in this repo follows the same framing rules:
// one record per line, blank lines and "#" comments are skipped on
// input so hand-edited scripts stay readable, a trailing CR is
// tolerated (files written on Windows), and output records are
// compact-dumped obs::Json objects (whose dump() does the string
// escaping) followed by '\n' and a flush so a consumer on the other
// end of a pipe or socket sees each record as soon as it is terminal.
//
// The failure-classification helpers here are the other half of the
// shared contract: batch.cpp, sessions.cpp, and the daemon all map a
// solver CheckError to the docs/CORRECTNESS.md taxonomy and a
// CancelledError to "timeout" vs "cancelled" the same way, so a record
// class means the same thing no matter which protocol produced it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "obs/report.hpp"

namespace nat::service {

/// True when `line` carries a record: not blank (spaces/tabs/CR only)
/// and not a "#" comment.
bool is_jsonl_record(const std::string& line);

/// Longest record line a JSONL front-end buffers (1 MiB). No request
/// may make the reader allocate more than this for one line.
inline constexpr std::size_t kMaxJsonlLineBytes = std::size_t{1} << 20;

/// Failure class of a line longer than kMaxJsonlLineBytes.
inline constexpr const char* kLineLimitsClass = "input:limits";

/// The diagnostic an over-cap line's record carries.
std::string line_limits_error();

/// Reads the next record line into *line, skipping blanks/comments and
/// stripping one trailing CR. Returns false at end of stream. A line
/// longer than kMaxJsonlLineBytes stops being buffered at the cap and
/// the rest of it is read and discarded: the call then returns true
/// with *line empty and *over_cap set, and the caller answers it with
/// one kLineLimitsClass record. *over_cap is false for every other
/// line.
bool read_jsonl_record(std::istream& in, std::string* line, bool* over_cap);

/// Writes one framed record: compact dump + '\n' + flush.
void write_jsonl_record(std::ostream& out, const obs::Json& record);

/// Same framing for a record that is already serialized.
void write_jsonl_record(std::ostream& out, const std::string& dumped);

/// Maps a util::CheckError message to its record class: "infeasible"
/// for the solver's infeasibility check, otherwise the
/// docs/CORRECTNESS.md taxonomy key via verify::classify_failure.
std::string classify_solver_failure(const std::string& what);

/// Maps a util::CancelledError message to its record class: "timeout"
/// when the token's deadline fired, "cancelled" for an explicit
/// cancel() (e.g. daemon shutdown).
std::string classify_cancelled(const std::string& what);

}  // namespace nat::service
